// Greedy-based heuristic of Hermes (§V-E, Algorithm 2).
//
// Splits the merged TDG into switch-sized segments at the topological prefix
// cuts that carry the least metadata, then maps the segment chain onto the
// closest feasible chain of programmable switches under the ε-bounds, wiring
// consecutive switches with shortest paths.
//
// The splitter and coalescer run on an adjacency-indexed view of the TDG
// (out-/in-edge lists plus flat membership flags), so a split level's cut
// scan is linear in the nodes it splits and their edges. Every fit check
// goes through one core::SegmentPacker per call and switch geometry, which
// sorts the whole TDG once when built; a check on k nodes then costs
// O(k log k + Σ in-degree). The anchor search is one serial loop over the
// programmable switches and shares one net::PathOracle per Network. All
// rewrites are bit-identical to the retained reference implementations in
// core/greedy_reference.h (enforced by tests/greedy_equivalence_test).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/deployment.h"
#include "core/options.h"
#include "net/path_oracle.h"

namespace hermes::core {

// Inherits core::CommonOptions: `sink` records greedy.* spans and counters,
// and an active `deadline` truncates the anchor scan. `threads` is ignored:
// the anchor scan runs on the calling thread.
struct GreedyOptions : CommonOptions {
    double epsilon1 = std::numeric_limits<double>::infinity();   // t_e2e bound (us)
    std::int64_t epsilon2 = std::numeric_limits<std::int64_t>::max();  // Q_occ bound
};

struct GreedyResult {
    Deployment deployment;
    std::vector<std::vector<tdg::NodeId>> segments;  // in traversal order
    net::SwitchId anchor = 0;                        // chain head switch
};

// SPLIT_TDG: recursively partitions `nodes` (defaults to all of t) into
// segments that each fit a switch with the given geometry, cutting at the
// minimum-metadata topological prefix each time. Throws std::runtime_error
// when a single MAT exceeds a stage's capacity, and std::invalid_argument
// on a bad geometry (as SegmentPacker does).
[[nodiscard]] std::vector<std::vector<tdg::NodeId>> split_tdg(
    const tdg::Tdg& t, std::vector<tdg::NodeId> nodes, int stages, double stage_capacity);

// Resource-driven topological first-fit split: fills each segment with
// nodes in topological order until the next node no longer fits. This is
// the metadata-oblivious splitting the comparison frameworks effectively
// perform, used as their segment-level unit builder.
[[nodiscard]] std::vector<std::vector<tdg::NodeId>> split_tdg_first_fit(
    const tdg::Tdg& t, std::vector<tdg::NodeId> nodes, int stages, double stage_capacity);

// SELECT_SWITCHES: the anchor plus up to epsilon2-1 nearest programmable
// switches reachable from it, keeping the chain's consecutive shortest-path
// latency within epsilon1. Returns the chain (anchor first). When `oracle`
// is non-null its cached Dijkstra trees answer every distance query.
[[nodiscard]] std::vector<net::SwitchId> select_switches(const net::Network& net,
                                                         net::SwitchId anchor,
                                                         const GreedyOptions& options,
                                                         net::PathOracle* oracle = nullptr);

// Coalesces adjacent segments — the heaviest inter-segment metadata cut
// first, the earliest pair on a tie — while the merged pair still fits one
// switch, until at most `target` segments remain or no merge applies.
// Merging the heaviest cut stops the most metadata from crossing switches.
// Recursive min-cut splitting can over-fragment (a cut-minimizing split is
// not balance-aware); coalescing restores feasibility on switch-starved
// networks without giving up the minimum-metadata cuts. Throws
// std::invalid_argument on a bad geometry when there is anything to merge.
[[nodiscard]] std::vector<std::vector<tdg::NodeId>> coalesce_segments(
    const tdg::Tdg& t, std::vector<std::vector<tdg::NodeId>> segments,
    std::size_t target, int stages, double stage_capacity);

// Places an already-computed segment list onto the best feasible switch
// chain (lines 21-29 of Algorithm 2): for every programmable anchor, builds
// its candidate chain via select_switches, keeps the feasible chain with the
// lowest total latency (ties broken toward the lowest anchor id), assigns
// segment i to chain switch i, and wires consecutive switches with shortest
// paths. Anchors are tried in ascending id order on the calling thread.
// Throws std::runtime_error when no anchor yields enough switches.
[[nodiscard]] GreedyResult deploy_segments_on_chain(
    const tdg::Tdg& t, const net::Network& net,
    std::vector<std::vector<tdg::NodeId>> segments, const GreedyOptions& options = {},
    net::PathOracle* oracle = nullptr);

// Full Algorithm 2. Considers every programmable anchor, keeps the feasible
// chain with the lowest total latency. Throws std::runtime_error when no
// anchor yields enough switches for the segments. Pass a shared oracle to
// reuse Dijkstra trees across calls touching the same Network.
[[nodiscard]] GreedyResult greedy_deploy(const tdg::Tdg& t, const net::Network& net,
                                         const GreedyOptions& options = {},
                                         net::PathOracle* oracle = nullptr);

}  // namespace hermes::core
