// Deployment decisions: where every MAT lives and how switches communicate.
//
// This is the output side of the paper's decision variables: x(a,i,u)
// becomes Placement{switch, stage} per MAT, and y(u,v,p) becomes the chosen
// Path per communicating ordered switch pair.
#pragma once

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/network.h"
#include "net/paths.h"
#include "tdg/tdg.h"

namespace hermes::core {

struct Placement {
    net::SwitchId sw = 0;
    int stage = 0;
};

struct Deployment {
    // Indexed by TDG node id.
    std::vector<Placement> placements;
    // Chosen inter-switch path per ordered communicating pair (u, v).
    std::map<std::pair<net::SwitchId, net::SwitchId>, net::Path> routes;

    [[nodiscard]] bool empty() const noexcept { return placements.empty(); }

    // Switch hosting a MAT.
    [[nodiscard]] net::SwitchId switch_of(tdg::NodeId a) const;

    // Distinct switches used, ascending.
    [[nodiscard]] std::vector<net::SwitchId> occupied_switches() const;

    // Node ids placed on switch u, sorted by stage then id.
    [[nodiscard]] std::vector<tdg::NodeId> mats_on(net::SwitchId u) const;
};

// Per-stage loads of one switch, and the one rule every first-fit packer
// applies: a MAT of `resource` units fits stage s when
// load(s) + resource <= capacity + 1e-9 (the verifier's tolerance).
class StagePacker {
public:
    // Throws std::invalid_argument unless stages > 0 and capacity > 0.
    StagePacker(int stages, double capacity);

    // First stage index >= min_stage with room, or nullopt. Does not commit.
    [[nodiscard]] std::optional<int> find_slot(double resource, int min_stage) const;
    // find_slot + commit.
    std::optional<int> place(double resource, int min_stage);
    void commit(int stage, double resource);
    // Zeroes every stage's load.
    void clear();

    [[nodiscard]] int stages() const noexcept { return static_cast<int>(load_.size()); }
    [[nodiscard]] double capacity() const noexcept { return capacity_; }
    [[nodiscard]] const std::vector<double>& loads() const noexcept { return load_; }
    [[nodiscard]] double remaining_total() const noexcept;

private:
    std::vector<double> load_;
    double capacity_;
};

// Node-level first-fit placement of `order` (a topological order) onto a
// switch chain, `packers[k]` holding the loads of `chain[k]`. Nodes already
// marked in `placed` stay where `placements` has them; every other node of
// `order` lands on the earliest chain switch at or after `start_hint` and
// after the switches of its placed predecessors, in the earliest stage
// after its same-switch predecessors that StagePacker accepts. Updates
// `packers`, `placements` and `placed` in place. Returns false when some
// node finds no slot: the first node of `order` left unplaced is that one,
// and the nodes after it are not tried.
[[nodiscard]] bool chain_first_fit(const tdg::Tdg& t, const std::vector<tdg::NodeId>& order,
                                   const std::vector<net::SwitchId>& chain,
                                   std::vector<StagePacker>& packers,
                                   Deployment& placements, std::vector<bool>& placed,
                                   std::size_t start_hint = 0);

// Packs one segment onto one switch's stages by the topological first-fit
// rule that every segment-level fit check shares (assign_stages,
// segment_fits, the greedy's splitter, coalescer and anchor scan,
// split_tdg_first_fit and dp_split). Nodes are offered in topological order;
// each lands in the earliest stage after its packed predecessors that the
// StagePacker rule accepts, and a node that no stage can take leaves the
// packing as it was. Packing never moves a node already packed, so growing
// a segment node by node packs it exactly as a whole re-pack would, and
// once a node is refused every longer segment fails too.
//
// Construction sorts the whole TDG once; after that a pack() or fits() of
// k nodes costs O(k log k + Σ in-degree), so a caller asking many fit
// questions of one TDG and geometry builds one packer and reuses it.
class SegmentPacker {
public:
    // Sorts t topologically and indexes its in-edges once,
    // O((V + E) log V). Throws std::invalid_argument on a bad geometry, as
    // StagePacker does, and std::runtime_error when t has a cycle.
    SegmentPacker(const tdg::Tdg& t, int stages, double stage_capacity);

    // Packs `segment` (distinct node ids, in any order) into an empty
    // packer, offering its members in t's topological order. Returns the
    // stage per segment node (parallel to `segment`), or nullopt when some
    // member finds no stage. Throws std::out_of_range on a bad id and
    // std::invalid_argument on a duplicate, before packing anything. Leaves
    // the packer empty in every case, so pack() and fits() calls can follow
    // one another without a clear().
    [[nodiscard]] std::optional<std::vector<int>> pack(const std::vector<tdg::NodeId>& segment);

    // The paper's aggregate test ΣR(a) <= stages × capacity (+1e-9), summed
    // in `segment` order, then pack().
    [[nodiscard]] bool fits(const std::vector<tdg::NodeId>& segment);

    // Sorts `nodes` into t's topological order, the order pack() offers
    // them in.
    void sort_topologically(std::vector<tdg::NodeId>& nodes) const;

    // Packs v. Its packed predecessors are taken to be its predecessors in
    // the segment. Returns v's stage, or -1 when no stage can take it.
    int place(tdg::NodeId v);

    // place() behind the paper's aggregate test: v is refused when the
    // segment's ΣR(a), summed in offer order, would exceed
    // stages × capacity (+1e-9).
    bool add(tdg::NodeId v);

    // Empties the packing, in time linear in the nodes packed since the
    // last clear.
    void clear();

    // Stage of a packed node.
    [[nodiscard]] int stage_of(tdg::NodeId v) const { return stage_[v]; }

private:
    const tdg::Tdg& t_;
    StagePacker loads_;                    // per-stage loads, and the fit rule
    std::vector<std::size_t> position_;    // per node: its index in t's topological order
    std::vector<std::size_t> pred_first_;  // in-edges of v: preds_[pred_first_[v] ..
    std::vector<tdg::NodeId> preds_;       //   pred_first_[v + 1]), in edge order
    std::vector<int> stage_;               // per node; -1 while unpacked
    std::vector<tdg::NodeId> packed_;
    std::vector<tdg::NodeId> order_;       // pack()'s segment, sorted by position_
    double total_ = 0.0;
};

// Assigns pipeline stages to the nodes of `segment` (a subset of t's nodes)
// on a switch with `stages` stages of `stage_capacity` resources each:
// topological first-fit that respects intra-segment dependencies
// (stage(a) < stage(b) for every edge) and per-stage capacity. Returns the
// stage per segment node (parallel to `segment`), or nullopt when the
// segment cannot fit. One SegmentPacker::pack on a packer built for this
// call, so each call sorts the whole TDG, O((V + E) log V); reuse one
// SegmentPacker to ask many questions of one TDG.
[[nodiscard]] std::optional<std::vector<int>> assign_stages(
    const tdg::Tdg& t, const std::vector<tdg::NodeId>& segment, int stages,
    double stage_capacity);

// Exact variant: backtracking search over stage assignments (first-fit can
// fail on packings that still exist). Exponential worst case, bounded by
// `node_budget` explored states; returns nullopt when no packing exists or
// the budget runs out. Used when decoding MILP solutions, where the model's
// aggregate resource constraint admits sets that first-fit cannot place.
[[nodiscard]] std::optional<std::vector<int>> assign_stages_exact(
    const tdg::Tdg& t, const std::vector<tdg::NodeId>& segment, int stages,
    double stage_capacity, std::size_t node_budget = 200'000);

// True when `segment` fits one switch with the given geometry (both the
// paper's aggregate test ΣR(a) <= C_stage * C_res and actual stage packing).
// One SegmentPacker::fits on a packer built for this call, at the whole-TDG
// cost of assign_stages.
[[nodiscard]] bool segment_fits(const tdg::Tdg& t, const std::vector<tdg::NodeId>& segment,
                                int stages, double stage_capacity);

}  // namespace hermes::core
