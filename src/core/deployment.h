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

// Packs one segment onto one switch's stages by the topological first-fit
// rule that assign_stages, split_tdg_first_fit and dp_split all share. Nodes
// are offered in topological order; each lands in the earliest stage after
// its packed predecessors that has room (1e-9 tolerance), and a node that no
// stage can take leaves the packing as it was. Packing never moves a node
// already packed, so growing a segment node by node packs it exactly as a
// whole re-pack would, and once a node is refused every longer segment
// fails too.
class SegmentPacker {
public:
    // Indexes t's in-edges once, O(V + E). The geometry is not validated
    // here (assign_stages does that).
    SegmentPacker(const tdg::Tdg& t, int stages, double stage_capacity);

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
    int stages_;
    double stage_capacity_;
    std::vector<std::size_t> pred_first_;  // in-edges of v: preds_[pred_first_[v] ..
    std::vector<tdg::NodeId> preds_;       //   pred_first_[v + 1]), in edge order
    std::vector<int> stage_;               // per node; -1 while unpacked
    std::vector<double> load_;             // per stage
    std::vector<tdg::NodeId> packed_;
    double total_ = 0.0;
};

// Assigns pipeline stages to the nodes of `segment` (a subset of t's nodes)
// on a switch with `stages` stages of `stage_capacity` resources each:
// topological first-fit that respects intra-segment dependencies
// (stage(a) < stage(b) for every edge) and per-stage capacity. Returns the
// stage per segment node (parallel to `segment`), or nullopt when the
// segment cannot fit.
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
[[nodiscard]] bool segment_fits(const tdg::Tdg& t, const std::vector<tdg::NodeId>& segment,
                                int stages, double stage_capacity);

}  // namespace hermes::core
