// Exact chain segmentation by dynamic programming.
//
// Algorithm 2 splits the topological order recursively at locally minimal
// cuts; that is fast but not optimal even within its own solution family
// (contiguous topological intervals mapped to a switch chain). This module
// solves that restricted problem exactly:
//
//   choose boundaries 0 = b0 < b1 < ... < bk = n over the topological order
//   such that every interval [b_i, b_{i+1}) fits one switch, minimizing the
//   maximum cut metadata max_i cut(b_i) — the bytes in flight on the wire
//   between consecutive switches (the physical per-packet overhead).
//
// The DP sweeps each start position forward with one incremental first-fit
// pack (core::SegmentPacker) and stops at the first node that does not fit:
// O(n·k·deg) for intervals of at most k nodes, plus one topological sort.
// greedy_deploy runs it as a refinement on TDGs of up to 250 MATs and keeps
// its segmentation when that places with a lower A_max; the ablation
// benchmarks use it to quantify how much optimality the paper's recursive
// heuristic gives up.
#pragma once

#include "core/deployment.h"

namespace hermes::core {

struct DpSplitResult {
    std::vector<std::vector<tdg::NodeId>> segments;
    std::int64_t max_cut_bytes = 0;  // optimal objective value
};

// Splits all nodes of `t`. Throws std::runtime_error when some single MAT
// cannot fit a switch; returns one segment (max_cut 0) when everything fits.
[[nodiscard]] DpSplitResult dp_split(const tdg::Tdg& t, int stages,
                                     double stage_capacity);

// The cut metadata at topological-order boundary b (edges from positions
// < b to positions >= b), for all b in [0, n]. cut[0] = cut[n] = 0.
[[nodiscard]] std::vector<std::int64_t> boundary_cuts(const tdg::Tdg& t);

}  // namespace hermes::core
