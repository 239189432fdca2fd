#include "core/dp_split.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace hermes::core {

std::vector<std::int64_t> boundary_cuts(const tdg::Tdg& t) {
    const std::vector<tdg::NodeId> order = t.topological_order();
    std::vector<std::size_t> pos(t.node_count());
    for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;

    // cut[b] = Σ A(e) over edges spanning boundary b. An edge from position
    // p to position q (p < q) spans boundaries p+1 .. q; accumulate with a
    // difference array.
    std::vector<std::int64_t> diff(order.size() + 2, 0);
    for (const tdg::Edge& e : t.edges()) {
        const std::size_t p = pos[e.from];
        const std::size_t q = pos[e.to];
        if (p >= q || e.metadata_bytes == 0) continue;
        diff[p + 1] += e.metadata_bytes;
        diff[q + 1] -= e.metadata_bytes;
    }
    std::vector<std::int64_t> cut(order.size() + 1, 0);
    std::int64_t running = 0;
    for (std::size_t b = 1; b <= order.size(); ++b) {
        running += diff[b];
        if (b < order.size()) cut[b] = running;
    }
    return cut;
}

DpSplitResult dp_split(const tdg::Tdg& t, int stages, double stage_capacity) {
    const std::vector<tdg::NodeId> order = t.topological_order();
    const std::size_t n = order.size();
    DpSplitResult result;
    if (n == 0) return result;

    const std::vector<std::int64_t> cut = boundary_cuts(t);

    // best[i]: the minimum max-cut over segmentations of prefix i, reached
    // with last interval [parent[i], i). Feasibility of [j, i) is monotone
    // in i: first-fit never moves a packed node, and the aggregate total
    // only grows. So one incremental pack per start j, stopped at the first
    // node that does not fit, finds every feasible interval from j. Starts
    // ascend and ties update (<=), so the largest start with the minimum
    // wins.
    constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
    std::vector<std::int64_t> best(n + 1, kInf);
    std::vector<std::size_t> parent(n + 1, 0);
    best[0] = 0;
    SegmentPacker packer(t, stages, stage_capacity);
    for (std::size_t j = 0; j < n; ++j) {
        if (best[j] == kInf) continue;
        const std::int64_t candidate = std::max(best[j], j == 0 ? 0 : cut[j]);
        packer.clear();
        for (std::size_t i = j; i < n && packer.add(order[i]); ++i) {
            if (candidate <= best[i + 1]) {
                best[i + 1] = candidate;
                parent[i + 1] = j;
            }
        }
    }
    if (best[n] == kInf) {
        throw std::runtime_error("dp_split: no feasible segmentation (an oversized MAT?)");
    }

    std::vector<std::size_t> boundaries;
    for (std::size_t i = n; i > 0; i = parent[i]) boundaries.push_back(parent[i]);
    std::reverse(boundaries.begin(), boundaries.end());
    boundaries.push_back(n);
    for (std::size_t k = 0; k + 1 < boundaries.size(); ++k) {
        result.segments.emplace_back(
            order.begin() + static_cast<std::ptrdiff_t>(boundaries[k]),
            order.begin() + static_cast<std::ptrdiff_t>(boundaries[k + 1]));
    }
    result.max_cut_bytes = best[n];
    return result;
}

}  // namespace hermes::core
