#include "core/greedy.h"

#include "core/dp_split.h"
#include "core/objective.h"
#include "obs/obs.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

namespace hermes::core {

namespace {

// Adjacency-indexed view of the TDG: per-node out-/in-edge lists plus the
// node's position in the global topological order. Built once per splitting
// or coalescing call, it replaces the full-edge-list rescans the original
// implementations performed at every prefix position / adjacent pair.
struct TdgIndex {
    struct Arc {
        tdg::NodeId peer = 0;
        int bytes = 0;
    };
    std::vector<std::size_t> topo_pos;  // node -> position in topological order
    std::vector<std::vector<Arc>> out;
    std::vector<std::vector<Arc>> in;

    explicit TdgIndex(const tdg::Tdg& t)
        : topo_pos(t.node_count()), out(t.node_count()), in(t.node_count()) {
        const std::vector<tdg::NodeId> topo = t.topological_order();
        for (std::size_t i = 0; i < topo.size(); ++i) topo_pos[topo[i]] = i;
        for (const tdg::Edge& e : t.edges()) {
            out[e.from].push_back({e.to, e.metadata_bytes});
            in[e.to].push_back({e.from, e.metadata_bytes});
        }
    }

    // Sorting by topological position equals filtering the global order by
    // membership (both deterministic), without the O(V) full-order scan.
    void sort_topologically(std::vector<tdg::NodeId>& nodes) const {
        std::sort(nodes.begin(), nodes.end(), [&](tdg::NodeId a, tdg::NodeId b) {
            return topo_pos[a] < topo_pos[b];
        });
    }
};

// The reference geometry for splitting/coalescing: the most capacious
// programmable switch (per-switch fit checks re-validate each concrete
// placement, so a generous reference never over-fragments).
const net::SwitchProps& reference_geometry(const net::Network& net,
                                           const std::vector<net::SwitchId>& programmable) {
    const net::SwitchProps* best = &net.props(programmable.front());
    for (const net::SwitchId u : programmable) {
        const net::SwitchProps& props = net.props(u);
        if (props.stages * props.stage_capacity > best->stages * best->stage_capacity) {
            best = &props;
        }
    }
    return *best;
}

// Recursive worker of split_tdg. `member` and `in_prefix` are node-indexed
// scratch flags owned by the top-level call; they are zero outside the
// nodes this invocation touches and zeroed again before it returns or
// recurses, so one allocation serves the whole recursion tree. One split
// level costs O(k log k + Σ deg) for k nodes instead of O(k·E).
void split_worker(const tdg::Tdg& t, const TdgIndex& index,
                  std::vector<tdg::NodeId> nodes, int stages, double stage_capacity,
                  std::vector<char>& member, std::vector<char>& in_prefix,
                  std::vector<std::vector<tdg::NodeId>>& result) {
    if (nodes.empty()) return;
    if (segment_fits(t, nodes, stages, stage_capacity)) {
        result.push_back(std::move(nodes));
        return;
    }
    if (nodes.size() < 2) {
        throw std::runtime_error("split_tdg: MAT '" + t.node(nodes.front()).name() +
                                 "' cannot fit any switch");
    }

    index.sort_topologically(nodes);
    for (const tdg::NodeId v : nodes) member[v] = 1;

    // Scan prefix cuts in topological order, maintaining the crossing
    // metadata incrementally; keep the earliest minimum (as Algorithm 2's
    // strict-< update does).
    std::int64_t cut = 0;
    std::int64_t best_cut = std::numeric_limits<std::int64_t>::max();
    std::size_t best_pos = 1;
    for (std::size_t pos = 0; pos + 1 < nodes.size(); ++pos) {
        const tdg::NodeId x = nodes[pos];
        for (const TdgIndex::Arc& a : index.out[x]) {
            if (member[a.peer] && !in_prefix[a.peer]) cut += a.bytes;
        }
        for (const TdgIndex::Arc& a : index.in[x]) {
            if (in_prefix[a.peer]) cut -= a.bytes;
        }
        in_prefix[x] = 1;
        if (cut < best_cut) {
            best_cut = cut;
            best_pos = pos + 1;
        }
    }
    for (const tdg::NodeId v : nodes) {
        member[v] = 0;
        in_prefix[v] = 0;
    }

    std::vector<tdg::NodeId> head(nodes.begin(),
                                  nodes.begin() + static_cast<std::ptrdiff_t>(best_pos));
    std::vector<tdg::NodeId> tail(nodes.begin() + static_cast<std::ptrdiff_t>(best_pos),
                                  nodes.end());
    split_worker(t, index, std::move(head), stages, stage_capacity, member, in_prefix,
                 result);
    split_worker(t, index, std::move(tail), stages, stage_capacity, member, in_prefix,
                 result);
}

// Reports a privately created oracle's cache activity (it starts at zero,
// so the totals are the call's own); shared oracles are reported by their
// creator instead (see core/hermes.cc).
void flush_local_oracle_stats(obs::Sink* sink, const net::PathOracle& oracle) {
    if (sink == nullptr) return;
    const net::PathOracle::Stats s = oracle.stats();
    sink->counter("oracle.tree_hits").add(static_cast<std::int64_t>(s.tree_hits));
    sink->counter("oracle.tree_misses").add(static_cast<std::int64_t>(s.tree_misses));
    sink->counter("oracle.k_hits").add(static_cast<std::int64_t>(s.k_hits));
    sink->counter("oracle.k_misses").add(static_cast<std::int64_t>(s.k_misses));
}

}  // namespace

std::vector<std::vector<tdg::NodeId>> split_tdg(const tdg::Tdg& t,
                                                std::vector<tdg::NodeId> nodes, int stages,
                                                double stage_capacity) {
    if (nodes.empty()) return {};
    const TdgIndex index(t);
    std::vector<char> member(t.node_count(), 0);
    std::vector<char> in_prefix(t.node_count(), 0);
    std::vector<std::vector<tdg::NodeId>> result;
    split_worker(t, index, std::move(nodes), stages, stage_capacity, member, in_prefix,
                 result);
    return result;
}

std::vector<std::vector<tdg::NodeId>> split_tdg_first_fit(const tdg::Tdg& t,
                                                          std::vector<tdg::NodeId> nodes,
                                                          int stages,
                                                          double stage_capacity) {
    if (nodes.empty()) return {};
    const TdgIndex index(t);
    index.sort_topologically(nodes);

    // Packing never moves a node already packed, so growing the open segment
    // node by node equals re-packing it whole at each step.
    SegmentPacker packer(t, stages, stage_capacity);
    std::vector<std::vector<tdg::NodeId>> segments;
    std::vector<tdg::NodeId> current;
    for (const tdg::NodeId v : nodes) {
        if (!packer.add(v)) {
            if (!current.empty()) segments.push_back(std::exchange(current, {}));
            packer.clear();
            if (!packer.add(v)) {
                throw std::runtime_error("split_tdg_first_fit: MAT '" + t.node(v).name() +
                                         "' cannot fit any switch");
            }
        }
        current.push_back(v);
    }
    if (!current.empty()) segments.push_back(std::move(current));
    return segments;
}

std::vector<std::vector<tdg::NodeId>> coalesce_segments(
    const tdg::Tdg& t, std::vector<std::vector<tdg::NodeId>> segments, std::size_t target,
    int stages, double stage_capacity) {
    if (segments.size() <= target) return segments;
    const TdgIndex index(t);
    constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> seg_of(t.node_count(), kNone);
    for (std::size_t i = 0; i < segments.size(); ++i) {
        for (const tdg::NodeId v : segments[i]) seg_of[v] = i;
    }

    auto cut_after = [&](std::size_t i) {  // metadata from segment i into i+1
        std::int64_t bytes = 0;
        for (const tdg::NodeId v : segments[i]) {
            for (const TdgIndex::Arc& a : index.out[v]) {
                if (seg_of[a.peer] == i + 1) bytes += a.bytes;
            }
        }
        return bytes;
    };
    auto pair_fits = [&](std::size_t i) {
        std::vector<tdg::NodeId> merged = segments[i];
        merged.insert(merged.end(), segments[i + 1].begin(), segments[i + 1].end());
        return segment_fits(t, merged, stages, stage_capacity);
    };

    // Adjacent-pair metadata and mergeability, cached: a merge only changes
    // the pairs touching the merged segment, so each round recomputes at
    // most two entries instead of rescanning every edge for every pair.
    std::vector<std::int64_t> cut(segments.size() - 1, 0);
    std::vector<char> fits(segments.size() - 1, 0);
    for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
        cut[i] = cut_after(i);
        fits[i] = pair_fits(i) ? 1 : 0;
    }

    while (segments.size() > target) {
        // Prefer erasing the heaviest adjacent cut: that metadata stops
        // crossing switches entirely. Earliest pair wins ties (strict >).
        std::size_t best = kNone;
        std::int64_t best_cut = 0;
        for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
            if (!fits[i]) continue;
            if (best == kNone || cut[i] > best_cut) {
                best = i;
                best_cut = cut[i];
            }
        }
        if (best == kNone) break;  // nothing mergeable
        segments[best].insert(segments[best].end(), segments[best + 1].begin(),
                              segments[best + 1].end());
        segments.erase(segments.begin() + static_cast<std::ptrdiff_t>(best) + 1);
        cut.erase(cut.begin() + static_cast<std::ptrdiff_t>(best));
        fits.erase(fits.begin() + static_cast<std::ptrdiff_t>(best));
        for (std::size_t i = best; i < segments.size(); ++i) {
            for (const tdg::NodeId v : segments[i]) seg_of[v] = i;
        }
        if (best > 0) {
            cut[best - 1] = cut_after(best - 1);
            fits[best - 1] = pair_fits(best - 1) ? 1 : 0;
        }
        if (best + 1 < segments.size()) {
            cut[best] = cut_after(best);
            fits[best] = pair_fits(best) ? 1 : 0;
        }
    }
    return segments;
}

std::vector<net::SwitchId> select_switches(const net::Network& net, net::SwitchId anchor,
                                           const GreedyOptions& options,
                                           net::PathOracle* oracle) {
    if (anchor >= net.switch_count() || !net.props(anchor).programmable) {
        throw std::invalid_argument("select_switches: anchor must be programmable");
    }
    std::vector<double> local_dist;
    const std::vector<double>* dist;
    if (oracle) {
        dist = &oracle->latencies(anchor);
    } else {
        local_dist = net::shortest_latencies(net, anchor);
        dist = &local_dist;
    }

    std::vector<net::SwitchId> candidates;
    for (const net::SwitchId u : net.programmable_switches()) {
        if (u != anchor && std::isfinite((*dist)[u])) candidates.push_back(u);
    }
    std::sort(candidates.begin(), candidates.end(), [&](net::SwitchId a, net::SwitchId b) {
        if ((*dist)[a] != (*dist)[b]) return (*dist)[a] < (*dist)[b];
        return a < b;
    });

    std::vector<net::SwitchId> chain{anchor};
    double chain_latency = 0.0;
    for (const net::SwitchId u : candidates) {
        if (static_cast<std::int64_t>(chain.size()) >= options.epsilon2) break;
        double hop;
        if (oracle) {
            hop = oracle->path_latency(chain.back(), u);
        } else {
            const auto p = net::shortest_path(net, chain.back(), u);
            hop = p ? p->latency_us : std::numeric_limits<double>::infinity();
        }
        if (!std::isfinite(hop)) continue;
        if (chain_latency + hop > options.epsilon1) break;
        chain_latency += hop;
        chain.push_back(u);
    }
    return chain;
}

GreedyResult deploy_segments_on_chain(const tdg::Tdg& t, const net::Network& net,
                                      std::vector<std::vector<tdg::NodeId>> segments,
                                      const GreedyOptions& options,
                                      net::PathOracle* oracle) {
    const std::vector<net::SwitchId> programmable = net.programmable_switches();
    if (programmable.empty()) {
        throw std::runtime_error("greedy_deploy: no programmable switches");
    }
    std::optional<net::PathOracle> local_oracle;
    if (!oracle) {
        local_oracle.emplace(net);
        oracle = &*local_oracle;
    }

    // Fewer switches than segments can ever get: coalesce once against the
    // common geometry (per-anchor re-coalescing would repeat the expensive
    // merge scans dozens of times for the same target).
    const std::size_t max_chain = std::min<std::size_t>(
        programmable.size(),
        options.epsilon2 < static_cast<std::int64_t>(programmable.size())
            ? static_cast<std::size_t>(options.epsilon2)
            : programmable.size());
    if (segments.size() > max_chain) {
        obs::Span span(options.sink, "greedy.coalesce");
        const net::SwitchProps& geometry = reference_geometry(net, programmable);
        segments = coalesce_segments(t, std::move(segments), max_chain, geometry.stages,
                                     geometry.stage_capacity);
    }

    // Segment-fit memo shared by every anchor: all Tofino-profile switches
    // ask the same (stages, capacity) question per segment, so each answer
    // is packed once instead of once per anchor. Duplicate computation
    // under contention is harmless (the answer is deterministic).
    std::map<std::pair<int, double>, std::vector<signed char>> fit_cache;
    std::mutex fit_mutex;
    auto segment_fits_cached = [&](std::size_t seg, int stages, double capacity) {
        {
            std::lock_guard lock(fit_mutex);
            std::vector<signed char>& slot = fit_cache[{stages, capacity}];
            if (slot.empty()) slot.assign(segments.size(), -1);
            if (slot[seg] >= 0) return slot[seg] == 1;
        }
        const bool ok = segment_fits(t, segments[seg], stages, capacity);
        {
            std::lock_guard lock(fit_mutex);
            fit_cache[{stages, capacity}][seg] = ok ? 1 : 0;
        }
        return ok;
    };

    // Pick the feasible anchor whose chain has the lowest total latency;
    // ties fall to the lowest anchor id — exactly the winner the serial
    // ascending-anchor scan with a strict-< update would keep, so the
    // parallel search is deterministic at any thread count.
    struct Candidate {
        bool feasible = false;
        double latency = std::numeric_limits<double>::infinity();
        net::SwitchId anchor = std::numeric_limits<net::SwitchId>::max();
        std::vector<net::SwitchId> chain;
    };
    auto better = [](const Candidate& a, const Candidate& b) {
        if (a.feasible != b.feasible) return a.feasible;
        if (a.latency != b.latency) return a.latency < b.latency;
        return a.anchor < b.anchor;
    };
    auto evaluate = [&](net::SwitchId u) {
        Candidate c;
        c.anchor = u;
        std::vector<net::SwitchId> chain = select_switches(net, u, options, oracle);
        if (chain.size() < segments.size()) return c;
        chain.resize(segments.size());
        double latency = 0.0;
        for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
            const double hop = oracle->path_latency(chain[i], chain[i + 1]);
            if (!std::isfinite(hop)) return c;
            latency += hop;
        }
        for (std::size_t i = 0; i < segments.size(); ++i) {
            if (!segment_fits_cached(i, net.props(chain[i]).stages,
                                     net.props(chain[i]).stage_capacity)) {
                return c;
            }
        }
        c.feasible = true;
        c.latency = latency;
        c.chain = std::move(chain);
        return c;
    };

    const int threads =
        std::min<int>(options.resolved_threads(), static_cast<int>(programmable.size()));

    // An active deadline token truncates the anchor scan to the best chain
    // found so far (trading the full deterministic sweep for a prompt exit);
    // without one the scan is exhaustive and deterministic at any thread
    // count.
    obs::Span search_span(options.sink, "greedy.anchor_search");
    std::atomic<std::int64_t> feasible_count{0};
    Candidate best;
    if (threads <= 1) {
        for (const net::SwitchId u : programmable) {
            if (options.deadline.expired()) break;
            Candidate c = evaluate(u);
            if (c.feasible) feasible_count.fetch_add(1, std::memory_order_relaxed);
            if (better(c, best)) best = std::move(c);
        }
    } else {
        std::atomic<std::size_t> next{0};
        std::mutex merge_mutex;
        {
            std::vector<std::jthread> workers;
            workers.reserve(static_cast<std::size_t>(threads));
            for (int w = 0; w < threads; ++w) {
                workers.emplace_back([&] {
                    Candidate local;
                    for (std::size_t i = next.fetch_add(1); i < programmable.size();
                         i = next.fetch_add(1)) {
                        if (options.deadline.expired()) break;
                        Candidate c = evaluate(programmable[i]);
                        if (c.feasible) feasible_count.fetch_add(1, std::memory_order_relaxed);
                        if (better(c, local)) local = std::move(c);
                    }
                    std::lock_guard lock(merge_mutex);
                    if (better(local, best)) best = std::move(local);
                });
            }
        }
    }
    search_span.end();
    if (obs::Sink* sink = options.sink) {
        sink->counter("greedy.segments").add(static_cast<std::int64_t>(segments.size()));
        sink->counter("greedy.anchors_tried")
            .add(static_cast<std::int64_t>(programmable.size()));
        sink->counter("greedy.anchors_feasible").add(feasible_count.load());
    }
    if (!best.feasible) {
        throw std::runtime_error(
            "greedy_deploy: no anchor yields enough programmable switches for " +
            std::to_string(segments.size()) + " segments under the epsilon bounds");
    }

    GreedyResult result;
    result.segments = std::move(segments);
    result.anchor = best.anchor;
    result.deployment.placements.resize(t.node_count());
    for (std::size_t i = 0; i < result.segments.size(); ++i) {
        const net::SwitchId sw = best.chain[i];
        const auto stages = assign_stages(t, result.segments[i], net.props(sw).stages,
                                          net.props(sw).stage_capacity);
        if (!stages) {
            throw std::runtime_error("greedy_deploy: stage assignment failed on switch " +
                                     net.props(sw).name);
        }
        for (std::size_t j = 0; j < result.segments[i].size(); ++j) {
            result.deployment.placements[result.segments[i][j]] =
                Placement{sw, (*stages)[j]};
        }
    }
    for (std::size_t i = 0; i + 1 < best.chain.size(); ++i) {
        const net::SwitchId u = best.chain[i];
        const net::SwitchId v = best.chain[i + 1];
        auto path = oracle->path(u, v);
        result.deployment.routes[{u, v}] = std::move(*path);
    }
    if (local_oracle) flush_local_oracle_stats(options.sink, *local_oracle);
    return result;
}

GreedyResult greedy_deploy(const tdg::Tdg& t, const net::Network& net,
                           const GreedyOptions& options, net::PathOracle* oracle) {
    const std::vector<net::SwitchId> programmable = net.programmable_switches();
    if (programmable.empty()) {
        throw std::runtime_error("greedy_deploy: no programmable switches");
    }
    std::optional<net::PathOracle> local_oracle;
    if (!oracle) {
        local_oracle.emplace(net);
        oracle = &*local_oracle;
    }
    // Split against the reference switch geometry (all programmable switches
    // in the paper's settings share the Tofino profile; with heterogeneous
    // geometry the per-anchor fit check re-validates).
    const net::SwitchProps& reference = reference_geometry(net, programmable);
    std::vector<tdg::NodeId> all_nodes(t.node_count());
    for (tdg::NodeId v = 0; v < t.node_count(); ++v) all_nodes[v] = v;
    std::vector<std::vector<tdg::NodeId>> segments;
    {
        obs::Span span(options.sink, "greedy.split");
        segments = split_tdg(t, std::move(all_nodes), reference.stages,
                             reference.stage_capacity);
    }

    // Refinement (DESIGN.md §5b): the recursive cut is not balance-aware and
    // can over-fragment; on small instances the exact DP segmentation is
    // cheap, so deploy both and keep the one with the lower max pair
    // metadata. Algorithm 2's split remains the scalable default.
    constexpr std::size_t kDpRefinementLimit = 250;
    std::optional<GreedyResult> best;
    try {
        best = deploy_segments_on_chain(t, net, std::move(segments), options, oracle);
    } catch (const std::runtime_error&) {
        // Fall through: the DP segmentation may still be feasible.
    }
    const bool refine = t.node_count() <= kDpRefinementLimit;
    bool refinement_kept = false;
    if (refine) {
        try {
            std::vector<std::vector<tdg::NodeId>> dp_segments;
            {
                obs::Span span(options.sink, "greedy.dp_split");
                dp_segments =
                    dp_split(t, reference.stages, reference.stage_capacity).segments;
            }
            GreedyResult refined =
                deploy_segments_on_chain(t, net, std::move(dp_segments), options, oracle);
            if (!best || max_pair_metadata(t, refined.deployment) <
                             max_pair_metadata(t, best->deployment)) {
                best = std::move(refined);
                refinement_kept = true;
            }
        } catch (const std::runtime_error&) {
            // DP infeasible under these bounds; keep the recursive result.
        }
    }
    if (obs::Sink* sink = options.sink) {
        sink->counter("greedy.dp_refinements").add(refine ? 1 : 0);
        sink->counter("greedy.dp_wins").add(refinement_kept ? 1 : 0);
    }
    if (!best) {
        throw std::runtime_error(
            "greedy_deploy: no anchor yields enough programmable switches under the "
            "epsilon bounds");
    }
    if (local_oracle) flush_local_oracle_stats(options.sink, *local_oracle);
    return std::move(*best);
}

}  // namespace hermes::core
