#include "core/incremental.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "core/objective.h"

namespace hermes::core {

std::optional<IncrementalResult> incremental_deploy(const tdg::Tdg& combined,
                                                    std::size_t base_count,
                                                    const Deployment& existing,
                                                    const net::Network& net,
                                                    net::PathOracle* oracle) {
    if (existing.placements.size() != base_count || base_count > combined.node_count()) {
        throw std::invalid_argument("incremental_deploy: base/deployment shape mismatch");
    }
    // A new MAT ordered before an old one cannot be placed without moving
    // the old one: bail out.
    for (const tdg::Edge& e : combined.edges()) {
        if (e.from >= base_count && e.to < base_count) return std::nullopt;
    }
    // An existing placement on a failed switch cannot be extended in place;
    // the caller must repair (core/repair.h) before adding programs.
    for (const Placement& p : existing.placements) {
        if (p.sw < net.switch_count() && !net.switch_up(p.sw)) return std::nullopt;
    }

    // Chain: the existing traversal order followed by untouched programmable
    // switches (nearest-first to the chain tail would need a metric; id
    // order keeps it deterministic).
    const std::vector<tdg::NodeId> topo = combined.topological_order();
    std::vector<net::SwitchId> chain;
    if (base_count > 0) {
        // Order the occupied switches by the earliest topological position
        // of an old node on them (the placements cover the prefix only).
        std::map<net::SwitchId, std::size_t> first_pos;
        std::vector<std::size_t> pos(combined.node_count());
        for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
        for (tdg::NodeId v = 0; v < base_count; ++v) {
            const net::SwitchId u = existing.placements[v].sw;
            const auto it = first_pos.find(u);
            if (it == first_pos.end() || pos[v] < it->second) first_pos[u] = pos[v];
        }
        chain.reserve(first_pos.size());
        for (const auto& [u, p] : first_pos) chain.push_back(u);
        std::sort(chain.begin(), chain.end(), [&](net::SwitchId a, net::SwitchId b) {
            return first_pos.at(a) < first_pos.at(b);
        });
    }
    for (const net::SwitchId u : net.programmable_switches()) {
        if (std::find(chain.begin(), chain.end(), u) == chain.end()) chain.push_back(u);
    }
    if (chain.empty()) return std::nullopt;

    // Residual per-switch stage loads from the existing placements.
    std::map<net::SwitchId, std::vector<double>> load;
    for (const net::SwitchId u : chain) {
        load[u].assign(static_cast<std::size_t>(net.props(u).stages), 0.0);
    }
    for (tdg::NodeId v = 0; v < base_count; ++v) {
        const Placement& p = existing.placements[v];
        load[p.sw][static_cast<std::size_t>(p.stage)] += combined.node(v).resource_units();
    }

    IncrementalResult result;
    result.deployment.placements.resize(combined.node_count());
    std::copy(existing.placements.begin(), existing.placements.end(),
              result.deployment.placements.begin());
    result.deployment.routes = existing.routes;

    std::map<net::SwitchId, std::size_t> chain_index;
    for (std::size_t i = 0; i < chain.size(); ++i) chain_index[chain[i]] = i;

    // Each new MAT's predecessors, in edge order, looked up once. The walk
    // below is topological, so all of them are placed when the MAT is.
    std::vector<std::vector<tdg::NodeId>> predecessors(combined.node_count() - base_count);
    for (const tdg::Edge& e : combined.edges()) {
        if (e.to >= base_count) predecessors[e.to - base_count].push_back(e.from);
    }

    for (const tdg::NodeId v : topo) {
        if (v < base_count) continue;
        const std::vector<tdg::NodeId>& preds = predecessors[v - base_count];
        std::size_t first = 0;
        for (const tdg::NodeId p : preds) {
            first = std::max(first, chain_index.at(result.deployment.placements[p].sw));
        }
        const double need = combined.node(v).resource_units();
        bool done = false;
        for (std::size_t k = first; k < chain.size() && !done; ++k) {
            const net::SwitchId u = chain[k];
            int min_stage = 0;
            for (const tdg::NodeId p : preds) {
                if (result.deployment.placements[p].sw == u) {
                    min_stage = std::max(min_stage, result.deployment.placements[p].stage + 1);
                }
            }
            std::vector<double>& stages = load.at(u);
            for (std::size_t s = static_cast<std::size_t>(std::max(min_stage, 0));
                 s < stages.size() && !done; ++s) {
                if (stages[s] + need > net.props(u).stage_capacity + 1e-9) continue;
                stages[s] += need;
                result.deployment.placements[v] = Placement{u, static_cast<int>(s)};
                done = true;
            }
        }
        if (!done) return std::nullopt;  // residual capacity exhausted
    }

    // Routes for any newly crossing pairs.
    std::set<std::pair<net::SwitchId, net::SwitchId>> crossing;
    for (const tdg::Edge& e : combined.edges()) {
        const net::SwitchId u = result.deployment.switch_of(e.from);
        const net::SwitchId v2 = result.deployment.switch_of(e.to);
        if (u != v2) crossing.insert({u, v2});
    }
    for (const auto& [u, v2] : crossing) {
        if (result.deployment.routes.count({u, v2})) continue;
        auto path = oracle ? oracle->path(u, v2) : net::shortest_path(net, u, v2);
        if (!path) return std::nullopt;
        result.deployment.routes[{u, v2}] = std::move(*path);
    }

    // Overhead delta: combined deployment vs the old nodes alone.
    std::int64_t old_overhead = 0;
    {
        std::map<std::pair<net::SwitchId, net::SwitchId>, std::int64_t> pair_bytes;
        for (const tdg::Edge& e : combined.edges()) {
            if (e.from >= base_count || e.to >= base_count) continue;
            const net::SwitchId u = existing.switch_of(e.from);
            const net::SwitchId w = existing.switch_of(e.to);
            if (u != w) pair_bytes[{u, w}] += e.metadata_bytes;
        }
        for (const auto& [p, b] : pair_bytes) old_overhead = std::max(old_overhead, b);
    }
    result.added_overhead_bytes =
        max_pair_metadata(combined, result.deployment) - old_overhead;
    return result;
}

}  // namespace hermes::core
