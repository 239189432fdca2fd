#include "core/incremental.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

namespace hermes::core {

std::optional<Deployment> incremental_deploy(const tdg::Tdg& combined,
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
    // the caller must re-solve (core/repair.h) before adding programs.
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

    // The surviving placements hold their stage loads, then the new MATs
    // first-fit around them in topological order.
    std::vector<StagePacker> packers;
    packers.reserve(chain.size());
    std::map<net::SwitchId, std::size_t> chain_index;
    for (std::size_t k = 0; k < chain.size(); ++k) {
        packers.emplace_back(net.props(chain[k]).stages, net.props(chain[k]).stage_capacity);
        chain_index[chain[k]] = k;
    }
    Deployment result;
    result.placements.resize(combined.node_count());
    std::copy(existing.placements.begin(), existing.placements.end(),
              result.placements.begin());
    result.routes = existing.routes;
    std::vector<bool> placed(combined.node_count(), false);
    for (tdg::NodeId v = 0; v < base_count; ++v) {
        const Placement& p = existing.placements[v];
        packers[chain_index.at(p.sw)].commit(p.stage, combined.node(v).resource_units());
        placed[v] = true;
    }
    if (!chain_first_fit(combined, topo, chain, packers, result, placed)) {
        return std::nullopt;  // residual capacity exhausted
    }

    // Routes for any newly crossing pairs.
    std::set<std::pair<net::SwitchId, net::SwitchId>> crossing;
    for (const tdg::Edge& e : combined.edges()) {
        const net::SwitchId u = result.switch_of(e.from);
        const net::SwitchId v2 = result.switch_of(e.to);
        if (u != v2) crossing.insert({u, v2});
    }
    for (const auto& [u, v2] : crossing) {
        if (result.routes.count({u, v2})) continue;
        auto path = oracle ? oracle->path(u, v2) : net::shortest_path(net, u, v2);
        if (!path) return std::nullopt;
        result.routes[{u, v2}] = std::move(*path);
    }
    return result;
}

}  // namespace hermes::core
