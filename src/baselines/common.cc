#include "baselines/common.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "milp/lin.h"
#include "tdg/merge.h"

namespace hermes::baselines {

tdg::Tdg union_programs(const std::vector<prog::Program>& programs,
                        std::vector<std::pair<std::size_t, std::size_t>>& ranges) {
    if (programs.empty()) throw std::invalid_argument("union_programs: empty set");
    // Concurrent programs touching the same fields must still be ordered,
    // merging or not — each fold step adds the conflict edges.
    tdg::UnionFold fold;
    ranges.clear();
    for (const prog::Program& p : programs) {
        const std::size_t begin = fold.graph().node_count();
        fold.push(p.to_tdg());
        ranges.emplace_back(begin, fold.graph().node_count());
    }
    return std::move(fold).release();
}

StagePacker::StagePacker(int stages, double capacity)
    : load_(static_cast<std::size_t>(stages), 0.0), capacity_(capacity) {
    if (stages <= 0 || capacity <= 0.0) {
        throw std::invalid_argument("StagePacker: bad geometry");
    }
}

std::optional<int> StagePacker::find_slot(double resource, int min_stage) const {
    if (resource > capacity_ + 1e-9) return std::nullopt;
    for (int s = std::max(min_stage, 0); s < stages(); ++s) {
        if (load_[static_cast<std::size_t>(s)] + resource <= capacity_ + 1e-9) return s;
    }
    return std::nullopt;
}

std::optional<int> StagePacker::place(double resource, int min_stage) {
    const auto slot = find_slot(resource, min_stage);
    if (slot) commit(*slot, resource);
    return slot;
}

void StagePacker::commit(int stage, double resource) {
    if (stage < 0 || stage >= stages()) throw std::out_of_range("StagePacker::commit");
    load_[static_cast<std::size_t>(stage)] += resource;
}

double StagePacker::remaining_total() const noexcept {
    double total = 0.0;
    for (const double l : load_) total += capacity_ - l;
    return total;
}

void chain_first_fit(const tdg::Tdg& t, const std::vector<tdg::NodeId>& order,
                     const std::vector<net::SwitchId>& chain,
                     std::vector<StagePacker>& packers, core::Deployment& placements,
                     std::vector<bool>& placed, std::size_t start_hint) {
    if (packers.size() != chain.size()) {
        throw std::invalid_argument("chain_first_fit: packers/chain size mismatch");
    }
    if (placements.placements.size() != t.node_count()) {
        placements.placements.resize(t.node_count());
    }
    if (placed.size() != t.node_count()) placed.assign(t.node_count(), false);

    std::vector<std::size_t> chain_index(t.node_count(), 0);
    for (tdg::NodeId v = 0; v < t.node_count(); ++v) {
        if (!placed[v]) continue;
        const auto it = std::find(chain.begin(), chain.end(), placements.placements[v].sw);
        chain_index[v] = static_cast<std::size_t>(it - chain.begin());
    }

    // One edge pass: predecessor lists per node (this routine runs on
    // thousand-edge union TDGs; per-node edge rescans are the hot loop).
    std::vector<std::vector<tdg::NodeId>> preds(t.node_count());
    for (const tdg::Edge& e : t.edges()) preds[e.to].push_back(e.from);

    for (const tdg::NodeId v : order) {
        if (placed[v]) continue;
        // Earliest admissible chain position: after every placed predecessor.
        std::size_t first = start_hint;
        for (const tdg::NodeId p : preds[v]) {
            if (placed[p]) first = std::max(first, chain_index[p]);
        }
        bool done = false;
        for (std::size_t k = first; k < chain.size() && !done; ++k) {
            int min_stage = 0;
            for (const tdg::NodeId p : preds[v]) {
                if (placed[p] && chain_index[p] == k) {
                    min_stage =
                        std::max(min_stage, placements.placements[p].stage + 1);
                }
            }
            const auto stage = packers[k].place(t.node(v).resource_units(), min_stage);
            if (!stage) continue;
            placements.placements[v] = core::Placement{chain[k], *stage};
            chain_index[v] = k;
            placed[v] = true;
            done = true;
        }
        if (!done) {
            throw std::runtime_error("chain_first_fit: switch chain exhausted at MAT '" +
                                     t.node(v).name() + "'");
        }
    }
}

std::optional<std::vector<int>> milp_pack(const tdg::Tdg& t,
                                          const std::vector<tdg::NodeId>& nodes,
                                          const std::vector<double>& remaining,
                                          const milp::MilpOptions& options,
                                          std::int64_t* lp_iterations,
                                          const std::vector<int>& min_stages) {
    using milp::LinExpr;
    using milp::Sense;
    const int stages = static_cast<int>(remaining.size());
    if (stages <= 0) return std::nullopt;
    const std::set<tdg::NodeId> members(nodes.begin(), nodes.end());

    milp::Model model;
    // w[a][i]: node a sits in stage i.
    std::vector<std::vector<milp::VarId>> w(nodes.size());
    std::vector<LinExpr> stage_expr(nodes.size());
    for (std::size_t a = 0; a < nodes.size(); ++a) {
        LinExpr one;
        for (int i = 0; i < stages; ++i) {
            const milp::VarId v = model.add_binary("w_" + std::to_string(a) + "_" +
                                                   std::to_string(i));
            w[a].push_back(v);
            one += LinExpr::term(v);
            stage_expr[a] += LinExpr::term(v, static_cast<double>(i));
        }
        model.add_constraint(std::move(one), Sense::kEq, 1.0);
    }
    for (int i = 0; i < stages; ++i) {
        LinExpr load;
        for (std::size_t a = 0; a < nodes.size(); ++a) {
            load += LinExpr::term(w[a][static_cast<std::size_t>(i)],
                                  t.node(nodes[a]).resource_units());
        }
        model.add_constraint(std::move(load), Sense::kLe,
                             remaining[static_cast<std::size_t>(i)]);
    }
    std::map<tdg::NodeId, std::size_t> index;
    for (std::size_t a = 0; a < nodes.size(); ++a) index[nodes[a]] = a;
    for (const tdg::Edge& e : t.edges()) {
        if (!members.count(e.from) || !members.count(e.to)) continue;
        LinExpr order = stage_expr[index[e.from]] - stage_expr[index[e.to]];
        model.add_constraint(std::move(order), Sense::kLe, -1.0);
    }
    if (!min_stages.empty()) {
        if (min_stages.size() != nodes.size()) {
            throw std::invalid_argument("milp_pack: min_stages size mismatch");
        }
        for (std::size_t a = 0; a < nodes.size(); ++a) {
            if (min_stages[a] <= 0) continue;
            if (min_stages[a] >= stages) return std::nullopt;  // floor beyond pipeline
            model.add_constraint(stage_expr[a], milp::Sense::kGe,
                                 static_cast<double>(min_stages[a]));
        }
    }
    const milp::VarId makespan =
        model.add_continuous(0.0, static_cast<double>(stages), "makespan");
    for (std::size_t a = 0; a < nodes.size(); ++a) {
        model.add_constraint(LinExpr::term(makespan) - stage_expr[a], Sense::kGe, 0.0);
    }
    model.minimize(LinExpr::term(makespan));

    const milp::MilpResult result = milp::solve_milp(model, options);
    if (lp_iterations) *lp_iterations += result.lp_iterations;
    if (!result.has_solution()) return std::nullopt;

    std::vector<int> out(nodes.size(), 0);
    for (std::size_t a = 0; a < nodes.size(); ++a) {
        for (int i = 0; i < stages; ++i) {
            if (result.values[static_cast<std::size_t>(w[a][static_cast<std::size_t>(i)])] >
                0.5) {
                out[a] = i;
                break;
            }
        }
    }
    return out;
}

void add_crossing_routes(const tdg::Tdg& t, const net::Network& net, core::Deployment& d,
                         net::PathOracle* oracle) {
    std::set<std::pair<net::SwitchId, net::SwitchId>> crossing;
    for (const tdg::Edge& e : t.edges()) {
        const net::SwitchId u = d.switch_of(e.from);
        const net::SwitchId v = d.switch_of(e.to);
        if (u != v) crossing.insert({u, v});
    }
    for (const auto& [u, v] : crossing) {
        if (d.routes.count({u, v})) continue;
        auto path = oracle ? oracle->path(u, v) : net::shortest_path(net, u, v);
        if (!path) {
            throw std::runtime_error("add_crossing_routes: switches " +
                                     net.props(u).name + " and " + net.props(v).name +
                                     " are disconnected");
        }
        d.routes[{u, v}] = std::move(*path);
    }
}

}  // namespace hermes::baselines
