#include "baselines/common.h"

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
