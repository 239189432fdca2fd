#include "baselines/single_switch.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <set>

namespace hermes::baselines {

namespace {

using Clock = std::chrono::steady_clock;

// Topological order of `t` restricted to [begin, end).
std::vector<tdg::NodeId> range_topo(const tdg::Tdg& t, std::size_t begin, std::size_t end) {
    std::vector<tdg::NodeId> order;
    for (const tdg::NodeId v : t.topological_order()) {
        if (v >= begin && v < end) order.push_back(v);
    }
    return order;
}

// Stage floor per node imposed by dependencies from outside `nodes` that are
// already placed on the same switch.
std::vector<int> external_stage_floors(const tdg::Tdg& t,
                                       const std::vector<tdg::NodeId>& nodes,
                                       const core::Deployment& d,
                                       const std::vector<bool>& placed,
                                       net::SwitchId target) {
    const std::set<tdg::NodeId> members(nodes.begin(), nodes.end());
    std::vector<int> floors(nodes.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        for (const tdg::Edge& e : t.edges()) {
            if (e.to != nodes[i] || members.count(e.from) || !placed[e.from]) continue;
            if (d.placements[e.from].sw == target) {
                floors[i] = std::max(floors[i], d.placements[e.from].stage + 1);
            }
        }
    }
    return floors;
}

// First-fit packing of `nodes` into one packer (trial: packer passed by
// value); returns per-node stages or nullopt. `floors` gives each node's
// minimum stage from already-placed same-switch predecessors.
std::optional<std::vector<int>> first_fit_single(const tdg::Tdg& t,
                                                 const std::vector<tdg::NodeId>& nodes,
                                                 core::StagePacker packer,
                                                 const std::vector<int>& floors) {
    const std::set<tdg::NodeId> members(nodes.begin(), nodes.end());
    std::map<tdg::NodeId, int> stage_of;
    std::vector<int> out;
    out.reserve(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const tdg::NodeId v = nodes[i];
        int min_stage = floors[i];
        for (const tdg::Edge& e : t.edges()) {
            if (e.to != v || !members.count(e.from)) continue;
            const auto it = stage_of.find(e.from);
            if (it != stage_of.end()) min_stage = std::max(min_stage, it->second + 1);
        }
        const auto stage = packer.place(t.node(v).resource_units(), min_stage);
        if (!stage) return std::nullopt;
        stage_of[v] = *stage;
        out.push_back(*stage);
    }
    return out;
}

std::vector<double> remaining_capacities(const core::StagePacker& packer) {
    std::vector<double> rem;
    rem.reserve(packer.loads().size());
    for (const double l : packer.loads()) rem.push_back(packer.capacity() - l);
    return rem;
}

// core::chain_first_fit, throwing when the chain runs out of room.
void spill_along_chain(const tdg::Tdg& t, const std::vector<tdg::NodeId>& order,
                       const std::vector<net::SwitchId>& chain,
                       std::vector<core::StagePacker>& packers, core::Deployment& d,
                       std::vector<bool>& placed, std::size_t start_hint = 0) {
    if (core::chain_first_fit(t, order, chain, packers, d, placed, start_hint)) return;
    const auto stuck =
        std::find_if(order.begin(), order.end(), [&](tdg::NodeId v) { return !placed[v]; });
    throw std::runtime_error("chain_first_fit: switch chain exhausted at MAT '" +
                             t.node(*stuck).name() + "'");
}

}  // namespace

SingleSwitchStrategy::SingleSwitchStrategy(std::string name, SwitchPick pick)
    : name_(std::move(name)), pick_(pick) {}

StrategyOutcome SingleSwitchStrategy::deploy(const std::vector<prog::Program>& programs,
                                             const net::Network& net,
                                             const BaselineOptions& options) {
    try {
        return deploy_with_pick(programs, net, options, pick_);
    } catch (const std::runtime_error&) {
        if (pick_ == SwitchPick::kFirstFit) throw;
        // Best-fit scattering can strand later (conflict-ordered) programs
        // without forward capacity; degrade to first-fit placement.
        StrategyOutcome outcome =
            deploy_with_pick(programs, net, options, SwitchPick::kFirstFit);
        outcome.status += "(firstfit-fallback)";
        return outcome;
    }
}

StrategyOutcome SingleSwitchStrategy::deploy_with_pick(
    const std::vector<prog::Program>& programs, const net::Network& net,
    const BaselineOptions& options, SwitchPick pick) {
    const auto start = Clock::now();
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    StrategyOutcome outcome;
    outcome.merged = union_programs(programs, ranges);
    const tdg::Tdg& t = outcome.merged;

    const std::vector<net::SwitchId> chain = net.programmable_switches();
    if (chain.empty()) throw std::runtime_error(name_ + ": no programmable switches");
    std::vector<core::StagePacker> packers;
    for (const net::SwitchId u : chain) {
        packers.emplace_back(net.props(u).stages, net.props(u).stage_capacity);
    }

    core::Deployment d;
    d.placements.resize(t.node_count());
    std::vector<bool> placed(t.node_count(), false);
    bool used_ilp = false;

    std::map<net::SwitchId, std::size_t> chain_index;
    for (std::size_t k = 0; k < chain.size(); ++k) chain_index[chain[k]] = k;

    for (const auto& [begin, end] : ranges) {
        const std::vector<tdg::NodeId> nodes = range_topo(t, begin, end);

        // Cross-program dependencies (write conflicts on shared fields)
        // forbid switches that precede an already-placed predecessor.
        const std::set<tdg::NodeId> members(nodes.begin(), nodes.end());
        std::size_t min_index = 0;
        for (const tdg::Edge& e : t.edges()) {
            if (!members.count(e.to) || members.count(e.from) || !placed[e.from]) continue;
            min_index = std::max(min_index, chain_index.at(d.placements[e.from].sw));
        }

        // Candidate switch order: MS takes chain order, Sonata prefers the
        // switch with the most remaining capacity.
        std::vector<std::size_t> switch_order;
        for (std::size_t k = min_index; k < chain.size(); ++k) switch_order.push_back(k);
        if (pick == SwitchPick::kBestFit) {
            std::stable_sort(switch_order.begin(), switch_order.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return packers[a].remaining_total() >
                                        packers[b].remaining_total();
                             });
        }

        bool whole = false;
        for (const std::size_t k : switch_order) {
            const std::vector<int> floors =
                external_stage_floors(t, nodes, d, placed, chain[k]);
            auto trial = first_fit_single(t, nodes, packers[k], floors);
            if (!trial) continue;
            // Exact min-makespan packing via the ILP core; first-fit result
            // is the fallback when the solver hits its limits. The configured
            // MILP time limit is a *total* budget split across programs.
            if (options.use_ilp) {
                milp::MilpOptions per_program = options.milp;
                if (!per_program.sink) per_program.sink = options.sink;
                per_program.time_limit_seconds =
                    options.milp.time_limit_seconds / static_cast<double>(ranges.size());
                const auto exact = milp_pack(t, nodes, remaining_capacities(packers[k]),
                                             per_program, nullptr, floors);
                if (exact) trial = exact;
                used_ilp = true;
            }
            for (std::size_t i = 0; i < nodes.size(); ++i) {
                packers[k].commit((*trial)[i], t.node(nodes[i]).resource_units());
                d.placements[nodes[i]] = core::Placement{chain[k], (*trial)[i]};
                placed[nodes[i]] = true;
            }
            whole = true;
            break;
        }
        if (!whole) {
            // Spill the program node-by-node along the chain.
            spill_along_chain(t, nodes, chain, packers, d, placed, min_index);
        }
    }

    add_crossing_routes(t, net, d, options.oracle);
    outcome.deployment = std::move(d);
    outcome.solve_seconds = std::chrono::duration<double>(Clock::now() - start).count();
    outcome.status = used_ilp ? "ilp" : "heuristic";
    return outcome;
}

FirstFitByLevelStrategy::FirstFitByLevelStrategy(std::string name, LevelOrder order)
    : name_(std::move(name)), order_(order) {}

StrategyOutcome FirstFitByLevelStrategy::deploy(const std::vector<prog::Program>& programs,
                                                const net::Network& net,
                                                const BaselineOptions& options) {
    const auto start = Clock::now();
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    StrategyOutcome outcome;
    outcome.merged = union_programs(programs, ranges);
    const tdg::Tdg& t = outcome.merged;

    // Longest-path levels.
    std::vector<int> level(t.node_count(), 0);
    for (const tdg::NodeId v : t.topological_order()) {
        for (const tdg::Edge& e : t.edges()) {
            if (e.from == v) level[e.to] = std::max(level[e.to], level[v] + 1);
        }
    }
    std::vector<tdg::NodeId> order(t.node_count());
    std::iota(order.begin(), order.end(), tdg::NodeId{0});
    std::stable_sort(order.begin(), order.end(), [&](tdg::NodeId a, tdg::NodeId b) {
        if (level[a] != level[b]) return level[a] < level[b];
        if (order_ == LevelOrder::kBySizeDescending &&
            t.node(a).resource_units() != t.node(b).resource_units()) {
            return t.node(a).resource_units() > t.node(b).resource_units();
        }
        return a < b;
    });

    const std::vector<net::SwitchId> chain = net.programmable_switches();
    if (chain.empty()) throw std::runtime_error(name_ + ": no programmable switches");
    std::vector<core::StagePacker> packers;
    for (const net::SwitchId u : chain) {
        packers.emplace_back(net.props(u).stages, net.props(u).stage_capacity);
    }
    core::Deployment d;
    d.placements.resize(t.node_count());
    std::vector<bool> placed(t.node_count(), false);
    spill_along_chain(t, order, chain, packers, d, placed);

    add_crossing_routes(t, net, d, options.oracle);
    outcome.deployment = std::move(d);
    outcome.solve_seconds = std::chrono::duration<double>(Clock::now() - start).count();
    outcome.status = "heuristic";
    return outcome;
}

}  // namespace hermes::baselines
