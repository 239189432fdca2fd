#include "core/hermes.h"

#include <chrono>

#include "obs/obs.h"
#include "tdg/analyzer.h"

namespace hermes::core {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

GreedyOptions greedy_options_from(const HermesOptions& options) {
    GreedyOptions g;
    static_cast<CommonOptions&>(g) = static_cast<const CommonOptions&>(options);
    g.epsilon1 = options.epsilon1;
    g.epsilon2 = options.epsilon2;
    return g;
}

// Counts the shared oracle's cache activity during one deploy call as the
// delta against the entry snapshot; privately created oracles report their
// own stats where they are created (greedy.cc), so nothing double-counts.
class OracleStatsScope {
public:
    OracleStatsScope(obs::Sink* sink, const net::PathOracle* oracle)
        : sink_(sink), oracle_(oracle) {
        if (sink_ && oracle_) before_ = oracle_->stats();
    }
    ~OracleStatsScope() {
        if (!sink_ || !oracle_) return;
        const net::PathOracle::Stats after = oracle_->stats();
        sink_->counter("oracle.tree_hits")
            .add(static_cast<std::int64_t>(after.tree_hits - before_.tree_hits));
        sink_->counter("oracle.tree_misses")
            .add(static_cast<std::int64_t>(after.tree_misses - before_.tree_misses));
        sink_->counter("oracle.k_hits")
            .add(static_cast<std::int64_t>(after.k_hits - before_.k_hits));
        sink_->counter("oracle.k_misses")
            .add(static_cast<std::int64_t>(after.k_misses - before_.k_misses));
    }
    OracleStatsScope(const OracleStatsScope&) = delete;
    OracleStatsScope& operator=(const OracleStatsScope&) = delete;

private:
    obs::Sink* sink_;
    const net::PathOracle* oracle_;
    net::PathOracle::Stats before_;
};
}  // namespace

tdg::Tdg analyze(const std::vector<prog::Program>& programs, obs::Sink* sink) {
    obs::Span span(sink, "analyze");
    std::vector<tdg::Tdg> tdgs;
    tdgs.reserve(programs.size());
    for (const prog::Program& p : programs) tdgs.push_back(p.to_tdg());
    return tdg::analyze_programs(std::move(tdgs), sink);
}

util::StatusOr<DeployOutcome> try_deploy_greedy(const tdg::Tdg& t,
                                                const net::Network& net,
                                                const HermesOptions& options) {
    const auto start = Clock::now();
    obs::Span span(options.sink, "deploy_greedy");
    OracleStatsScope oracle_stats(options.sink, options.oracle);
    GreedyResult g;
    try {
        g = greedy_deploy(t, net, greedy_options_from(options), options.oracle);
    } catch (const std::runtime_error& ex) {
        // Algorithm 2 signals infeasibility (no anchor yields enough
        // switches, a MAT exceeds a stage) by throwing; surface it as a
        // status so resident sessions never unwind across the engine.
        return util::Status::infeasible(ex.what());
    }
    DeployOutcome outcome;
    outcome.deployment = std::move(g.deployment);
    outcome.solve_seconds = seconds_since(start);
    outcome.metrics = evaluate(t, net, outcome.deployment);
    outcome.solver_status = "greedy";
    return outcome;
}

util::StatusOr<DeployOutcome> try_deploy_optimal(const tdg::Tdg& t,
                                                 const net::Network& net,
                                                 const HermesOptions& options) {
    const auto start = Clock::now();
    obs::Span span(options.sink, "deploy_optimal");
    OracleStatsScope oracle_stats(options.sink, options.oracle);
    if (net.programmable_switches().empty()) {
        // P1 has no candidate switch to place on (every one failed, say).
        return util::Status::infeasible("deploy_optimal: no live programmable switch");
    }
    FormulationOptions fopts;
    static_cast<CommonOptions&>(fopts) = static_cast<const CommonOptions&>(options);
    fopts.epsilon1 = options.epsilon1;
    fopts.epsilon2 = options.epsilon2;
    fopts.k_paths = options.k_paths;
    fopts.candidate_limit = options.candidate_limit;
    fopts.segment_level = options.segment_level_milp;
    fopts.oracle = options.oracle;

    std::optional<P1Formulation> maybe_formulation;
    try {
        obs::Span fspan(options.sink, "formulation");
        maybe_formulation.emplace(t, net, fopts);
    } catch (const std::runtime_error&) {
        // Instance beyond exact reach (the regime where the paper's Gurobi
        // runs exceed their two-hour budget): return the best incumbent we
        // can produce — the greedy solution — flagged as a time-limit hit.
        util::StatusOr<DeployOutcome> greedy = try_deploy_greedy(t, net, options);
        if (!greedy.ok()) return greedy;
        DeployOutcome outcome = std::move(greedy).value();
        outcome.solve_seconds =
            std::max(seconds_since(start), options.milp.time_limit_seconds);
        outcome.solver_status = "time-limit(model)";
        return outcome;
    }
    P1Formulation& formulation = *maybe_formulation;

    milp::MilpOptions milp_options = options.milp;
    if (!milp_options.sink) milp_options.sink = options.sink;
    // The facade's cancellation token reaches the branch and bound (and its
    // node LPs) unless the caller armed a MILP-specific one.
    if (!milp_options.deadline.active()) milp_options.deadline = options.deadline;
    if (options.warm_start_from_greedy && !milp_options.warm_start) {
        util::StatusOr<DeployOutcome> greedy = try_deploy_greedy(t, net, options);
        if (greedy.ok()) {
            milp_options.warm_start = formulation.encode(greedy.value().deployment);
        }
        // No greedy incumbent: branch and bound starts cold.
    }

    milp::MilpResult result;
    {
        obs::Span mspan(options.sink, "milp.solve");
        result = milp::solve_milp(formulation.model(), milp_options);
    }
    if (!result.has_solution()) {
        const std::string message =
            std::string("deploy_optimal: MILP ended with status ") +
            milp::to_string(result.status);
        return result.status == milp::MilpStatus::kInfeasible
                   ? util::Status::infeasible(message)
                   : util::Status::unavailable(message);
    }
    DeployOutcome outcome;
    {
        obs::Span dspan(options.sink, "decode");
        outcome.deployment = formulation.decode(result.values);
    }
    outcome.solve_seconds = seconds_since(start);
    outcome.metrics = evaluate(t, net, outcome.deployment);
    outcome.solver_status = milp::to_string(result.status);
    outcome.optimal = result.status == milp::MilpStatus::kOptimal;
    return outcome;
}

}  // namespace hermes::core
