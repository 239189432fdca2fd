// Hermes framework facade (§III): program analysis, then problem solving via
// either the greedy heuristic or the MILP ("Optimal") path, returning the
// deployment together with its metrics and solve statistics.
//
// API note: the StatusOr-returning try_deploy_greedy / try_deploy_optimal
// entry points are the only surface — infeasible instances come back as
// util::StatusCode::kInfeasible (budget exhaustion without an incumbent as
// kUnavailable) instead of an exception. Callers that want the old throwing
// behaviour write try_deploy_greedy(t, n).value() — StatusOr::value()
// rethrows non-ok statuses. New code — and all long-lived sessions — should
// go through core::Engine (core/engine.h), which owns the network, merged
// TDG, path oracle, and incumbent and answers mutations with delta
// re-solves.
#pragma once

#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/formulation.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "milp/solver.h"
#include "prog/program.h"
#include "util/status.h"

namespace hermes::core {

// Inherits core::CommonOptions: `sink` turns on tracing/metrics for the
// whole pipeline (analyzer, formulation, branch and bound, verifier), and
// `threads` is not read (the greedy anchor search is serial; branch and
// bound takes its worker count from `milp.threads`). The MILP search keeps
// its own budget knobs under `milp`; an active `deadline` token is
// forwarded into them (unless `milp.deadline` is armed separately) and also
// truncates the greedy anchor search, so one token cancels whichever path
// is running.
struct HermesOptions : CommonOptions {
    double epsilon1 = std::numeric_limits<double>::infinity();
    std::int64_t epsilon2 = std::numeric_limits<std::int64_t>::max();
    // MILP path configuration.
    std::size_t k_paths = 2;
    std::size_t candidate_limit = 0;
    bool segment_level_milp = false;
    bool warm_start_from_greedy = true;
    milp::MilpOptions milp;
    // Shared per-Network path cache; both solve paths reuse its Dijkstra
    // trees. Null = each call builds a private cache.
    net::PathOracle* oracle = nullptr;
};

struct DeployOutcome {
    Deployment deployment;
    DeploymentMetrics metrics;
    double solve_seconds = 0.0;
    std::string solver_status;  // "greedy", or the MILP status string
    bool optimal = false;       // true when the MILP proved optimality
};

// Step#1: program analysis — merge all programs' TDGs and annotate A(a,b).
// A non-null `sink` records the analyzer phase spans and TDG size counters.
[[nodiscard]] tdg::Tdg analyze(const std::vector<prog::Program>& programs,
                               obs::Sink* sink = nullptr);

// Step#3 (heuristic): Algorithm 2. kInfeasible when the switch capacity
// cannot host the TDG under the epsilon bounds.
[[nodiscard]] util::StatusOr<DeployOutcome> try_deploy_greedy(
    const tdg::Tdg& t, const net::Network& net, const HermesOptions& options = {});

// Step#2+#3 (exact): builds P#1 and solves it with branch and bound, warm
// started from the greedy solution by default. kInfeasible when the model
// proves no deployment exists; kUnavailable when the budget expired before
// any incumbent was found.
[[nodiscard]] util::StatusOr<DeployOutcome> try_deploy_optimal(
    const tdg::Tdg& t, const net::Network& net, const HermesOptions& options = {});

}  // namespace hermes::core
