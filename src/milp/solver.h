// MILP solver: LP-relaxation branch and bound, parallel across nodes.
//
// The model is presolved once (milp/presolve.h) and converted once into an
// immutable LpContext shared by every worker; a node LP is then just a pair
// of per-worker bound vectors against that matrix — nothing per-node is
// rebuilt. A pool of std::jthread workers drains a mutex-protected,
// best-bound-ordered open list (ties broken by a deterministic node sequence
// number, so a single-threaded run is fully reproducible and any thread
// count returns the same objective). Each node carries its parent's optimal
// simplex basis, with its LU pivot order, as a warm start: the child solve
// refactorizes that basis and lets phase 1 repair the handful of rows the
// branching bound change disturbed, which typically takes a few pivots
// instead of a cold two-phase solve. Incumbents are published under the open-list lock with a
// lexicographic tie-break on equal objectives, and every publish prunes the
// open list in place. Limits stop the search with the best incumbent in
// hand — node/iteration caps return it as kFeasible, the wall-clock budget
// or a tripped Deadline token as kTimeLimit — exactly how the paper's
// time-limited Gurobi runs behave in Exp#3.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/options.h"
#include "milp/model.h"
#include "milp/simplex.h"

namespace hermes::milp {

enum class MilpStatus : std::uint8_t {
    kOptimal,     // proven optimal
    kFeasible,    // node/iteration limit hit with an incumbent in hand
    kTimeLimit,   // wall-clock budget or Deadline token hit with an incumbent
    kInfeasible,  // proven infeasible
    kNoSolution,  // limit hit before any incumbent was found
    kUnbounded,
};

[[nodiscard]] const char* to_string(MilpStatus s) noexcept;

// The common knobs (threads, seed, time_limit_seconds, iteration_limit,
// sink, deadline) are inherited from core::CommonOptions:
// `threads` is the branch-and-bound worker count (0 = hardware concurrency),
// `time_limit_seconds` the search's wall-clock budget (default 60 s; any
// value <= 0 means "no budget" — here, in the LP kernel, and in every warm
// re-solve alike), `iteration_limit` a cap on the total simplex pivots
// across the whole search, `sink` makes the search record per-worker trace
// lanes plus bb.*/lp.* counters, and an active `deadline` token is polled by
// every worker between nodes and inside the simplex pivot loops — expiry
// stops the search cooperatively and returns the incumbent as kTimeLimit
// (kNoSolution when there is none) instead of throwing. The search's
// tolerances (integrality 1e-6, absolute gap 1e-6), its per-node LP pivot
// cap (200000) and its root strong-branching budget (8 candidates, 400
// pivots each) are constants in milp/solver.cc (DESIGN.md §5i).
struct MilpOptions : core::CommonOptions {
    MilpOptions() noexcept { time_limit_seconds = 60.0; }

    std::int64_t node_limit = 1'000'000;
    // Warm start child LPs from the parent's exported basis (disable only to
    // measure the cold-solve baseline; results are identical either way).
    bool warm_lp_basis = true;
    // Run the presolve reductions once before the root relaxation; the search
    // then operates on the reduced model and the returned assignment is
    // postsolved back to the original space. The objective is identical
    // either way.
    bool presolve = true;
    // Root cutting-plane rounds (milp/cuts.h): knapsack cover + clique cuts
    // separated at the root relaxation before the search starts. Every cut
    // is valid for the integer hull, so the objective is identical with any
    // value; 0 disables the loop.
    int cut_rounds = 4;
    // Branch on shared pseudocosts (milp/branching.h), seeded by strong
    // branching at the root, instead of most-fractional. Off = the plain
    // most-fractional rule (kept for A/B benchmarking).
    bool pseudocost_branching = true;
    // Benders-style decomposition (milp/decompose.h): a placement master
    // over everything but the per-pair path variables, plus per-pair path
    // subproblems generating optimality/feasibility cuts. Falls back to the
    // monolithic search when the model has no path seam.
    bool decompose = false;
    // Feasible starting assignment (checked; ignored when infeasible).
    std::optional<std::vector<double>> warm_start;
};

struct MilpResult {
    MilpStatus status = MilpStatus::kNoSolution;
    double objective = 0.0;
    std::vector<double> values;
    double best_bound = 0.0;           // proven bound on the optimum
    std::int64_t nodes = 0;            // branch-and-bound nodes processed
    std::int64_t lp_iterations = 0;    // total simplex pivots
    double elapsed_seconds = 0.0;

    [[nodiscard]] bool has_solution() const noexcept {
        return status == MilpStatus::kOptimal || status == MilpStatus::kFeasible ||
               status == MilpStatus::kTimeLimit;
    }
};

// Solves `model` to optimality or until a limit expires. The objective of
// the result is deterministic for any `threads` value; on instances with
// multiple optima the returned assignment may differ between thread counts
// (all returned assignments are model-feasible).
[[nodiscard]] MilpResult solve_milp(const Model& model, const MilpOptions& options = {});

}  // namespace hermes::milp
