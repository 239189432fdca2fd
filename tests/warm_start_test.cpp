// Warm-start pathology tests for the revised simplex (milp/simplex.h): a
// repaired parent basis that went primal-infeasible after a bound flip, the
// pivot-budget abandon to the cold path, warm-certified infeasibility, and
// the solver-level guarantee that warm observability counters are flushed
// even when a search aborts through a Deadline token.
#include <gtest/gtest.h>

#include <cmath>

#include "core/deadline.h"
#include "milp/simplex.h"
#include "milp/solver.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace hermes::milp {
namespace {

constexpr double kTol = 1e-6;

// Bounded feasible LP with enough coupling that tightening one variable's
// bound disturbs several rows of the optimal basis.
Model coupled_lp(int vars, int rows, std::uint64_t seed) {
    util::SplitMix64 rng(seed);
    Model m;
    std::vector<VarId> xs;
    for (int i = 0; i < vars; ++i) xs.push_back(m.add_continuous(0.0, 10.0));
    for (int r = 0; r < rows; ++r) {
        LinExpr e;
        for (const VarId x : xs) e += LinExpr::term(x, rng.uniform_real(0.1, 2.0));
        m.add_constraint(std::move(e), Sense::kLe, rng.uniform_real(5.0, 50.0));
    }
    LinExpr obj;
    for (const VarId x : xs) obj += LinExpr::term(x, rng.uniform_real(0.5, 3.0));
    m.maximize(std::move(obj));
    return m;
}

TEST(WarmStart, RepairedBasisPrimalInfeasibleAfterBoundFlip) {
    // Branch-and-bound's canonical warm start: the parent's optimal basis is
    // reloaded after a bound tightened past the basic value, so the reloaded
    // point starts primal-infeasible and phase 1 must repair it. The repaired
    // solve must agree with a cold solve of the same bounds exactly.
    const Model m = coupled_lp(12, 9, 21);
    const LpContext context(m);
    std::vector<double> lower = context.model_lower();
    std::vector<double> upper = context.model_upper();
    LpOptions cold_options;
    const LpResult parent = context.solve(lower, upper, cold_options);
    ASSERT_EQ(parent.status, LpStatus::kOptimal);

    // Flip the bound of the largest basic variable below its optimal value.
    std::size_t j = 0;
    for (std::size_t i = 1; i < parent.values.size(); ++i) {
        if (parent.values[i] > parent.values[j]) j = i;
    }
    ASSERT_GT(parent.values[j], 0.5);
    upper[j] = parent.values[j] / 2.0;

    const LpResult cold = context.solve(lower, upper, cold_options);
    LpOptions warm_options;
    warm_options.warm_basis = &parent.basis;
    const LpResult warm = context.solve(lower, upper, warm_options);
    ASSERT_EQ(cold.status, LpStatus::kOptimal);
    ASSERT_EQ(warm.status, LpStatus::kOptimal);
    EXPECT_NEAR(warm.objective, cold.objective, kTol * (1.0 + std::abs(cold.objective)));
    EXPECT_TRUE(m.is_feasible(warm.values, 1e-5));
    EXPECT_LE(warm.values[j], upper[j] + 1e-7);
}

TEST(WarmStart, AbandonsToColdUnderPivotBudget) {
    // With a one-pivot budget a repair that needs several pivots must give
    // up and fall back to the cold path — same answer, warm attempt counted
    // as a miss with the budget as the recorded abandon reason.
    const Model m = coupled_lp(14, 10, 33);
    const LpContext context(m);
    std::vector<double> lower = context.model_lower();
    std::vector<double> upper = context.model_upper();
    const LpResult parent = context.solve(lower, upper);
    ASSERT_EQ(parent.status, LpStatus::kOptimal);

    // Tighten every nonzero basic variable: the repair now needs at least
    // one pivot per disturbed column, far beyond the budget.
    int disturbed = 0;
    for (std::size_t i = 0; i < parent.values.size(); ++i) {
        if (parent.values[i] > 0.5) {
            upper[i] = parent.values[i] / 2.0;
            ++disturbed;
        }
    }
    ASSERT_GE(disturbed, 2);

    const LpResult cold = context.solve(lower, upper);
    LpOptions warm_options;
    warm_options.warm_basis = &parent.basis;
    warm_options.warm_pivot_budget = 1;
    const LpResult budgeted = context.solve(lower, upper, warm_options);
    ASSERT_EQ(budgeted.status, cold.status);
    ASSERT_EQ(budgeted.status, LpStatus::kOptimal);
    EXPECT_NEAR(budgeted.objective, cold.objective,
                kTol * (1.0 + std::abs(cold.objective)));
    EXPECT_FALSE(budgeted.warm_used);
    EXPECT_NE(budgeted.warm_abandon, WarmAbandon::kNone);

    // An unconstrained budget lets the same warm attempt survive.
    warm_options.warm_pivot_budget = 200000;
    const LpResult roomy = context.solve(lower, upper, warm_options);
    ASSERT_EQ(roomy.status, LpStatus::kOptimal);
    EXPECT_NEAR(roomy.objective, cold.objective,
                kTol * (1.0 + std::abs(cold.objective)));
}

TEST(WarmStart, CertifiedInfeasibilityCountsAsHit) {
    // A warm attempt may prove the child LP infeasible directly (phase-1
    // optimum > 0, confirmed on a rebuilt factorization). That proof is a
    // warm hit: no cold solve runs and no waste is charged.
    Model m;
    const VarId x = m.add_continuous(0.0, 10.0, "x");
    const VarId y = m.add_continuous(0.0, 10.0, "y");
    m.add_constraint(LinExpr::term(x) + LinExpr::term(y), Sense::kGe, 5.0);
    m.minimize(LinExpr::term(x) + LinExpr::term(y, 2.0));
    const LpContext context(m);
    std::vector<double> lower = context.model_lower();
    std::vector<double> upper = context.model_upper();
    const LpResult parent = context.solve(lower, upper);
    ASSERT_EQ(parent.status, LpStatus::kOptimal);

    upper[0] = 1.0;
    upper[1] = 1.0;  // x + y <= 2 < 5: infeasible
    LpOptions warm_options;
    warm_options.warm_basis = &parent.basis;
    const LpResult warm = context.solve(lower, upper, warm_options);
    EXPECT_EQ(warm.status, LpStatus::kInfeasible);
    EXPECT_TRUE(warm.warm_used);
    EXPECT_EQ(warm.warm_wasted_iterations, 0);
}

TEST(WarmStart, DeadlineAbortStillFlushesWarmCounters) {
    // A search cut short through its Deadline token must still flush the
    // per-worker lp.warm_* counters on the abort path (the RAII flush in the
    // worker), not only on clean exits. The token trips on a poll count, so
    // the abort lands at the same point on any machine.
    util::SplitMix64 rng(99);
    Model m;
    LinExpr weight, value;
    for (int i = 0; i < 24; ++i) {
        const VarId x = m.add_binary();
        weight += LinExpr::term(x, static_cast<double>(rng.uniform_int(5, 40)));
        value += LinExpr::term(x, static_cast<double>(rng.uniform_int(1, 100)));
    }
    m.add_constraint(weight, Sense::kLe, 120.0);
    m.maximize(value);

    const auto solve = [&m](std::int64_t polls, obs::Sink* sink) {
        MilpOptions options;
        options.sink = sink;
        options.threads = 1;
        options.presolve = false;
        options.deadline = core::Deadline::after_polls(polls);
        return solve_milp(m, options);
    };
    // The smallest poll budget the search completes within (each solve
    // takes about a millisecond); half of it aborts mid-search.
    std::int64_t complete = 1;
    while (solve(complete, nullptr).status != MilpStatus::kOptimal) {
        ASSERT_LT(++complete, 100'000) << "the search never completes";
    }
    obs::Sink sink;
    const MilpResult r = solve(complete / 2, &sink);
    EXPECT_TRUE(r.status == MilpStatus::kTimeLimit || r.status == MilpStatus::kNoSolution)
        << to_string(r.status) << " at " << complete / 2 << " of " << complete << " polls";

    std::int64_t attempts = -1, hits = -1;
    for (const auto& c : sink.counters()) {
        if (c.name == "lp.warm_attempts") attempts = c.value;
        if (c.name == "lp.warm_hits") hits = c.value;
    }
    // Both counters must exist on the abort path, and the search must have
    // opened enough nodes before the abort to attempt warm starts.
    ASSERT_GE(hits, 0);
    EXPECT_GT(attempts, 0);
    EXPECT_LE(hits, attempts);
}

}  // namespace
}  // namespace hermes::milp
