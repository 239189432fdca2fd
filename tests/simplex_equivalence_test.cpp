// Equivalence tests pinning the production revised sparse simplex
// (milp/simplex.h) to the retained dense reference kernel
// (milp/simplex_reference.h): statuses and objectives must agree on
// randomized LPs and seeded P#1 relaxations. Full branch-and-bound runs are
// pinned to exhaustive enumeration of small integer boxes, and presolve
// must never change a MILP result.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "core/formulation.h"
#include "milp/presolve.h"
#include "milp/simplex.h"
#include "milp/simplex_reference.h"
#include "milp/solver.h"
#include "sim/testbed.h"
#include "util/rng.h"

namespace hermes::milp {
namespace {

constexpr double kTol = 1e-6;

// Random LP with mixed senses, sparse rows, negative coefficients, and a mix
// of finite and infinite upper bounds — wide enough to reach the optimal,
// infeasible, and unbounded exits of both kernels.
Model random_lp(int vars, int rows, std::uint64_t seed) {
    util::SplitMix64 rng(seed);
    Model m;
    std::vector<VarId> xs;
    for (int i = 0; i < vars; ++i) {
        const double u = rng.chance(0.25) ? kInfinity : rng.uniform_real(1.0, 10.0);
        xs.push_back(m.add_continuous(0.0, u));
    }
    for (int r = 0; r < rows; ++r) {
        LinExpr e;
        for (const VarId x : xs) {
            if (rng.chance(0.4)) continue;
            e += LinExpr::term(x, rng.uniform_real(-2.0, 2.0));
        }
        if (e.empty()) e += LinExpr::term(xs[0]);
        const double roll = rng.uniform_real(0.0, 1.0);
        if (roll < 0.55) {
            m.add_constraint(std::move(e), Sense::kLe, rng.uniform_real(1.0, 20.0));
        } else if (roll < 0.85) {
            m.add_constraint(std::move(e), Sense::kGe, rng.uniform_real(-10.0, 1.0));
        } else {
            m.add_constraint(std::move(e), Sense::kEq, rng.uniform_real(0.0, 5.0));
        }
    }
    LinExpr obj;
    for (const VarId x : xs) obj += LinExpr::term(x, rng.uniform_real(-1.0, 3.0));
    if (rng.chance(0.5)) {
        m.maximize(std::move(obj));
    } else {
        m.minimize(std::move(obj));
    }
    return m;
}

// Always-feasible bounded LP (positive coefficients, generous Le rows, mild
// Ge rows) for fixtures that need an optimal chain to exist.
Model feasible_random_lp(int vars, int rows, std::uint64_t seed) {
    util::SplitMix64 rng(seed);
    Model m;
    std::vector<VarId> xs;
    for (int i = 0; i < vars; ++i) xs.push_back(m.add_continuous(0.0, 10.0));
    for (int r = 0; r < rows; ++r) {
        LinExpr e;
        for (const VarId x : xs) e += LinExpr::term(x, rng.uniform_real(0.1, 2.0));
        if (r % 4 == 3) {
            m.add_constraint(std::move(e), Sense::kGe, rng.uniform_real(0.5, 2.0));
        } else {
            m.add_constraint(std::move(e), Sense::kLe, rng.uniform_real(5.0, 50.0));
        }
    }
    LinExpr obj;
    for (const VarId x : xs) obj += LinExpr::term(x, rng.uniform_real(0.5, 3.0));
    m.maximize(std::move(obj));
    return m;
}

// Random MILP mirroring parallel_milp_test's generator.
Model random_milp(int vars, int rows, std::uint64_t seed) {
    util::SplitMix64 rng(seed);
    Model m;
    std::vector<VarId> xs;
    for (int i = 0; i < vars; ++i) {
        xs.push_back(rng.chance(0.5)
                         ? m.add_binary()
                         : m.add_integer(0.0, static_cast<double>(rng.uniform_int(1, 4))));
    }
    for (int r = 0; r < rows; ++r) {
        LinExpr e;
        for (const VarId x : xs) e += LinExpr::term(x, rng.uniform_real(0.1, 2.0));
        m.add_constraint(std::move(e), Sense::kLe, rng.uniform_real(2.0, 8.0));
    }
    LinExpr obj;
    for (const VarId x : xs) obj += LinExpr::term(x, rng.uniform_real(0.5, 3.0));
    m.maximize(std::move(obj));
    return m;
}

// Best objective over every point of a pure-integer model's bounded box, by
// odometer enumeration; nullopt when no point is feasible.
std::optional<double> enumerate_integer_box(const Model& m) {
    const std::vector<Variable>& vars = m.variables();
    std::vector<double> point;
    for (const Variable& v : vars) point.push_back(v.lower);
    const double sign = m.is_minimization() ? 1.0 : -1.0;
    std::optional<double> best;
    while (true) {
        if (m.is_feasible(point, 1e-9)) {
            const double value = m.objective_value(point);
            if (!best || sign * value < sign * *best) best = value;
        }
        std::size_t j = 0;
        while (j < vars.size() && point[j] >= vars[j].upper) {
            point[j] = vars[j].lower;
            ++j;
        }
        if (j == vars.size()) return best;
        point[j] += 1.0;
    }
}

// Seeded P#1 model on the testbed (same construction as bench/micro_solver's
// sweep instance, smaller).
Model seeded_p1_model(std::uint64_t seed) {
    util::SplitMix64 rng(seed);
    tdg::Tdg t;
    const int mats = static_cast<int>(rng.uniform_int(3, 5));
    for (int i = 0; i < mats; ++i) {
        t.add_node(tdg::Mat(
            "m" + std::to_string(i), {tdg::header_field("h" + std::to_string(i), 2)},
            {tdg::Action{"a", {tdg::metadata_field("x" + std::to_string(i), 4)}}}, 16,
            rng.uniform_real(0.3, 0.6)));
        if (i > 0) {
            t.add_edge(static_cast<tdg::NodeId>(i - 1), static_cast<tdg::NodeId>(i),
                       tdg::DepType::kMatch);
            t.edges().back().metadata_bytes = static_cast<int>(rng.uniform_int(1, 6));
        }
    }
    sim::TestbedConfig config;
    config.switch_count = 2;
    config.stages = 4;
    const net::Network n = sim::make_testbed(config);
    core::P1Formulation f(t, n, core::FormulationOptions{});
    return f.model();
}

// Primal feasibility of an LP *relaxation* point: bounds and constraint
// rows of the original model, without the integrality check that
// Model::is_feasible applies to binary variables.
bool relaxation_feasible(const Model& m, const std::vector<double>& values,
                         double tolerance) {
    if (values.size() != m.variable_count()) return false;
    for (std::size_t i = 0; i < m.variable_count(); ++i) {
        const Variable& v = m.variables()[i];
        if (values[i] < v.lower - tolerance || values[i] > v.upper + tolerance) {
            return false;
        }
    }
    for (const Constraint& c : m.constraints()) {
        const double lhs = c.expr.evaluate(values);
        if (c.sense == Sense::kLe && lhs > c.rhs + tolerance) return false;
        if (c.sense == Sense::kGe && lhs < c.rhs - tolerance) return false;
        if (c.sense == Sense::kEq && std::abs(lhs - c.rhs) > tolerance) return false;
    }
    return true;
}

TEST(SimplexEquivalence, RandomLpsAgreeWithReferenceKernel) {
    int optimal = 0;
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        const Model m = random_lp(6 + static_cast<int>(seed % 7),
                                  5 + static_cast<int>(seed % 5), seed);
        const LpResult revised = solve_lp(m);
        const LpResult dense = reference::solve_lp(m);
        ASSERT_EQ(revised.status, dense.status) << "seed " << seed;
        if (revised.status != LpStatus::kOptimal) continue;
        ++optimal;
        EXPECT_NEAR(revised.objective, dense.objective,
                    kTol * (1.0 + std::abs(dense.objective)))
            << "seed " << seed;
        EXPECT_TRUE(m.is_feasible(revised.values, 1e-5)) << "seed " << seed;
        EXPECT_NEAR(m.objective_value(revised.values), revised.objective, 1e-5)
            << "seed " << seed;
    }
    // The generator must actually exercise the optimal exit, not just the
    // infeasible/unbounded ones.
    EXPECT_GE(optimal, 20);
}

TEST(SimplexEquivalence, P1RelaxationsAgreeWithReferenceKernel) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const Model m = seeded_p1_model(seed);
        const LpResult revised = solve_lp(m);
        const LpResult dense = reference::solve_lp(m);
        ASSERT_EQ(revised.status, dense.status) << "seed " << seed;
        if (revised.status != LpStatus::kOptimal) continue;
        EXPECT_NEAR(revised.objective, dense.objective,
                    kTol * (1.0 + std::abs(dense.objective)))
            << "seed " << seed;
        EXPECT_TRUE(relaxation_feasible(m, revised.values, 1e-5))
            << "seed " << seed;
        EXPECT_TRUE(relaxation_feasible(m, dense.values, 1e-5))
            << "seed " << seed;
    }
}

TEST(SimplexEquivalence, WarmChainsMatchColdSolvesOnBothKernels) {
    // A branch-and-bound-style dive: tighten one bound at a time, warm start
    // each re-solve from the previous basis, and require exact agreement with
    // a cold solve of the same model — per kernel, at every depth.
    for (const bool use_reference : {false, true}) {
        Model m = feasible_random_lp(10, 8, 77);
        const auto solve_kernel = [&](const Model& model, const Basis* warm) {
            LpOptions options;
            options.warm_basis = warm;
            return use_reference ? reference::solve_lp(model, options)
                                 : solve_lp(model, options);
        };
        LpResult prev = solve_kernel(m, nullptr);
        ASSERT_EQ(prev.status, LpStatus::kOptimal);
        for (int depth = 0; depth < 6; ++depth) {
            const auto j = static_cast<std::size_t>(depth % m.variable_count());
            m.set_upper(static_cast<VarId>(j),
                        std::max(0.0, std::floor(prev.values[j] - 0.01)));
            const LpResult cold = solve_kernel(m, nullptr);
            const LpResult warm = solve_kernel(m, &prev.basis);
            ASSERT_EQ(warm.status, cold.status)
                << "kernel " << use_reference << " depth " << depth;
            if (cold.status != LpStatus::kOptimal) break;
            EXPECT_NEAR(warm.objective, cold.objective,
                        kTol * (1.0 + std::abs(cold.objective)))
                << "kernel " << use_reference << " depth " << depth;
            EXPECT_TRUE(m.is_feasible(warm.values, 1e-5));
            prev = warm;
        }
    }
}

TEST(SimplexEquivalence, CrossKernelBasesDegradeToColdSolves) {
    // Each kernel exports a basis in its own column space; feeding one
    // kernel's basis to the other must silently fall back to the cold path.
    const Model m = feasible_random_lp(10, 8, 11);
    const LpResult revised = solve_lp(m);
    const LpResult dense = reference::solve_lp(m);
    ASSERT_EQ(revised.status, LpStatus::kOptimal);
    ASSERT_EQ(dense.status, LpStatus::kOptimal);
    LpOptions from_dense;
    from_dense.warm_basis = &dense.basis;
    LpOptions from_revised;
    from_revised.warm_basis = &revised.basis;
    const LpResult rev_from_dense = solve_lp(m, from_dense);
    const LpResult dense_from_rev = reference::solve_lp(m, from_revised);
    ASSERT_EQ(rev_from_dense.status, LpStatus::kOptimal);
    ASSERT_EQ(dense_from_rev.status, LpStatus::kOptimal);
    EXPECT_NEAR(rev_from_dense.objective, revised.objective, kTol);
    EXPECT_NEAR(dense_from_rev.objective, dense.objective, kTol);
}

TEST(SimplexEquivalence, MilpMatchesExhaustiveEnumeration) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Model m = random_milp(10, 6, seed);
        double points = 1.0;
        for (const Variable& v : m.variables()) points *= v.upper - v.lower + 1.0;
        ASSERT_LE(points, 32.0 * 3125.0) << "seed " << seed;  // 2^5 * 5^5
        const std::optional<double> best = enumerate_integer_box(m);
        const MilpResult r = solve_milp(m);
        ASSERT_EQ(r.status, best ? MilpStatus::kOptimal : MilpStatus::kInfeasible)
            << "seed " << seed;
        if (!best) continue;
        EXPECT_NEAR(r.objective, *best, kTol) << "seed " << seed;
        EXPECT_TRUE(m.is_feasible(r.values, 1e-5)) << "seed " << seed;
    }
}

TEST(SimplexEquivalence, PresolveOnAndOffAgree) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Model m = random_milp(12, 6, seed * 31);
        MilpOptions on;
        MilpOptions off = on;
        off.presolve = false;
        const MilpResult a = solve_milp(m, on);
        const MilpResult b = solve_milp(m, off);
        ASSERT_EQ(a.status, b.status) << "seed " << seed;
        if (!a.has_solution()) continue;
        EXPECT_NEAR(a.objective, b.objective, kTol) << "seed " << seed;
        // Both assignments must satisfy the ORIGINAL rows, not merely the
        // presolve-reduced image: a postsolve bug that fabricates values for
        // eliminated variables would pass the objective check alone.
        EXPECT_TRUE(m.is_feasible(a.values, 1e-5)) << "seed " << seed;
        EXPECT_TRUE(m.is_feasible(b.values, 1e-5)) << "seed " << seed;
        EXPECT_NEAR(m.objective_value(a.values), a.objective, 1e-5)
            << "seed " << seed;
    }
}

TEST(SimplexEquivalence, PresolveOnAndOffAgreeOnP1) {
    const Model m = seeded_p1_model(3);
    MilpOptions on;
    on.time_limit_seconds = 30.0;
    MilpOptions off = on;
    off.presolve = false;
    const MilpResult a = solve_milp(m, on);
    const MilpResult b = solve_milp(m, off);
    ASSERT_EQ(a.status, b.status);
    ASSERT_TRUE(a.has_solution());
    EXPECT_NEAR(a.objective, b.objective, kTol * (1.0 + std::abs(b.objective)));
    EXPECT_TRUE(m.is_feasible(a.values, 1e-5));
    EXPECT_TRUE(m.is_feasible(b.values, 1e-5));
    EXPECT_NEAR(m.objective_value(a.values), a.objective,
                1e-5 * (1.0 + std::abs(a.objective)));
}

TEST(Presolve, FixesAndDropsCascade) {
    // x fixed by a singleton row cascades: y's row becomes a singleton, z's
    // bound tightens, every row dies, all three variables end up fixed.
    Model m;
    const VarId x = m.add_binary("x");
    const VarId y = m.add_integer(0.0, 5.0, "y");
    const VarId z = m.add_continuous(0.0, 4.0, "z");
    m.add_constraint(LinExpr::term(x), Sense::kEq, 1.0);
    m.add_constraint(LinExpr::term(y) + LinExpr::term(x, 3.0), Sense::kLe, 3.2);
    m.add_constraint(LinExpr::term(z) - LinExpr::term(y), Sense::kEq, 2.0);
    m.minimize(LinExpr::term(z) - LinExpr::term(y));
    const PresolveResult pre = presolve(m);
    ASSERT_FALSE(pre.infeasible);
    EXPECT_EQ(pre.reduced.variable_count(), 0u);
    EXPECT_EQ(pre.reduced.constraint_count(), 0u);
    const std::vector<double> values = pre.postsolve({});
    ASSERT_EQ(values.size(), 3u);
    EXPECT_DOUBLE_EQ(values[static_cast<std::size_t>(x)], 1.0);
    EXPECT_DOUBLE_EQ(values[static_cast<std::size_t>(y)], 0.0);
    EXPECT_DOUBLE_EQ(values[static_cast<std::size_t>(z)], 2.0);
    EXPECT_TRUE(m.is_feasible(values, 1e-9));
}

TEST(Presolve, FullyFixedModelSolvesOptimal) {
    // Regression: a model presolve reduces to zero variables must still
    // report optimal with the postsolved assignment, not infeasible.
    Model m;
    const VarId x = m.add_binary("x");
    const VarId y = m.add_binary("y");
    m.add_constraint(LinExpr::term(x), Sense::kEq, 1.0);
    m.add_constraint(LinExpr::term(y), Sense::kEq, 0.0);
    m.maximize(LinExpr::term(x, 2.0) + LinExpr::term(y, 5.0));
    const MilpResult r = solve_milp(m);
    ASSERT_EQ(r.status, MilpStatus::kOptimal);
    EXPECT_NEAR(r.objective, 2.0, kTol);
    ASSERT_EQ(r.values.size(), 2u);
    EXPECT_DOUBLE_EQ(r.values[0], 1.0);
    EXPECT_DOUBLE_EQ(r.values[1], 0.0);
}

TEST(Presolve, DetectsInfeasibilityFromCrossedSingletons) {
    Model m;
    const VarId x = m.add_integer(0.0, 10.0, "x");
    m.add_constraint(LinExpr::term(x), Sense::kGe, 7.0);
    m.add_constraint(LinExpr::term(x), Sense::kLe, 3.0);
    m.minimize(LinExpr::term(x));
    const PresolveResult pre = presolve(m);
    EXPECT_TRUE(pre.infeasible);
    EXPECT_EQ(solve_milp(m).status, MilpStatus::kInfeasible);
}

TEST(Presolve, IntegerBoundsRoundInward) {
    Model m;
    const VarId x = m.add_integer(0.0, 10.0, "x");
    m.add_constraint(LinExpr::term(x, 2.0), Sense::kLe, 9.0);   // x <= 4.5 -> 4
    m.add_constraint(LinExpr::term(x, 3.0), Sense::kGe, 3.5);   // x >= 7/6 -> 2
    m.minimize(LinExpr::term(x));
    const PresolveResult pre = presolve(m);
    ASSERT_FALSE(pre.infeasible);
    ASSERT_EQ(pre.reduced.variable_count(), 1u);
    EXPECT_DOUBLE_EQ(pre.reduced.variable(0).lower, 2.0);
    EXPECT_DOUBLE_EQ(pre.reduced.variable(0).upper, 4.0);
    const MilpResult r = solve_milp(m);
    ASSERT_EQ(r.status, MilpStatus::kOptimal);
    EXPECT_NEAR(r.objective, 2.0, kTol);
}

TEST(Presolve, SwitchBanInfeasibilityRoundTripsWithBoundsIntact) {
    // Failure-induced switch ban, as the repair planner's MILP escalation
    // issues it: the assignment row Σ x(a,u) = 1 stays, but every candidate
    // switch is banned by pinning its x to upper bound 0. Presolve's fixing
    // pass must prove infeasibility (all terms fix to 0, the empty row
    // contradicts its rhs), solve_milp must report kInfeasible without
    // touching a simplex, and the original model — presolve operates on a
    // copy — must keep the caller's bounds exactly.
    Model m;
    const VarId x0 = m.add_binary("x_a_u0");
    const VarId x1 = m.add_binary("x_a_u1");
    const VarId x2 = m.add_binary("x_a_u2");
    m.add_constraint(LinExpr::term(x0) + LinExpr::term(x1) + LinExpr::term(x2),
                     Sense::kEq, 1.0);
    m.minimize(LinExpr::term(x0) + LinExpr::term(x1, 2.0) + LinExpr::term(x2, 3.0));
    for (const VarId x : {x0, x1, x2}) m.set_upper(x, 0.0);  // all switches failed

    const PresolveResult pre = presolve(m);
    EXPECT_TRUE(pre.infeasible);

    const MilpResult r = solve_milp(m);
    EXPECT_EQ(r.status, MilpStatus::kInfeasible);
    EXPECT_FALSE(r.has_solution());

    for (const VarId x : {x0, x1, x2}) {
        EXPECT_DOUBLE_EQ(m.variable(x).lower, 0.0);
        EXPECT_DOUBLE_EQ(m.variable(x).upper, 0.0);
    }
}

TEST(Presolve, PartialSwitchBanKeepsSurvivorsFeasible) {
    // Banning a strict subset must not over-trigger: the survivor picks up
    // the assignment and the banned variables postsolve to 0.
    Model m;
    const VarId x0 = m.add_binary("x_a_u0");
    const VarId x1 = m.add_binary("x_a_u1");
    m.add_constraint(LinExpr::term(x0) + LinExpr::term(x1), Sense::kEq, 1.0);
    m.minimize(LinExpr::term(x0) + LinExpr::term(x1, 2.0));
    m.set_upper(x0, 0.0);  // only u0 failed

    const MilpResult r = solve_milp(m);
    ASSERT_EQ(r.status, MilpStatus::kOptimal);
    EXPECT_NEAR(r.objective, 2.0, kTol);
    ASSERT_EQ(r.values.size(), 2u);
    EXPECT_DOUBLE_EQ(r.values[0], 0.0);
    EXPECT_DOUBLE_EQ(r.values[1], 1.0);
}

TEST(Presolve, WarmStartSurvivesRestriction) {
    Model m;
    const VarId x = m.add_binary("x");
    const VarId y = m.add_binary("y");
    const VarId z = m.add_binary("z");
    m.add_constraint(LinExpr::term(x), Sense::kEq, 1.0);  // presolve fixes x
    m.add_constraint(LinExpr::term(y) + LinExpr::term(z), Sense::kLe, 1.0);
    m.maximize(LinExpr::term(x) + LinExpr::term(y, 2.0) + LinExpr::term(z));
    MilpOptions options;
    options.warm_start = std::vector<double>{1.0, 0.0, 1.0};  // feasible, not optimal
    const MilpResult r = solve_milp(m, options);
    ASSERT_EQ(r.status, MilpStatus::kOptimal);
    EXPECT_NEAR(r.objective, 3.0, kTol);
}

}  // namespace
}  // namespace hermes::milp
