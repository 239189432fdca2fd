// Direct tests of the sparse LU basis kernel (milp/lu.h): solve residuals
// against an explicitly assembled basis, Forrest-Tomlin updates held
// equivalent to fresh factorizations across long pivot chains, rejection and
// recovery on singular/duplicate-claimed bases, pivot-order hint replay (the
// warm-start snapshot), and the factor counters a solve surfaces. The LU
// simplex's agreement with the dense reference kernel on the randomized LP
// grid lives in simplex_equivalence_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "milp/lu.h"
#include "milp/simplex.h"
#include "util/rng.h"

namespace hermes::milp {
namespace {

constexpr double kTol = 1e-6;

// Same generator family as simplex_equivalence_test: mixed senses, sparse
// rows, signed coefficients, finite and infinite uppers.
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

// Column of variable `var` over rows: structural columns come from the CSC
// arrays, logical n+i is the unit vector on row i (the loading rule
// LuFactor::factorize applies).
std::vector<double> column_of(const LpContext& ctx, std::int32_t var) {
    std::vector<double> col(ctx.rows(), 0.0);
    const auto n = static_cast<std::int32_t>(ctx.structurals());
    if (var < n) {
        const auto v = static_cast<std::size_t>(var);
        for (auto k = ctx.col_start()[v]; k < ctx.col_start()[v + 1]; ++k) {
            col[static_cast<std::size_t>(ctx.row_idx()[static_cast<std::size_t>(k)])] +=
                ctx.values()[static_cast<std::size_t>(k)];
        }
    } else {
        col[static_cast<std::size_t>(var - n)] = 1.0;
    }
    return col;
}

// max_i |(B x)_i - a_i| where B's slot j holds column basic[j] and x is
// slot-indexed — the FTRAN residual against the explicitly assembled basis.
double ftran_residual(const LpContext& ctx, const std::vector<std::int32_t>& basic,
                      const std::vector<double>& x_slots,
                      const std::vector<double>& a_rows) {
    std::vector<double> bx(ctx.rows(), 0.0);
    for (std::size_t j = 0; j < basic.size(); ++j) {
        if (x_slots[j] == 0.0) continue;
        const std::vector<double> col = column_of(ctx, basic[j]);
        for (std::size_t i = 0; i < bx.size(); ++i) bx[i] += x_slots[j] * col[i];
    }
    double r = 0.0;
    for (std::size_t i = 0; i < bx.size(); ++i) r = std::max(r, std::abs(bx[i] - a_rows[i]));
    return r;
}

// max_j |(B^T rho)_j - c_j| with rho row-indexed and c slot-indexed.
double btran_residual(const LpContext& ctx, const std::vector<std::int32_t>& basic,
                      const std::vector<double>& rho_rows,
                      const std::vector<double>& c_slots) {
    double r = 0.0;
    for (std::size_t j = 0; j < basic.size(); ++j) {
        const std::vector<double> col = column_of(ctx, basic[j]);
        double dot = 0.0;
        for (std::size_t i = 0; i < col.size(); ++i) dot += col[i] * rho_rows[i];
        r = std::max(r, std::abs(dot - c_slots[j]));
    }
    return r;
}

// An optimal basis from the production solve — guaranteed nonsingular and
// mixed structural/logical, which is what the kernel sees in practice.
std::vector<std::int32_t> optimal_basic(const Model& m) {
    const LpResult r = solve_lp(m);
    EXPECT_EQ(r.status, LpStatus::kOptimal);
    return r.basis.basic;
}

TEST(LuKernel, SolvesSatisfyExplicitBasisResiduals) {
    for (std::uint64_t seed : {3u, 17u, 42u}) {
        const Model m = feasible_random_lp(12, 10, seed);
        const LpContext ctx(m);
        const std::vector<std::int32_t> basic = optimal_basic(m);
        ASSERT_EQ(basic.size(), ctx.rows());

        LuFactor lu;
        ASSERT_TRUE(lu.factorize(ctx, basic));
        ASSERT_TRUE(lu.valid());
        EXPECT_EQ(lu.dim(), ctx.rows());

        std::vector<double> x(ctx.rows(), 0.0), rho(ctx.rows(), 0.0);
        std::vector<std::int32_t> xlist, rholist;

        // FTRAN of every structural and logical column.
        const auto total = static_cast<std::int32_t>(ctx.structurals() + ctx.rows());
        for (std::int32_t var = 0; var < total; ++var) {
            lu.ftran_column(ctx, var, x, xlist);
            EXPECT_LT(ftran_residual(ctx, basic, x, column_of(ctx, var)), 1e-8)
                << "seed " << seed << " var " << var;
        }
        // BTRAN of every unit vector (the Devex pivot-row solve).
        for (std::size_t slot = 0; slot < basic.size(); ++slot) {
            lu.btran_unit(slot, rho, rholist);
            std::vector<double> e(basic.size(), 0.0);
            e[slot] = 1.0;
            EXPECT_LT(btran_residual(ctx, basic, rho, e), 1e-8)
                << "seed " << seed << " slot " << slot;
        }
        // Every solve above had a sparse right-hand side; the hypersparse
        // path must actually serve some of them.
        EXPECT_GT(lu.stats().hyper_solves + lu.stats().dense_solves, 0);
        EXPECT_GT(lu.stats().hyper_solves, 0);
        EXPECT_GT(lu.stats().fill_nnz, 0.0);
        EXPECT_GT(lu.stats().basis_nnz, 0.0);
    }
}

TEST(LuKernel, BtranSeedsMatchesDenseWithDuplicateAccumulation) {
    const Model m = feasible_random_lp(10, 8, 5);
    const LpContext ctx(m);
    const std::vector<std::int32_t> basic = optimal_basic(m);
    LuFactor lu;
    ASSERT_TRUE(lu.factorize(ctx, basic));

    // Sparse phase-1-style cost: +-1 on a few slots, one slot repeated (the
    // contract says duplicates accumulate).
    const std::vector<std::int32_t> slots = {0, 3, 5, 3};
    const std::vector<double> vals = {1.0, -1.0, 1.0, -0.5};
    std::vector<double> c(basic.size(), 0.0);
    for (std::size_t k = 0; k < slots.size(); ++k) {
        c[static_cast<std::size_t>(slots[k])] += vals[k];
    }

    std::vector<double> rho(ctx.rows(), 0.0), dense;
    std::vector<std::int32_t> rholist;
    lu.btran_seeds(slots, vals, rho, rholist);
    lu.btran_dense(c, dense);
    for (std::size_t i = 0; i < rho.size(); ++i) {
        EXPECT_NEAR(rho[i], dense[i], 1e-9) << "row " << i;
    }
    EXPECT_LT(btran_residual(ctx, basic, rho, c), 1e-8);
}

TEST(LuKernel, ForrestTomlinChainMatchesFreshFactorization) {
    const Model m = random_lp(14, 12, 9);
    const LpContext ctx(m);
    std::vector<std::int32_t> basic = optimal_basic(m);
    const std::size_t rows = ctx.rows();
    ASSERT_EQ(basic.size(), rows);

    LuFactor lu;
    ASSERT_TRUE(lu.factorize(ctx, basic));

    const auto total = static_cast<std::int32_t>(ctx.structurals() + rows);
    std::vector<std::uint8_t> in_basis(static_cast<std::size_t>(total), 0);
    for (const std::int32_t v : basic) in_basis[static_cast<std::size_t>(v)] = 1;

    std::vector<double> x(rows, 0.0);
    std::vector<std::int32_t> xlist;
    util::SplitMix64 rng(0xfeedULL);
    int accepted = 0;
    std::int32_t probe = 0;
    for (int step = 0; step < 120 && accepted < 24; ++step) {
        // Next nonbasic variable whose FTRAN offers a healthy pivot.
        probe = (probe + 1) % total;
        if (in_basis[static_cast<std::size_t>(probe)]) continue;
        lu.ftran_column(ctx, probe, x, xlist);
        std::size_t slot = 0;
        double best = 0.0;
        for (std::size_t j = 0; j < rows; ++j) {
            if (std::abs(x[j]) > best) {
                best = std::abs(x[j]);
                slot = j;
            }
        }
        if (best < 0.3) continue;  // keep the chain well conditioned
        if (!lu.update(slot)) continue;  // rejected update leaves the factor intact
        in_basis[static_cast<std::size_t>(basic[slot])] = 0;
        in_basis[static_cast<std::size_t>(probe)] = 1;
        basic[slot] = probe;
        ++accepted;

        // The updated factor must still solve against the explicit new basis...
        std::vector<std::int32_t> rl;
        std::vector<double> rho(rows, 0.0);
        lu.ftran_column(ctx, basic[slot], x, xlist);
        EXPECT_LT(ftran_residual(ctx, basic, x, column_of(ctx, basic[slot])), 1e-7)
            << "step " << step;
        lu.btran_unit(slot, rho, rl);
        std::vector<double> e(rows, 0.0);
        e[slot] = 1.0;
        EXPECT_LT(btran_residual(ctx, basic, rho, e), 1e-7) << "step " << step;

        // ...and agree with a from-scratch factorization on a dense solve.
        LuFactor fresh;
        ASSERT_TRUE(fresh.factorize(ctx, basic)) << "step " << step;
        std::vector<double> b(rows), b2, xa, xb;
        for (std::size_t i = 0; i < rows; ++i) b[i] = rng.uniform_real(-1.0, 1.0);
        b2 = b;
        lu.ftran_dense(b, xa);
        fresh.ftran_dense(b2, xb);
        for (std::size_t j = 0; j < rows; ++j) {
            EXPECT_NEAR(xa[j], xb[j], 1e-7 * (1.0 + std::abs(xb[j])))
                << "step " << step << " slot " << j;
        }
    }
    // The chain must have exercised a real run of updates, all
    // Forrest-Tomlin (no intervening refactorization).
    EXPECT_GE(accepted, 8);
    EXPECT_EQ(lu.stats().ft_updates, accepted);
    EXPECT_EQ(lu.stats().refactorizations, 1);
    EXPECT_GT(lu.ops(), 0);
}

TEST(LuKernel, RejectsDuplicateAndSingularBasesThenRecovers) {
    // x + y <= 1 and 2x + 2y <= 4: the columns of x and y are proportional.
    Model m;
    const VarId x = m.add_continuous(0.0, 5.0);
    const VarId y = m.add_continuous(0.0, 5.0);
    m.add_constraint(LinExpr::term(x) + LinExpr::term(y), Sense::kLe, 1.0);
    m.add_constraint(LinExpr::term(x, 2.0) + LinExpr::term(y, 2.0), Sense::kLe, 4.0);
    m.maximize(LinExpr::term(x));
    const LpContext ctx(m);
    const auto n = static_cast<std::int32_t>(ctx.structurals());

    LuFactor lu;
    // Duplicate claim: the same variable in both slots.
    EXPECT_FALSE(lu.factorize(ctx, std::vector<std::int32_t>{0, 0}));
    EXPECT_FALSE(lu.valid());
    // Structurally singular: two proportional columns.
    EXPECT_FALSE(lu.factorize(ctx, std::vector<std::int32_t>{0, 1}));
    EXPECT_FALSE(lu.valid());
    // The same object recovers on a good basis.
    const std::vector<std::int32_t> logical = {n, n + 1};
    ASSERT_TRUE(lu.factorize(ctx, logical));
    EXPECT_TRUE(lu.valid());
    std::vector<double> v(2, 0.0);
    std::vector<std::int32_t> vlist;
    lu.ftran_column(ctx, 0, v, vlist);
    EXPECT_LT(ftran_residual(ctx, logical, v, column_of(ctx, 0)), 1e-12);
}

TEST(LuKernel, PivotOrderHintReplaysAndBadHintsFallBack) {
    const Model m = feasible_random_lp(12, 10, 21);
    const LpContext ctx(m);
    const std::vector<std::int32_t> basic = optimal_basic(m);

    LuFactor first;
    ASSERT_TRUE(first.factorize(ctx, basic));
    std::vector<std::int32_t> slot_out, row_out;
    first.export_pivot_order(slot_out, row_out);
    ASSERT_EQ(slot_out.size(), basic.size());
    ASSERT_EQ(row_out.size(), basic.size());

    // Replaying the exported order must succeed and solve identically.
    LuFactor replay;
    ASSERT_TRUE(replay.factorize(ctx, basic, slot_out, row_out));
    std::vector<double> b(basic.size()), b2, xa, xb;
    util::SplitMix64 rng(77);
    for (auto& e : b) e = rng.uniform_real(-1.0, 1.0);
    b2 = b;
    first.ftran_dense(b, xa);
    replay.ftran_dense(b2, xb);
    for (std::size_t j = 0; j < xa.size(); ++j) {
        EXPECT_NEAR(xa[j], xb[j], 1e-9 * (1.0 + std::abs(xa[j]))) << "slot " << j;
    }

    // A corrupted order (out-of-range row) must refuse the replay...
    std::vector<std::int32_t> bad_row = row_out;
    bad_row[0] = -1;
    LuFactor corrupt;
    EXPECT_FALSE(corrupt.factorize(ctx, basic, slot_out, bad_row));
    // ...and the standard retry-without-hint path must then succeed.
    ASSERT_TRUE(corrupt.factorize(ctx, basic));
    EXPECT_TRUE(corrupt.valid());
}

TEST(LuKernel, WarmReloadRoundTripsThroughExportedPivotOrder) {
    Model m = feasible_random_lp(12, 10, 33);
    const LpResult cold = solve_lp(m);
    ASSERT_EQ(cold.status, LpStatus::kOptimal);
    // The LU kernel's basis carries the pivot order snapshot.
    ASSERT_EQ(cold.basis.pivot_slot.size(), cold.basis.basic.size());
    ASSERT_EQ(cold.basis.pivot_row.size(), cold.basis.basic.size());

    // Re-solving the same model warm must accept the basis outright.
    LpOptions warm_options;
    warm_options.warm_basis = &cold.basis;
    const LpResult same = solve_lp(m, warm_options);
    ASSERT_EQ(same.status, LpStatus::kOptimal);
    EXPECT_TRUE(same.warm_used);
    EXPECT_NEAR(same.objective, cold.objective, kTol * (1.0 + std::abs(cold.objective)));

    // A branch-style bound change keeps the column space, so the warm reload
    // still replays; the result must match a cold solve of the tightened model.
    m.set_upper(static_cast<VarId>(0), std::max(0.0, cold.values[0] - 0.5));
    const LpResult warm = solve_lp(m, warm_options);
    const LpResult fresh = solve_lp(m);
    ASSERT_EQ(warm.status, fresh.status);
    if (fresh.status == LpStatus::kOptimal) {
        EXPECT_NEAR(warm.objective, fresh.objective,
                    kTol * (1.0 + std::abs(fresh.objective)));
    }
}

TEST(LuKernel, FactorCountersSurfaceThroughLpResult) {
    const Model m = feasible_random_lp(14, 12, 55);
    const LpResult r = solve_lp(m);
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    // The lp.factor_* / lp.pricing_* observability surface drains these; a
    // solve that pivots at all must have refactorized at least once and
    // priced something.
    EXPECT_GT(r.factor.refactorizations, 0);
    EXPECT_GT(r.factor.hyper_solves + r.factor.dense_solves, 0);
    EXPECT_GT(r.factor.fill_nnz, 0.0);
    EXPECT_GT(r.factor.basis_nnz, 0.0);
    EXPECT_GT(r.pricing_hits + r.pricing_rebuilds, 0);
}

}  // namespace
}  // namespace hermes::milp
