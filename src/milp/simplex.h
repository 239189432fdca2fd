// LP solver: revised primal simplex over a compressed-sparse-column matrix
// with a sparse LU basis factorization, Forrest-Tomlin updates, hypersparse
// triangular solves, and Devex candidate-list pricing.
//
// The constraint matrix is converted once into an immutable LpContext: CSC
// arrays for the structural columns (plus a CSR mirror for pivot-row
// pricing), one implicit logical (slack/surplus) column per row, and the
// objective folded to minimization sense. Variable bounds are NOT part of
// the context — they are passed to each solve — so a branch-and-bound search
// builds the context once and re-solves thousands of node LPs against the
// same matrix with per-node bound vectors.
//
// The default kernel (milp/lu.h) keeps the basis as a sparse LU: Markowitz
// pivoting with threshold partial pivoting at refactorization, one
// Forrest-Tomlin update per simplex pivot, and FTRAN/BTRAN that walk only
// the reachable nonzero set when the right-hand side is sparse. Pricing is
// Devex (reference-framework weights, approximating steepest edge at a
// Dantzig price) over a small candidate list, with reduced costs maintained
// incrementally from the BTRANed pivot row and recomputed at every
// refactorization; a degenerate run degrades to Bland's rule on a full scan
// so cycling cannot occur. Bounds are handled natively: nonbasic variables
// sit at either bound, the phase-1 ratio test walks bound-flip breakpoints
// (long-step), and 0/1 variables therefore cost nothing beyond their column.
//
// Infeasibility is resolved by a phase-1 that minimizes the sum of primal
// infeasibilities from ANY starting basis. A warm start loads the parent
// basis (replaying its exported pivot order when present), recomputes the
// basic solution, and lets phase 1 repair the rows the branching bound
// change disturbed, under a pivot budget and a crash-basis gate; every
// non-optimal warm outcome except a confirmed infeasibility falls through to
// the authoritative cold solve.
//
// This is the only kernel the library runs. The seed dense-tableau kernel
// lives on in milp/simplex_reference.h (namespace milp::reference) as the
// LP-level oracle tests/simplex_equivalence_test.cpp compares it against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/options.h"
#include "milp/lu.h"
#include "milp/model.h"

namespace hermes::milp {

enum class LpStatus : std::uint8_t {
    kOptimal,
    kInfeasible,
    kUnbounded,
    kIterationLimit,
};

[[nodiscard]] const char* to_string(LpStatus s) noexcept;

// A simplex basis: basic[r] is the variable basic in slot r (structural
// variables are 0..n-1, the logical of row i is n+i), and at_upper flags
// which nonbasic variables rest at their upper bound. `columns` (= n + m
// for the revised kernel) together with basic.size() (= m) forms the
// compatibility signature: a warm start is attempted only when the target
// model has the same shape, which holds across branch-and-bound bound
// changes because bounds are not part of the column space.
//
// pivot_slot/pivot_row (either both size m or both empty) carry the LU
// kernel's pivot order — the (slot, row) elimination sequence of the last
// factorization — so a warm reload can replay it instead of re-running
// Markowitz selection. Reference-kernel bases leave them empty; a stale or
// unusable order silently degrades to fresh selection.
//
// (The reference kernel exports a basis in its own column space —
// structurals + slacks + artificials — with at_upper empty; each kernel
// rejects the other's bases by signature and degrades to a cold solve.)
struct Basis {
    std::vector<std::int32_t> basic;
    std::vector<std::uint8_t> at_upper;
    std::uint32_t columns = 0;
    std::vector<std::int32_t> pivot_slot;
    std::vector<std::int32_t> pivot_row;

    [[nodiscard]] bool empty() const noexcept { return basic.empty(); }
};

// Why a warm attempt did not survive to the returned optimum. Feeds the
// lp.warm_abandon_* observability counters so a branch-and-bound run can
// report *where* its warm starts die, not just that they missed.
enum class WarmAbandon : std::uint8_t {
    kNone,       // warm basis survived (warm_used == true) or none was given
    kLoad,       // shape/bound-compatibility rejection before factorizing
    kFactorize,  // duplicate row claim or singular column during refactorize
    kGate,       // repaired basis judged worse than a fresh crash basis
    kBudget,     // warm pivot budget exhausted before re-optimizing
    kVerdict,    // warm reached a non-optimal verdict (cold must decide)
    kVerify,     // warm optimum failed the constraint re-verification
};

struct LpResult {
    LpStatus status = LpStatus::kIterationLimit;
    double objective = 0.0;             // in the model's own sense (min or max)
    std::vector<double> values;         // one per model variable (original space)
    std::int64_t iterations = 0;        // priced simplex pivots + bound flips
    // LU kernel counters for the lp.factor_* observability surface:
    // refactorizations, FT updates, hypersparse vs dense solves, and factor
    // vs basis nonzeros (their ratio is the fill-in). All zero when the
    // solve ran on the reference kernel.
    LuFactor::Stats factor;
    // Candidate-list pricing: prices served from the standing candidate list
    // vs full-scan rebuilds (hit rate = hits / (hits + rebuilds)).
    std::int64_t pricing_hits = 0;
    std::int64_t pricing_rebuilds = 0;
    Basis basis;                        // exported on kOptimal; empty otherwise
    // Row duals and structural reduced costs at the optimum, in the model's
    // own objective sense; filled on kOptimal when
    // LpOptions::want_dual_values is set (empty otherwise). Benders-style
    // decomposition reads `duals` for optimality cuts, and the MILP search
    // reads root `reduced_costs` for incumbent-driven bound tightening.
    std::vector<double> duals;
    std::vector<double> reduced_costs;
    // True when a supplied warm basis survived to the returned optimum (a
    // false value on kOptimal means the warm attempt degraded to the cold
    // path). Feeds the lp.warm_hits / lp.warm_misses observability counters.
    bool warm_used = false;
    // Iterations charged to the abandoned warm attempt (0 on a hit): the
    // pure waste a miss added on top of the authoritative cold solve.
    std::int64_t warm_wasted_iterations = 0;
    WarmAbandon warm_abandon = WarmAbandon::kNone;
};

// Inherits the common knobs (core/options.h): `iteration_limit` replaces the
// pre-obs `max_iterations` spelling (default 200000 pivots) and
// `time_limit_seconds` replaces `max_seconds` (<= 0 means no budget; checked
// periodically, expiry yields kIterationLimit). An active `deadline` token is
// polled in the same pivot-loop check and trips the same way, so a caller can
// cancel a solve mid-pivot without waiting for the wall clock. threads/seed
// are accepted but unused — one LP solve is single-threaded and
// deterministic.
struct LpOptions : core::CommonOptions {
    LpOptions() noexcept { iteration_limit = 200000; }

    // Non-empty parent basis to warm start from; incompatible or numerically
    // unusable bases silently degrade to the cold path.
    const Basis* warm_basis = nullptr;
    // Pivot allowance for a warm attempt before it is abandoned for the cold
    // path; 0 = auto (a small multiple of the basis reload cost). A failed
    // warm attempt wastes its whole budget on top of the cold solve, so this
    // is deliberately tight — see DESIGN.md 5e.
    std::int64_t warm_pivot_budget = 0;
    // Fill LpResult::duals / reduced_costs on kOptimal (one extra BTRAN plus
    // one pricing-style pass; off by default).
    bool want_dual_values = false;
};

// Per-thread scratch reused across solves. Contents are meaningless between
// calls; a default-constructed workspace is ready to use. Callers that solve
// many LPs against one context (branch and bound) should keep one per worker
// to avoid reallocating the factor pools on every node.
struct LpWorkspace {
    std::vector<double> x, y, col, rhs_work;
    std::vector<double> lower, upper;
    std::vector<std::int32_t> basic;
    std::vector<std::int8_t> vstat;
    // The LU factorization plus sparse solve vectors under the
    // zero-outside-list contract (xcol/xlist entering column, rho/rholist
    // BTRANed pivot row), the incremental reduced costs d with Devex weights,
    // and the pricing candidate list.
    LuFactor lu;
    std::vector<double> xcol, rho, alpha, d, devex;
    std::vector<std::int32_t> xlist, rholist, alist, cand;
    // Sparse phase-1 pricing vector (btran_seeds zero/list contract).
    std::vector<double> yspar;
    std::vector<std::int32_t> yslist;
};

// Immutable standard-form image of a Model: CSC structural columns (with a
// CSR row mirror), row senses/rhs, minimization-sense objective. Safe to
// share across threads; bounds are supplied per solve.
class LpContext {
public:
    explicit LpContext(const Model& model);

    [[nodiscard]] std::size_t rows() const noexcept { return rhs_.size(); }
    [[nodiscard]] std::size_t structurals() const noexcept { return obj_.size(); }
    [[nodiscard]] std::size_t nonzeros() const noexcept { return val_.size(); }

    // CSC structural columns: column j spans [col_start()[j],
    // col_start()[j+1]) of row_idx()/values().
    [[nodiscard]] const std::vector<std::int64_t>& col_start() const noexcept {
        return col_start_;
    }
    [[nodiscard]] const std::vector<std::int32_t>& row_idx() const noexcept {
        return row_idx_;
    }
    [[nodiscard]] const std::vector<double>& values() const noexcept {
        return val_;
    }
    // CSR mirror of the same matrix: row i spans [row_start()[i],
    // row_start()[i+1]) of row_col()/row_val(). The pricing loop scatters a
    // sparse BTRANed pivot row through these.
    [[nodiscard]] const std::vector<std::int64_t>& row_start() const noexcept {
        return row_start_;
    }
    [[nodiscard]] const std::vector<std::int32_t>& row_col() const noexcept {
        return row_col_;
    }
    [[nodiscard]] const std::vector<double>& row_val() const noexcept {
        return row_val_;
    }
    [[nodiscard]] const std::vector<Sense>& row_sense() const noexcept {
        return row_sense_;
    }
    [[nodiscard]] const std::vector<double>& rhs() const noexcept { return rhs_; }
    // Minimization-sense cost per structural variable.
    [[nodiscard]] const std::vector<double>& objective() const noexcept {
        return obj_;
    }
    [[nodiscard]] double objective_constant() const noexcept { return obj_constant_; }
    // +1 for a minimization model, -1 for maximization (results are reported
    // in the model's own sense).
    [[nodiscard]] double sense_sign() const noexcept { return sense_sign_; }

    // Structural variable bounds as captured from the model at build time
    // (the defaults a caller perturbs per node).
    [[nodiscard]] const std::vector<double>& model_lower() const noexcept {
        return model_lower_;
    }
    [[nodiscard]] const std::vector<double>& model_upper() const noexcept {
        return model_upper_;
    }

    // Solves the LP over this matrix with the given structural bounds
    // (size = structurals(); every lower bound must be finite, matching the
    // Model-level contract — std::invalid_argument otherwise).
    [[nodiscard]] LpResult solve(std::span<const double> lower,
                                 std::span<const double> upper,
                                 const LpOptions& options = {},
                                 LpWorkspace* workspace = nullptr) const;

private:
    std::vector<std::int64_t> col_start_;  // CSC: n+1 offsets
    std::vector<std::int32_t> row_idx_;
    std::vector<double> val_;
    std::vector<std::int64_t> row_start_;  // CSR: m+1 offsets
    std::vector<std::int32_t> row_col_;
    std::vector<double> row_val_;
    std::vector<Sense> row_sense_;
    std::vector<double> rhs_;
    std::vector<double> obj_;              // minimization-sense cost per structural
    double obj_constant_ = 0.0;            // minimization-sense folded constant
    double sense_sign_ = 1.0;              // +1 min model, -1 max model
    std::vector<double> model_lower_, model_upper_;
};

// Solves the LP relaxation of `model` (integrality dropped) by building a
// one-shot LpContext. Throws std::invalid_argument on variables with
// non-finite lower bounds. All knobs — iteration_limit, time_limit_seconds,
// deadline, warm_basis — come from LpOptions; the pre-obs
// (max_iterations, max_seconds, warm_basis) parameter spelling is gone.
[[nodiscard]] LpResult solve_lp(const Model& model, const LpOptions& options = {});

}  // namespace hermes::milp
