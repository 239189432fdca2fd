// Seed dense-tableau LP kernel, retained verbatim for equivalence testing.
// See simplex_reference.h.
#include "milp/simplex_reference.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace hermes::milp::reference {

namespace {

constexpr double kEps = 1e-9;
constexpr double kFeasTol = 1e-7;

// Dense tableau: `rows` x `cols` where the last column is the rhs.
class Tableau {
public:
    Tableau(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

    [[nodiscard]] double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    [[nodiscard]] double at(std::size_t r, std::size_t c) const {
        return data_[r * cols_ + c];
    }
    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

    // Gauss-Jordan pivot on (pr, pc). `scratch` receives the nonzero columns
    // of the pivot row so every elimination touches only those entries — the
    // P#1 matrices are sparse enough that this is the difference between
    // O(rows·cols) and O(rows·nnz) per pivot.
    void pivot(std::size_t pr, std::size_t pc, std::vector<double>& cost_row,
               double& cost_rhs, std::vector<std::size_t>& scratch) {
        double* prow = &data_[pr * cols_];
        const double p = prow[pc];
        scratch.clear();
        for (std::size_t c = 0; c < cols_; ++c) {
            if (prow[c] == 0.0) continue;  // structural zero: skip everywhere below
            prow[c] /= p;
            scratch.push_back(c);
        }
        prow[pc] = 1.0;
        for (std::size_t r = 0; r < rows_; ++r) {
            if (r == pr) continue;
            double* row = &data_[r * cols_];
            const double f = row[pc];
            if (f == 0.0) continue;
            if (std::abs(f) >= kEps) {
                for (const std::size_t c : scratch) row[c] -= f * prow[c];
            }
            row[pc] = 0.0;  // exact unit pivot column
        }
        const double cf = cost_row[pc];
        if (std::abs(cf) >= kEps) {
            for (const std::size_t c : scratch) {
                if (c < cols_ - 1) cost_row[c] -= cf * prow[c];
            }
            cost_rhs -= cf * prow[cols_ - 1];
        }
        cost_row[pc] = 0.0;  // exact, avoids round-off residue on the pivot column
    }

private:
    std::size_t rows_;
    std::size_t cols_;
    std::vector<double> data_;
};

// Standard form with a layout that depends only on the model's shape
// (constraint senses and which variables have finite upper bounds), never on
// rhs signs: one slack/surplus column per inequality and one artificial
// column per row. Bound changes between branch-and-bound nodes therefore
// keep the column space identical, which is what makes a parent basis
// meaningful for a child solve.
struct StandardForm {
    Tableau tableau{0, 0};
    std::vector<std::size_t> basis;       // basis[r] = column basic in row r
    std::vector<bool> usable;             // columns allowed to enter (false = artificial)
    std::size_t structural_count = 0;     // shifted model variables
    std::size_t artificial_begin = 0;     // first artificial column
    std::vector<double> shift;            // lb per model variable
    std::vector<double> costs;            // phase-2 cost per column (structural only)
    double objective_constant = 0.0;      // folded objective constant
    bool negate_result = false;           // true for maximization models
};

StandardForm build(const Model& model) {
    const std::size_t n = model.variable_count();
    StandardForm sf;
    sf.shift.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
        const Variable& v = model.variable(static_cast<VarId>(j));
        if (!std::isfinite(v.lower)) {
            throw std::invalid_argument("solve_lp: variable '" + v.name +
                                        "' has non-finite lower bound");
        }
        sf.shift[j] = v.lower;
    }

    // Row list: model constraints (rhs adjusted by shifts) + upper-bound rows.
    struct Row {
        std::vector<Term> terms;
        Sense sense;
        double rhs;
    };
    std::vector<Row> rows;
    rows.reserve(model.constraint_count() + n);
    for (const Constraint& c : model.constraints()) {
        double rhs = c.rhs;
        for (const Term& t : c.expr.terms()) {
            rhs -= t.coef * sf.shift[static_cast<std::size_t>(t.var)];
        }
        rows.push_back(Row{c.expr.terms(), c.sense, rhs});
    }
    for (std::size_t j = 0; j < n; ++j) {
        const Variable& v = model.variable(static_cast<VarId>(j));
        if (!std::isfinite(v.upper)) continue;
        rows.push_back(Row{{Term{static_cast<VarId>(j), 1.0}}, Sense::kLe,
                           v.upper - v.lower});
    }

    std::size_t slack_count = 0;
    for (const Row& r : rows) {
        if (r.sense != Sense::kEq) ++slack_count;  // slack or surplus
    }

    const std::size_t m = rows.size();
    sf.structural_count = n;
    sf.artificial_begin = n + slack_count;
    const std::size_t total_cols = n + slack_count + m + 1;
    sf.tableau = Tableau(m, total_cols);
    sf.basis.assign(m, 0);
    sf.usable.assign(total_cols - 1, true);

    std::size_t next_slack = n;
    for (std::size_t r = 0; r < m; ++r) {
        for (const Term& t : rows[r].terms) {
            sf.tableau.at(r, static_cast<std::size_t>(t.var)) += t.coef;
        }
        sf.tableau.at(r, total_cols - 1) = rows[r].rhs;
        std::size_t slack_col = total_cols;
        if (rows[r].sense != Sense::kEq) {
            slack_col = next_slack++;
            sf.tableau.at(r, slack_col) = rows[r].sense == Sense::kLe ? 1.0 : -1.0;
        }
        if (rows[r].rhs < 0.0) {
            // Normalize rhs >= 0 by scaling the row; the column layout is
            // untouched, only the starting basis choice below changes.
            for (std::size_t c = 0; c < total_cols; ++c) {
                sf.tableau.at(r, c) = -sf.tableau.at(r, c);
            }
        }
        const std::size_t art_col = sf.artificial_begin + r;
        sf.tableau.at(r, art_col) = 1.0;
        sf.basis[r] = (slack_col != total_cols && sf.tableau.at(r, slack_col) > 0.0)
                          ? slack_col
                          : art_col;
    }
    for (std::size_t c = sf.artificial_begin; c < total_cols - 1; ++c) {
        sf.usable[c] = false;  // artificials may never re-enter
    }

    // Phase-2 costs (minimization sense).
    sf.costs.assign(total_cols - 1, 0.0);
    const double sign = model.is_minimization() ? 1.0 : -1.0;
    sf.negate_result = !model.is_minimization();
    sf.objective_constant = sign * model.objective().constant();
    for (const Term& t : model.objective().terms()) {
        sf.costs[static_cast<std::size_t>(t.var)] = sign * t.coef;
        sf.objective_constant += sign * t.coef * sf.shift[static_cast<std::size_t>(t.var)];
    }
    return sf;
}

enum class PivotOutcome { kOptimal, kUnbounded, kIterationLimit };

// Runs the simplex pivot loop on `sf` for the given cost row. `allow_enter`
// masks columns that may enter (artificials always excluded).
PivotOutcome run_simplex(StandardForm& sf, std::vector<double>& cost_row, double& cost_rhs,
                         const std::vector<bool>& allow_enter, std::int64_t& iterations,
                         std::int64_t max_iterations,
                         std::chrono::steady_clock::time_point deadline,
                         std::vector<std::size_t>& scratch) {
    Tableau& t = sf.tableau;
    const std::size_t rhs_col = t.cols() - 1;
    const std::int64_t bland_threshold = 4 * static_cast<std::int64_t>(
        t.rows() + t.cols());  // switch to Bland to kill cycles
    std::int64_t local_iterations = 0;

    while (true) {
        if (iterations >= max_iterations) return PivotOutcome::kIterationLimit;
        if ((local_iterations & 63) == 0 &&
            std::chrono::steady_clock::now() > deadline) {
            return PivotOutcome::kIterationLimit;
        }

        // Entering column.
        std::size_t enter = rhs_col;
        if (local_iterations < bland_threshold) {
            double best = -kEps;
            for (std::size_t c = 0; c < rhs_col; ++c) {
                if (!allow_enter[c]) continue;
                if (cost_row[c] < best) {
                    best = cost_row[c];
                    enter = c;
                }
            }
        } else {
            for (std::size_t c = 0; c < rhs_col; ++c) {
                if (allow_enter[c] && cost_row[c] < -kEps) {
                    enter = c;
                    break;
                }
            }
        }
        if (enter == rhs_col) return PivotOutcome::kOptimal;

        // Leaving row: min-ratio, ties by smallest basis column (Bland-safe).
        std::size_t leave = t.rows();
        double best_ratio = 0.0;
        for (std::size_t r = 0; r < t.rows(); ++r) {
            const double a = t.at(r, enter);
            if (a <= kEps) continue;
            const double ratio = t.at(r, rhs_col) / a;
            if (leave == t.rows() || ratio < best_ratio - kEps ||
                (ratio < best_ratio + kEps && sf.basis[r] < sf.basis[leave])) {
                best_ratio = ratio;
                leave = r;
            }
        }
        if (leave == t.rows()) return PivotOutcome::kUnbounded;

        t.pivot(leave, enter, cost_row, cost_rhs, scratch);
        sf.basis[leave] = enter;
        ++iterations;
        ++local_iterations;
    }
}

// Recomputes phase-2 reduced costs for the current basis.
void phase2_costs(const StandardForm& sf, std::vector<double>& cost_row,
                  double& cost_rhs) {
    const Tableau& t = sf.tableau;
    const std::size_t rhs_col = t.cols() - 1;
    cost_row.assign(rhs_col, 0.0);
    for (std::size_t c = 0; c < rhs_col; ++c) cost_row[c] = sf.costs[c];
    cost_rhs = 0.0;
    for (std::size_t r = 0; r < t.rows(); ++r) {
        const double cb = sf.costs[sf.basis[r]];
        if (std::abs(cb) < kEps) continue;
        for (std::size_t c = 0; c < rhs_col; ++c) cost_row[c] -= cb * t.at(r, c);
        cost_rhs -= cb * t.at(r, rhs_col);
    }
    for (std::size_t r = 0; r < t.rows(); ++r) cost_row[sf.basis[r]] = 0.0;
}

// Re-establishes a parent basis on a freshly built tableau by pivoting each
// basic column into place (largest-pivot row choice for stability). Returns
// false when the basis does not fit this standard form or turns out
// singular — the caller then takes the cold path.
bool refactorize(StandardForm& sf, const Basis& warm, std::int64_t& iterations,
                 std::vector<std::size_t>& scratch) {
    Tableau& t = sf.tableau;
    const std::size_t rhs_col = t.cols() - 1;
    if (warm.basic.size() != t.rows() || warm.columns != rhs_col) return false;
    std::vector<double> no_cost(rhs_col, 0.0);
    double no_rhs = 0.0;
    std::vector<char> placed(t.rows(), 0);
    // Slack/artificial basis columns first: on a fresh tableau each is still
    // a one-entry unit vector, so pivoting it in scales one row and triggers
    // no elimination. Only the (few) structural basic columns that follow
    // pay for real Gauss-Jordan work.
    std::vector<std::int32_t> order(warm.basic);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::int32_t a, std::int32_t b) {
                         const bool slack_a =
                             a >= 0 && static_cast<std::size_t>(a) >= sf.structural_count;
                         const bool slack_b =
                             b >= 0 && static_cast<std::size_t>(b) >= sf.structural_count;
                         return slack_a > slack_b;
                     });
    for (const std::int32_t raw : order) {
        if (raw < 0 || static_cast<std::size_t>(raw) >= rhs_col) return false;
        const auto col = static_cast<std::size_t>(raw);
        std::size_t pr = t.rows();
        double best = kFeasTol;  // refuse near-singular pivots
        for (std::size_t r = 0; r < t.rows(); ++r) {
            if (placed[r]) continue;
            const double a = std::abs(t.at(r, col));
            if (a > best) {
                best = a;
                pr = r;
            }
        }
        if (pr == t.rows()) return false;
        t.pivot(pr, col, no_cost, no_rhs, scratch);
        sf.basis[pr] = col;
        placed[pr] = 1;
        ++iterations;
    }
    return true;
}

enum class DualOutcome { kFeasible, kStalled, kIterationLimit };

// Dual simplex repair: drives negative rhs entries out of the basis while
// preserving dual feasibility of `cost_row`. Used after a warm start, where
// a bound change leaves the parent basis optimal in reduced costs but
// primal-infeasible in a handful of rows. Returns kStalled — meaning "give
// up, take the cold two-phase path" — whenever the repair cannot proceed on
// a well-conditioned pivot: a dense refactorized tableau accumulates round-off
// fast, so this path never claims infeasibility itself (pivoting on ~1e-9
// entries was observed to amplify rhs error past 1e20 and mint false
// infeasibility certificates on degenerate P#1 bases). The cold path is the
// only authority for an infeasible verdict.
DualOutcome run_dual(StandardForm& sf, std::vector<double>& cost_row, double& cost_rhs,
                     std::int64_t& iterations, std::int64_t max_iterations,
                     std::chrono::steady_clock::time_point deadline,
                     std::vector<std::size_t>& scratch) {
    Tableau& t = sf.tableau;
    const std::size_t rhs_col = t.cols() - 1;
    const std::int64_t stall_cap = 4 * static_cast<std::int64_t>(t.rows() + t.cols());
    constexpr double kRunawayRhs = 1e13;  // corrupted-tableau detector
    std::int64_t local = 0;
    while (true) {
        if (iterations >= max_iterations) return DualOutcome::kIterationLimit;
        if ((local & 63) == 0 && std::chrono::steady_clock::now() > deadline) {
            return DualOutcome::kIterationLimit;
        }
        if (local >= stall_cap) return DualOutcome::kStalled;

        // Leaving row: most negative rhs, ties by smallest basis column.
        std::size_t leave = t.rows();
        double best_b = -kFeasTol;
        for (std::size_t r = 0; r < t.rows(); ++r) {
            const double b = t.at(r, rhs_col);
            if (b >= -kFeasTol) continue;
            if (leave == t.rows() || b < best_b - kEps ||
                (b < best_b + kEps && sf.basis[r] < sf.basis[leave])) {
                best_b = std::min(best_b, b);
                leave = r;
            }
        }
        if (leave == t.rows()) return DualOutcome::kFeasible;
        if (best_b < -kRunawayRhs) return DualOutcome::kStalled;

        // Entering column: dual ratio test over well-conditioned negative
        // entries of the row; ratio ties prefer the largest-magnitude pivot.
        std::size_t enter = rhs_col;
        double best_ratio = 0.0;
        double best_mag = 0.0;
        for (std::size_t c = 0; c < rhs_col; ++c) {
            if (!sf.usable[c]) continue;
            const double a = t.at(leave, c);
            if (a >= -kFeasTol) continue;  // refuse near-singular dual pivots
            const double ratio = std::max(cost_row[c], 0.0) / -a;
            if (enter == rhs_col || ratio < best_ratio - kEps ||
                (std::abs(ratio - best_ratio) <= kEps && -a > best_mag)) {
                best_ratio = ratio;
                best_mag = -a;
                enter = c;
            }
        }
        if (enter == rhs_col) return DualOutcome::kStalled;

        t.pivot(leave, enter, cost_row, cost_rhs, scratch);
        sf.basis[leave] = enter;
        ++iterations;
        ++local;
    }
}

// Constraint-only feasibility (bounds and rows, no integrality): the final
// gate on a warm-started solve. A repair that drifted numerically can reach
// "optimal" on a tableau that no longer represents the model; the result is
// only trusted when the extracted point satisfies the model directly.
bool satisfies_constraints(const Model& model, const std::vector<double>& values) {
    constexpr double kGuardTol = 1e-6;
    for (std::size_t j = 0; j < model.variable_count(); ++j) {
        const Variable& v = model.variable(static_cast<VarId>(j));
        const double tol = kGuardTol * (1.0 + std::abs(values[j]));
        if (values[j] < v.lower - tol || values[j] > v.upper + tol) return false;
    }
    for (const Constraint& c : model.constraints()) {
        const double lhs = c.expr.evaluate(values);
        const double tol = kGuardTol * (1.0 + std::abs(c.rhs));
        switch (c.sense) {
            case Sense::kLe:
                if (lhs > c.rhs + tol) return false;
                break;
            case Sense::kGe:
                if (lhs < c.rhs - tol) return false;
                break;
            case Sense::kEq:
                if (std::abs(lhs - c.rhs) > tol) return false;
                break;
        }
    }
    return true;
}

}  // namespace

LpResult solve_lp(const Model& model, const LpOptions& options) {
    const std::int64_t max_iterations = options.iteration_limit;
    const double max_seconds = options.time_limit_seconds;
    const Basis* const warm_basis = options.warm_basis;
    const auto deadline =
        max_seconds >= 1e17
            ? std::chrono::steady_clock::time_point::max()
            : std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(max_seconds));
    LpResult result;
    std::vector<std::size_t> scratch;
    std::vector<double> cost_row;

    // Two attempts at most: a warm-started dual repair first (when a parent
    // basis is supplied), then the authoritative cold two-phase solve. The
    // warm attempt may only return kOptimal, and only after its solution
    // verifies against the model; every other outcome — refactorization
    // failure, repair stall, or a point that fails the constraint gate —
    // falls through to the cold attempt.
    const bool have_warm = warm_basis != nullptr && !warm_basis->empty();
    for (int attempt = have_warm ? 0 : 1; attempt < 2; ++attempt) {
        const bool warm_attempt = attempt == 0;
        StandardForm sf = build(model);
        Tableau& t = sf.tableau;
        const std::size_t rhs_col = t.cols() - 1;
        scratch.reserve(t.cols());
        double cost_rhs = 0.0;

        if (warm_attempt) {
            if (!refactorize(sf, *warm_basis, result.iterations, scratch)) continue;
            phase2_costs(sf, cost_row, cost_rhs);
            const DualOutcome repair = run_dual(sf, cost_row, cost_rhs, result.iterations,
                                                max_iterations, deadline, scratch);
            if (repair == DualOutcome::kIterationLimit) {
                result.status = LpStatus::kIterationLimit;
                return result;
            }
            if (repair == DualOutcome::kStalled) continue;  // cold path decides
        } else {
            // ---- Phase 1: minimize the sum of artificials. ----
            cost_row.assign(rhs_col, 0.0);
            cost_rhs = 0.0;
            // Reduced costs for cost vector e_artificials with artificial basis:
            // subtract each artificial-basic row from the cost row.
            for (std::size_t r = 0; r < t.rows(); ++r) {
                if (sf.basis[r] < sf.artificial_begin) continue;
                for (std::size_t c = 0; c < rhs_col; ++c) cost_row[c] -= t.at(r, c);
                cost_rhs -= t.at(r, rhs_col);
            }
            for (std::size_t c = sf.artificial_begin; c < rhs_col; ++c) cost_row[c] = 0.0;

            const PivotOutcome phase1 =
                run_simplex(sf, cost_row, cost_rhs, sf.usable, result.iterations,
                            max_iterations, deadline, scratch);
            if (phase1 == PivotOutcome::kIterationLimit) {
                result.status = LpStatus::kIterationLimit;
                return result;
            }
            if (-cost_rhs > kFeasTol) {  // phase-1 objective = -cost_rhs after pivots
                result.status = LpStatus::kInfeasible;
                return result;
            }

            // Drive any residual basic artificials out of the basis.
            for (std::size_t r = 0; r < t.rows(); ++r) {
                if (sf.basis[r] < sf.artificial_begin) continue;
                std::size_t enter = rhs_col;
                for (std::size_t c = 0; c < sf.artificial_begin; ++c) {
                    if (std::abs(t.at(r, c)) > kEps) {
                        enter = c;
                        break;
                    }
                }
                if (enter == rhs_col) continue;  // redundant row; harmless to keep
                t.pivot(r, enter, cost_row, cost_rhs, scratch);
                sf.basis[r] = enter;
            }

            phase2_costs(sf, cost_row, cost_rhs);
        }

        // ---- Phase 2: original objective (also the warm-start polish). ----
        const PivotOutcome phase2 = run_simplex(sf, cost_row, cost_rhs, sf.usable,
                                                result.iterations, max_iterations,
                                                deadline, scratch);
        if (phase2 == PivotOutcome::kIterationLimit) {
            result.status = LpStatus::kIterationLimit;
            return result;
        }
        if (phase2 == PivotOutcome::kUnbounded) {
            if (warm_attempt) continue;  // cold path decides
            result.status = LpStatus::kUnbounded;
            return result;
        }

        // Extract solution: basic shifted vars read from rhs, others at 0.
        result.values.assign(model.variable_count(), 0.0);
        for (std::size_t r = 0; r < t.rows(); ++r) {
            if (sf.basis[r] < sf.structural_count) {
                result.values[sf.basis[r]] = t.at(r, rhs_col);
            }
        }
        for (std::size_t j = 0; j < model.variable_count(); ++j) {
            result.values[j] += sf.shift[j];
        }
        if (warm_attempt && !satisfies_constraints(model, result.values)) {
            result.values.clear();
            continue;  // drifted repair; redo cold
        }
        // Objective evaluated at the extracted point: immune to the round-off
        // that cost_rhs accumulates over the pivot sequence.
        result.objective = model.objective_value(result.values);
        result.status = LpStatus::kOptimal;
        result.warm_used = warm_attempt;

        result.basis.basic.reserve(t.rows());
        for (std::size_t r = 0; r < t.rows(); ++r) {
            result.basis.basic.push_back(static_cast<std::int32_t>(sf.basis[r]));
        }
        result.basis.columns = static_cast<std::uint32_t>(rhs_col);
        return result;
    }
    // Unreachable: the cold attempt always returns.
    result.status = LpStatus::kIterationLimit;
    return result;
}

}  // namespace hermes::milp::reference
