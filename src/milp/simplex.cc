// The default LP kernel: revised primal simplex over the sparse LU basis
// factorization in milp/lu.h, with Forrest-Tomlin updates per pivot, Devex
// candidate-list pricing maintained incrementally from the BTRANed pivot
// row, and a long-step (bound-flipping) phase-1 ratio test. See simplex.h
// for the solver-level contract (including the warm/cold attempt protocol)
// and DESIGN.md 5e for the numbers behind the knobs.
//
// This file also owns LpContext construction (CSC columns plus the CSR
// mirror the pricing update scatters through).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "milp/simplex.h"

namespace hermes::milp {

namespace {

constexpr double kEps = 1e-9;       // reduced-cost / ratio tie tolerance
constexpr double kFeasTol = 1e-7;   // primal bound feasibility
constexpr double kPivTol = 1e-7;    // smallest acceptable pivot magnitude
constexpr double kDropTol = 1e-12;  // entries below this are structural zero
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kCandMax = 64;   // pricing candidate-list capacity
constexpr double kDevexReset = 1e8;    // weight overflow -> reset framework
// Pivots since the last factorization that force a refactorization (and a
// from-scratch recompute of the basic solution). Smaller = more stable,
// larger = cheaper solves; 64 is comfortable for the few-hundred-row P#1
// instances.
constexpr std::int64_t kRefactorInterval = 64;

constexpr std::int8_t kAtLower = 0;
constexpr std::int8_t kAtUpper = 1;
constexpr std::int8_t kBasic = 2;

[[nodiscard]] std::chrono::steady_clock::time_point make_deadline(double max_seconds) {
    if (max_seconds <= 0.0 || max_seconds >= 1e17) {
        return std::chrono::steady_clock::time_point::max();  // no budget
    }
    return std::chrono::steady_clock::now() +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(max_seconds));
}

// One solve attempt-pair (warm then cold) over an LpContext. Slots are
// stable basis positions (x_B[slot] belongs to basic[slot]); a pivot swaps
// the variable in one slot and applies a Forrest-Tomlin update, never
// renumbering the others.
class LuSimplex {
public:
    LuSimplex(const LpContext& ctx, std::span<const double> lower,
              std::span<const double> upper, const LpOptions& options,
              LpWorkspace& ws)
        : ctx_(ctx),
          ws_(ws),
          options_(options),
          n_(ctx.structurals()),
          m_(ctx.rows()),
          total_(ctx.structurals() + ctx.rows()),
          deadline_(make_deadline(options.time_limit_seconds)) {
        ws_.lower.assign(total_, 0.0);
        ws_.upper.assign(total_, 0.0);
        for (std::size_t j = 0; j < n_; ++j) {
            if (!std::isfinite(lower[j])) {
                throw std::invalid_argument("solve_lp: variable " + std::to_string(j) +
                                            " has non-finite lower bound");
            }
            ws_.lower[j] = lower[j];
            ws_.upper[j] = upper[j];
        }
        for (std::size_t i = 0; i < m_; ++i) {
            switch (ctx_.row_sense()[i]) {
                case Sense::kLe:
                    ws_.lower[n_ + i] = 0.0;
                    ws_.upper[n_ + i] = kInf;
                    break;
                case Sense::kGe:
                    ws_.lower[n_ + i] = -kInf;
                    ws_.upper[n_ + i] = 0.0;
                    break;
                case Sense::kEq:
                    ws_.lower[n_ + i] = 0.0;
                    ws_.upper[n_ + i] = 0.0;
                    break;
            }
        }
        // The alpha scatter (pricing update) relies on alpha being all-zero
        // and unmarked between pivots; establish that across workspace reuse.
        ws_.alpha.assign(total_, 0.0);
        ws_.alist.clear();
        amark_.assign(total_, 0);
    }

    [[nodiscard]] LpResult run() {
        ws_.lu.stats().reset();  // drained per solve, not per factor lifetime
        LpResult result = run_attempts();
        result.factor = ws_.lu.stats();
        result.pricing_hits = pricing_hits_;
        result.pricing_rebuilds = pricing_rebuilds_;
        return result;
    }

private:
    [[nodiscard]] LpResult run_attempts() {
        LpResult result;
        // Crossed bounds (branching can produce lower > upper) make the box
        // itself empty; pricing treats negative-range variables as fixed, so
        // reject up front.
        for (std::size_t j = 0; j < total_; ++j) {
            if (ws_.lower[j] >
                ws_.upper[j] + kFeasTol * (1.0 + std::abs(ws_.upper[j]))) {
                result.status = LpStatus::kInfeasible;
                return result;
            }
        }
        const bool have_warm =
            options_.warm_basis != nullptr && !options_.warm_basis->empty();
        const auto abandon = [&](WarmAbandon why) {
            result.warm_abandon = why;
            result.warm_wasted_iterations = result.iterations;
        };
        for (int attempt = have_warm ? 0 : 1; attempt < 2; ++attempt) {
            const bool warm = attempt == 0;
            if (warm) {
                if (!load_warm_basis(*options_.warm_basis)) {
                    abandon(WarmAbandon::kLoad);
                    continue;
                }
            } else {
                load_cold_basis();
            }
            ws_.devex.assign(total_, 1.0);  // fresh reference framework
            ws_.cand.clear();
            need_full_price_ = true;
            if (!factorize_basis()) {
                if (warm) {
                    abandon(WarmAbandon::kFactorize);
                    continue;
                }
                result.status = LpStatus::kIterationLimit;  // numerical give-up
                return result;
            }
            compute_basic_solution();

            if (warm && infeasible_basic_count() > crash_infeasible_count()) {
                // Cost gate: the reloaded basis owes more phase-1 repair than
                // a fresh crash basis would — abandon before burning pivots.
                abandon(WarmAbandon::kGate);
                continue;
            }

            const std::int64_t limit =
                warm ? std::min(options_.iteration_limit,
                                result.iterations + warm_pivot_budget())
                     : options_.iteration_limit;
            const Verdict v = iterate(result.iterations, limit);
            if (v == Verdict::kIterationLimit) {
                if (warm && result.iterations < options_.iteration_limit &&
                    std::chrono::steady_clock::now() <= deadline_ &&
                    !options_.deadline.expired()) {
                    abandon(WarmAbandon::kBudget);
                    continue;  // warm budget exhausted; redo cold
                }
                result.status = LpStatus::kIterationLimit;
                return result;
            }
            if (v == Verdict::kInfeasible) {
                // Sound from a warm basis too: the phase-1 optimality proof
                // is re-priced on a freshly refactorized basis and a
                // from-scratch basic solution (confirm-before-declare).
                result.status = LpStatus::kInfeasible;
                result.warm_used = warm;  // a warm-certified proof is a hit
                return result;
            }
            if (warm && v != Verdict::kOptimal) {
                abandon(WarmAbandon::kVerdict);
                continue;  // cold decides unbounded rays and numerical stalls
            }
            if (v == Verdict::kUnbounded) {
                result.status = LpStatus::kUnbounded;
                return result;
            }
            if (v == Verdict::kStall) {  // cold attempt hit a numerical wall
                result.status = LpStatus::kIterationLimit;
                return result;
            }

            extract(result);
            if (warm && !verify_point(result.values)) {
                result.values.clear();
                abandon(WarmAbandon::kVerify);
                continue;  // drifted warm solve; redo cold
            }
            result.status = LpStatus::kOptimal;
            result.warm_used = warm;
            export_basis(result.basis);
            if (options_.want_dual_values) export_duals(result);
            return result;
        }
        result.status = LpStatus::kIterationLimit;  // unreachable
        return result;
    }

    enum class Verdict { kOptimal, kInfeasible, kUnbounded, kIterationLimit, kStall };

    // ---- basis management ----------------------------------------------

    void load_cold_basis() {
        ws_.basic.resize(m_);
        ws_.vstat.assign(total_, kAtLower);
        for (std::size_t j = 0; j < total_; ++j) {
            if (!std::isfinite(ws_.lower[j])) ws_.vstat[j] = kAtUpper;
        }
        for (std::size_t i = 0; i < m_; ++i) {
            ws_.basic[i] = static_cast<std::int32_t>(n_ + i);
            ws_.vstat[n_ + i] = kBasic;
        }
        pending_hint_ = false;
    }

    [[nodiscard]] bool load_warm_basis(const Basis& warm) {
        if (warm.basic.size() != m_ || warm.columns != total_) return false;
        ws_.vstat.assign(total_, kAtLower);
        if (warm.at_upper.size() == total_) {
            for (std::size_t j = 0; j < total_; ++j) {
                if (warm.at_upper[j]) ws_.vstat[j] = kAtUpper;
            }
        }
        // A nonbasic variable must rest at a finite bound.
        for (std::size_t j = 0; j < total_; ++j) {
            if (ws_.vstat[j] == kAtLower && !std::isfinite(ws_.lower[j])) {
                if (!std::isfinite(ws_.upper[j])) return false;
                ws_.vstat[j] = kAtUpper;
            } else if (ws_.vstat[j] == kAtUpper && !std::isfinite(ws_.upper[j])) {
                ws_.vstat[j] = kAtLower;  // lower is finite for structurals
                if (!std::isfinite(ws_.lower[j])) return false;
            }
        }
        ws_.basic.resize(m_);
        for (std::size_t i = 0; i < m_; ++i) {
            const std::int32_t v = warm.basic[i];
            if (v < 0 || static_cast<std::size_t>(v) >= total_) return false;
            ws_.basic[i] = v;
            ws_.vstat[static_cast<std::size_t>(v)] = kBasic;
        }
        // Replay the parent's pivot order on the first factorization; a
        // stale or missing order degrades to Markowitz selection inside
        // factorize_basis.
        pending_hint_ =
            warm.pivot_slot.size() == m_ && warm.pivot_row.size() == m_;
        return true;
    }

    // (Re)factorizes the current basic set, replaying the warm pivot-order
    // hint at most once. On success the incremental reduced costs are stale
    // (the recomputed basic solution moves x), so a full price is forced.
    [[nodiscard]] bool factorize_basis() {
        bool ok = false;
        if (pending_hint_) {
            pending_hint_ = false;
            ok = ws_.lu.factorize(ctx_, ws_.basic, options_.warm_basis->pivot_slot,
                                  options_.warm_basis->pivot_row);
        }
        if (!ok) ok = ws_.lu.factorize(ctx_, ws_.basic);
        if (!ok) return false;
        updates_since_factor_ = 0;
        need_full_price_ = true;
        return true;
    }

    // Recomputes x from scratch: nonbasic at their bound, basics via a dense
    // FTRAN of the bound-adjusted rhs. Wipes all incremental round-off.
    void compute_basic_solution() {
        ws_.x.assign(total_, 0.0);
        ws_.rhs_work = ctx_.rhs();
        for (std::size_t j = 0; j < total_; ++j) {
            if (ws_.vstat[j] == kBasic) continue;
            const double xj = ws_.vstat[j] == kAtUpper ? ws_.upper[j] : ws_.lower[j];
            ws_.x[j] = xj;
            if (xj == 0.0) continue;
            if (j < n_) {
                const auto begin = static_cast<std::size_t>(ctx_.col_start()[j]);
                const auto end = static_cast<std::size_t>(ctx_.col_start()[j + 1]);
                for (std::size_t i = begin; i < end; ++i) {
                    ws_.rhs_work[static_cast<std::size_t>(ctx_.row_idx()[i])] -=
                        ctx_.values()[i] * xj;
                }
            } else {
                ws_.rhs_work[j - n_] -= xj;
            }
        }
        ws_.lu.ftran_dense(ws_.rhs_work, ws_.col);  // col = x_B by slot
        for (std::size_t slot = 0; slot < m_; ++slot) {
            ws_.x[static_cast<std::size_t>(ws_.basic[slot])] = ws_.col[slot];
        }
    }

    // ---- pricing --------------------------------------------------------

    [[nodiscard]] double cost2(std::size_t v) const {
        return v < n_ ? ctx_.objective()[v] : 0.0;
    }

    // Phase-1 gradient of the sum of primal infeasibilities at basic v.
    [[nodiscard]] double phase1_cost(std::size_t v) const {
        const double xv = ws_.x[v];
        if (xv > ws_.upper[v] + kFeasTol * (1.0 + std::abs(ws_.upper[v]))) return 1.0;
        if (xv < ws_.lower[v] - kFeasTol * (1.0 + std::abs(ws_.lower[v]))) return -1.0;
        return 0.0;
    }

    [[nodiscard]] double dot_column(std::size_t j, const std::vector<double>& y) const {
        if (j >= n_) return y[j - n_];
        double acc = 0.0;
        const auto begin = static_cast<std::size_t>(ctx_.col_start()[j]);
        const auto end = static_cast<std::size_t>(ctx_.col_start()[j + 1]);
        for (std::size_t i = begin; i < end; ++i) {
            acc += ctx_.values()[i] * y[static_cast<std::size_t>(ctx_.row_idx()[i])];
        }
        return acc;
    }

    // Improvement rate of nonbasic j with reduced cost dj (positive =
    // eligible to enter in its free direction).
    [[nodiscard]] double signed_rate(std::size_t j, double dj) const {
        return ws_.vstat[j] == kAtLower ? -dj : dj;
    }

    // Trims cand_pairs_ (score, j) to the kCandMax best and installs them as
    // the standing candidate list.
    void install_candidates() {
        if (cand_pairs_.size() > kCandMax) {
            std::nth_element(cand_pairs_.begin(),
                             cand_pairs_.begin() + static_cast<std::ptrdiff_t>(kCandMax),
                             cand_pairs_.end(),
                             [](const auto& a, const auto& b) { return a.first > b.first; });
            cand_pairs_.resize(kCandMax);
        }
        ws_.cand.clear();
        for (const auto& [score, j] : cand_pairs_) ws_.cand.push_back(j);
    }

    // Full phase-2 price: one dense BTRAN of the basic costs, reduced costs
    // rebuilt for every column, candidate list refilled with the best Devex
    // scores. The only path that may declare phase-2 optimality.
    [[nodiscard]] std::size_t price_full2() {
        ++pricing_rebuilds_;
        need_full_price_ = false;
        ws_.rhs_work.assign(m_, 0.0);
        for (std::size_t slot = 0; slot < m_; ++slot) {
            ws_.rhs_work[slot] = cost2(static_cast<std::size_t>(ws_.basic[slot]));
        }
        ws_.lu.btran_dense(ws_.rhs_work, ws_.y);
        ws_.d.assign(total_, 0.0);
        cand_pairs_.clear();
        std::size_t enter = total_;
        double best_score = 0.0;
        for (std::size_t j = 0; j < total_; ++j) {
            if (ws_.vstat[j] == kBasic) continue;
            if (ws_.upper[j] - ws_.lower[j] <= kDropTol) continue;  // fixed
            const double dj = cost2(j) - dot_column(j, ws_.y);
            ws_.d[j] = dj;
            if (signed_rate(j, dj) <= kEps) continue;
            const double score = dj * dj / ws_.devex[j];
            cand_pairs_.emplace_back(score, static_cast<std::int32_t>(j));
            if (enter == total_ || score > best_score) {
                best_score = score;
                enter = j;
            }
        }
        install_candidates();
        if (enter != total_) enter_d_ = ws_.d[enter];
        return enter;
    }

    // Phase-2 price from the standing candidate list over the incrementally
    // maintained reduced costs; falls back to the full scan when the list
    // runs dry, so a "no entering column" answer always comes from a full
    // rebuild.
    [[nodiscard]] std::size_t price_list2() {
        if (need_full_price_) return price_full2();
        std::size_t enter = total_;
        double best_score = 0.0;
        for (const std::int32_t cj : ws_.cand) {
            const auto j = static_cast<std::size_t>(cj);
            if (ws_.vstat[j] == kBasic) continue;
            if (ws_.upper[j] - ws_.lower[j] <= kDropTol) continue;
            const double dj = ws_.d[j];
            if (signed_rate(j, dj) <= kEps) continue;
            const double score = dj * dj / ws_.devex[j];
            if (enter == total_ || score > best_score) {
                best_score = score;
                enter = j;
            }
        }
        if (enter != total_) {
            ++pricing_hits_;
            enter_d_ = ws_.d[enter];
            return enter;
        }
        return price_full2();
    }

    // Phase-1 price. The infeasibility costs move with every pivot, so the
    // pricing vector is recomputed each call. With few infeasible basics —
    // the warm re-solve regime — the BTRAN runs hypersparse from the +-1
    // seeds and the reduced costs are scattered through only the CSR rows it
    // touched: an exact full price (every untouched column prices to zero)
    // at sparse cost. Past the seed threshold the dense path below takes
    // over, with the candidate list restricting the pricing pass and a full
    // scan (which also refills the list) only when the candidates are all
    // ineligible. Optimality verdicts therefore always rest on a full scan.
    [[nodiscard]] std::size_t price_phase1() {
        p1_slots_.clear();
        p1_vals_.clear();
        for (std::size_t slot = 0; slot < m_; ++slot) {
            const double c = phase1_cost(static_cast<std::size_t>(ws_.basic[slot]));
            if (c != 0.0) {
                p1_slots_.push_back(static_cast<std::int32_t>(slot));
                p1_vals_.push_back(c);
            }
        }
        if (p1_slots_.size() <= std::max<std::size_t>(16, m_ / 5)) {
            return price_phase1_sparse();
        }
        ws_.rhs_work.assign(m_, 0.0);
        for (std::size_t i = 0; i < p1_slots_.size(); ++i) {
            ws_.rhs_work[static_cast<std::size_t>(p1_slots_[i])] = p1_vals_[i];
        }
        ws_.lu.btran_dense(ws_.rhs_work, ws_.y);
        std::size_t enter = total_;
        double best_score = 0.0;
        for (const std::int32_t cj : ws_.cand) {
            const auto j = static_cast<std::size_t>(cj);
            if (ws_.vstat[j] == kBasic) continue;
            if (ws_.upper[j] - ws_.lower[j] <= kDropTol) continue;
            const double dj = -dot_column(j, ws_.y);
            if (signed_rate(j, dj) <= kEps) continue;
            const double score = dj * dj / ws_.devex[j];
            if (enter == total_ || score > best_score) {
                best_score = score;
                enter = j;
                enter_d_ = dj;
            }
        }
        if (enter != total_) {
            ++pricing_hits_;
            return enter;
        }
        ++pricing_rebuilds_;
        cand_pairs_.clear();
        for (std::size_t j = 0; j < total_; ++j) {
            if (ws_.vstat[j] == kBasic) continue;
            if (ws_.upper[j] - ws_.lower[j] <= kDropTol) continue;
            const double dj = -dot_column(j, ws_.y);
            if (signed_rate(j, dj) <= kEps) continue;
            const double score = dj * dj / ws_.devex[j];
            cand_pairs_.emplace_back(score, static_cast<std::int32_t>(j));
            if (enter == total_ || score > best_score) {
                best_score = score;
                enter = j;
                enter_d_ = dj;
            }
        }
        install_candidates();
        return enter;
    }

    // Sparse phase-1 price: hypersparse BTRAN of the +-1 seeds gathered by
    // price_phase1, then a scatter of -y through the touched CSR rows into
    // alpha/alist (dead scratch between pivots). Only columns with a nonzero
    // in a touched row — plus those rows' logicals — can price nonzero, so
    // despite the sparse sweep this is a full exact scan and its "no
    // entering column" verdict is as strong as the dense rebuild's.
    [[nodiscard]] std::size_t price_phase1_sparse() {
        ws_.lu.btran_seeds(p1_slots_, p1_vals_, ws_.yspar, ws_.yslist);
        std::size_t enter = total_;
        double best_score = 0.0;
        const auto consider = [&](std::size_t j, double dj) {
            if (ws_.vstat[j] == kBasic) return;
            if (ws_.upper[j] - ws_.lower[j] <= kDropTol) return;
            if (signed_rate(j, dj) <= kEps) return;
            const double score = dj * dj / ws_.devex[j];
            if (enter == total_ || score > best_score) {
                best_score = score;
                enter = j;
                enter_d_ = dj;
            }
        };
        for (const std::int32_t ri : ws_.yslist) {
            const auto i = static_cast<std::size_t>(ri);
            const double yi = ws_.yspar[i];
            if (yi == 0.0) continue;
            const auto begin = static_cast<std::size_t>(ctx_.row_start()[i]);
            const auto end = static_cast<std::size_t>(ctx_.row_start()[i + 1]);
            for (std::size_t k = begin; k < end; ++k) {
                const auto j = static_cast<std::size_t>(ctx_.row_col()[k]);
                if (!amark_[j]) {
                    amark_[j] = 1;
                    ws_.alist.push_back(static_cast<std::int32_t>(j));
                }
                ws_.alpha[j] -= yi * ctx_.row_val()[k];
            }
            consider(n_ + i, -yi);  // the row's logical prices to -y_i
        }
        for (const std::int32_t aj : ws_.alist) {
            const auto j = static_cast<std::size_t>(aj);
            consider(j, ws_.alpha[j]);
            ws_.alpha[j] = 0.0;
            amark_[j] = 0;
        }
        ws_.alist.clear();
        if (enter != total_) ++pricing_hits_;
        return enter;
    }

    // Bland's rule: exact reduced costs recomputed every call, smallest
    // eligible index. Engaged only after a long degenerate run; guarantees
    // termination together with the short-step ratio test's index ties.
    [[nodiscard]] std::size_t price_bland(int phase) {
        ++pricing_rebuilds_;
        ws_.rhs_work.assign(m_, 0.0);
        for (std::size_t slot = 0; slot < m_; ++slot) {
            const auto v = static_cast<std::size_t>(ws_.basic[slot]);
            ws_.rhs_work[slot] = phase == 2 ? cost2(v) : phase1_cost(v);
        }
        ws_.lu.btran_dense(ws_.rhs_work, ws_.y);
        for (std::size_t j = 0; j < total_; ++j) {
            if (ws_.vstat[j] == kBasic) continue;
            if (ws_.upper[j] - ws_.lower[j] <= kDropTol) continue;
            const double cost = phase == 2 ? cost2(j) : 0.0;
            const double dj = cost - dot_column(j, ws_.y);
            if (signed_rate(j, dj) > kEps) {
                enter_d_ = dj;
                return j;
            }
        }
        return total_;
    }

    // Incremental phase-2 pricing update across the pivot (enter replaces
    // basic[p]): rho = row p of B^-1 via a hypersparse unit BTRAN, the pivot
    // row alpha scattered through the CSR mirror, then the standard
    // d_j -= theta * alpha_j sweep and the Devex reference-framework weight
    // update. Called on the pre-pivot factor and pre-pivot vstat. A mismatch
    // between alpha[enter] and the FTRANed pivot element signals drift and
    // forces a full rebuild next iteration.
    void update_phase2_pricing(std::size_t p, std::size_t enter, double a_e,
                               std::size_t leave) {
        ws_.lu.btran_unit(p, ws_.rho, ws_.rholist);
        ws_.alist.clear();
        for (const std::int32_t ri : ws_.rholist) {
            const auto i = static_cast<std::size_t>(ri);
            const double rv = ws_.rho[i];
            if (rv == 0.0) continue;
            const std::size_t lj = n_ + i;  // logical of row i: alpha = rho_i
            if (!amark_[lj]) {
                amark_[lj] = 1;
                ws_.alist.push_back(static_cast<std::int32_t>(lj));
            }
            ws_.alpha[lj] += rv;
            const auto begin = static_cast<std::size_t>(ctx_.row_start()[i]);
            const auto end = static_cast<std::size_t>(ctx_.row_start()[i + 1]);
            for (std::size_t k = begin; k < end; ++k) {
                const auto j = static_cast<std::size_t>(ctx_.row_col()[k]);
                if (!amark_[j]) {
                    amark_[j] = 1;
                    ws_.alist.push_back(static_cast<std::int32_t>(j));
                }
                ws_.alpha[j] += rv * ctx_.row_val()[k];
            }
        }
        if (std::abs(ws_.alpha[enter] - a_e) > 1e-6 * (1.0 + std::abs(a_e))) {
            need_full_price_ = true;  // rho/FTRAN disagreement: rebuild soon
        }
        const double theta = ws_.d[enter] / a_e;
        const double we = ws_.devex[enter];
        const double ae2 = a_e * a_e;
        double maxw = 0.0;
        for (const std::int32_t aj : ws_.alist) {
            const auto j = static_cast<std::size_t>(aj);
            if (ws_.vstat[j] != kBasic && j != enter) {
                ws_.d[j] -= theta * ws_.alpha[j];
                const double ref = ws_.alpha[j] * ws_.alpha[j] / ae2 * we;
                if (ref > ws_.devex[j]) ws_.devex[j] = ref;
                if (ws_.devex[j] > maxw) maxw = ws_.devex[j];
            }
            ws_.alpha[j] = 0.0;
            amark_[j] = 0;
        }
        ws_.alist.clear();
        ws_.d[leave] = -theta;
        ws_.d[enter] = 0.0;
        ws_.devex[leave] = std::max(we / ae2, 1.0);
        if (maxw > kDevexReset || ws_.devex[leave] > kDevexReset) {
            ws_.devex.assign(total_, 1.0);  // framework overflow: restart
        }
    }

    // ---- ratio tests ----------------------------------------------------

    struct Ratio {
        double step = kInf;
        std::size_t leave_slot = std::numeric_limits<std::size_t>::max();
        bool leave_at_upper = false;
        bool flip = false;
    };

    // Short-step bounded ratio test over the hypersparse entering column
    // (phase-2 always; phase-1 under Bland's rule, where the first-kink
    // blocking keeps the anti-cycling argument intact).
    [[nodiscard]] Ratio ratio_short(std::size_t enter, double dir, int phase,
                                    bool bland) const {
        Ratio best;
        double best_pivot = 0.0;
        for (const std::int32_t sl : ws_.xlist) {
            const auto slot = static_cast<std::size_t>(sl);
            const double a = ws_.xcol[slot];
            if (std::abs(a) <= kPivTol) continue;
            const double w = dir * a;  // x_B[slot] moves by -w per unit step
            const auto v = static_cast<std::size_t>(ws_.basic[slot]);
            const double xv = ws_.x[v];
            const double l = ws_.lower[v];
            const double u = ws_.upper[v];
            const double ltol = kFeasTol * (1.0 + std::abs(l));
            const double utol = kFeasTol * (1.0 + std::abs(u));
            double t = kInf;
            bool at_upper = false;
            if (phase == 1 && xv > u + utol) {
                if (w <= 0.0) continue;  // moving further above: no kink
                t = (xv - u) / w;
                at_upper = true;
            } else if (phase == 1 && xv < l - ltol) {
                if (w >= 0.0) continue;
                t = (xv - l) / w;
                at_upper = false;
            } else if (w > 0.0) {
                if (!std::isfinite(l)) continue;
                t = (xv - l) / w;
                at_upper = false;
            } else {
                if (!std::isfinite(u)) continue;
                t = (xv - u) / w;
                at_upper = true;
            }
            if (t < 0.0) t = 0.0;  // degenerate beyond tolerance: zero step
            const bool first =
                best.leave_slot == std::numeric_limits<std::size_t>::max();
            bool take = false;
            if (first || t < best.step - kEps) {
                take = true;
            } else if (t < best.step + kEps) {
                take = bland ? ws_.basic[slot] < ws_.basic[best.leave_slot]
                             : std::abs(a) > best_pivot;
            }
            if (take) {
                best.step = std::min(first ? t : best.step, t);
                best.leave_slot = slot;
                best.leave_at_upper = at_upper;
                best_pivot = std::abs(a);
            }
        }
        // The entering variable's own opposite bound: a flip step changes no
        // basis and costs no update, so prefer it on ties.
        const double range = ws_.upper[enter] - ws_.lower[enter];
        if (std::isfinite(range) && range <= best.step) {
            best.step = range;
            best.flip = true;
        }
        return best;
    }

    struct Breakpoint {
        double t = 0.0;
        double gain = 0.0;  // |w|: slope increase once this kink is passed
        std::int32_t slot = -1;
        std::uint8_t at_upper = 0;
    };

    // Long-step phase-1 ratio test: the sum of infeasibilities is piecewise
    // linear in the step, with a kink wherever a basic variable crosses one
    // of its bounds (an infeasible basic contributes two — re-entry and
    // exit on the far side). Walk the kinks in step order, accumulating
    // slope, and stop at the first one where the objective stops improving;
    // every kink passed on the way is a free bound-flip's worth of progress
    // a first-kink test would have burned a pivot on. The entering
    // variable's own range caps the walk with a basis-preserving flip.
    [[nodiscard]] Ratio ratio_longstep(std::size_t enter, double dir) {
        bps_.clear();
        for (const std::int32_t sl : ws_.xlist) {
            const auto slot = static_cast<std::size_t>(sl);
            const double a = ws_.xcol[slot];
            if (std::abs(a) <= kPivTol) continue;
            const double w = dir * a;  // x_B[slot] moves by -w per unit step
            const auto v = static_cast<std::size_t>(ws_.basic[slot]);
            const double xv = ws_.x[v];
            const double l = ws_.lower[v];
            const double u = ws_.upper[v];
            const double ltol = kFeasTol * (1.0 + std::abs(l));
            const double utol = kFeasTol * (1.0 + std::abs(u));
            const double gain = std::abs(w);
            const auto push = [&](double t, bool at_upper) {
                bps_.push_back({std::max(t, 0.0), gain, sl,
                                static_cast<std::uint8_t>(at_upper ? 1 : 0)});
            };
            if (xv > u + utol) {  // infeasible above
                if (w <= 0.0) continue;
                push((xv - u) / w, true);
                if (std::isfinite(l)) push((xv - l) / w, false);
            } else if (xv < l - ltol) {  // infeasible below
                if (w >= 0.0) continue;
                push((xv - l) / w, false);
                if (std::isfinite(u)) push((xv - u) / w, true);
            } else if (w > 0.0) {
                if (std::isfinite(l)) push((xv - l) / w, false);
            } else if (std::isfinite(u)) {
                push((xv - u) / w, true);
            }
        }
        // The walk usually stops within a few kinks, so a heap (linear to
        // build, log-cost per kink popped) beats sorting the whole list. The
        // comparator is a total order, so the pop sequence is deterministic.
        const auto later = [](const Breakpoint& a, const Breakpoint& b) {
            if (a.t != b.t) return a.t > b.t;
            if (a.gain != b.gain) return a.gain < b.gain;
            if (a.slot != b.slot) return a.slot > b.slot;
            return a.at_upper > b.at_upper;
        };
        std::make_heap(bps_.begin(), bps_.end(), later);
        const double range = ws_.upper[enter] - ws_.lower[enter];
        double slope = -std::abs(enter_d_);
        Ratio best;
        for (std::size_t live = bps_.size(); live > 0; --live) {
            std::pop_heap(bps_.begin(),
                          bps_.begin() + static_cast<std::ptrdiff_t>(live), later);
            const Breakpoint& bp = bps_[live - 1];
            if (std::isfinite(range) && range <= bp.t) {
                best.step = range;  // entering hits its far bound first
                best.flip = true;
                return best;
            }
            slope += bp.gain;
            if (slope >= -kEps) {
                best.step = bp.t;
                best.leave_slot = static_cast<std::size_t>(bp.slot);
                best.leave_at_upper = bp.at_upper != 0;
                return best;
            }
        }
        if (std::isfinite(range)) {
            best.step = range;  // improving all the way to the far bound
            best.flip = true;
        }
        return best;  // step stays +inf: numerical ray in a bounded objective
    }

    // ---- warm-start yardsticks -----------------------------------------

    [[nodiscard]] std::int64_t warm_pivot_budget() const {
        if (options_.warm_pivot_budget > 0) return options_.warm_pivot_budget;
        return 32 + static_cast<std::int64_t>(m_) / 2;
    }

    [[nodiscard]] bool basic_infeasible() const {
        for (std::size_t slot = 0; slot < m_; ++slot) {
            const auto v = static_cast<std::size_t>(ws_.basic[slot]);
            const double xv = ws_.x[v];
            if (xv < ws_.lower[v] - kFeasTol * (1.0 + std::abs(ws_.lower[v])) ||
                xv > ws_.upper[v] + kFeasTol * (1.0 + std::abs(ws_.upper[v]))) {
                return true;
            }
        }
        return false;
    }

    [[nodiscard]] std::int64_t infeasible_basic_count() const {
        std::int64_t violated = 0;
        for (std::size_t slot = 0; slot < m_; ++slot) {
            const auto v = static_cast<std::size_t>(ws_.basic[slot]);
            const double xv = ws_.x[v];
            if (xv < ws_.lower[v] - kFeasTol * (1.0 + std::abs(ws_.lower[v])) ||
                xv > ws_.upper[v] + kFeasTol * (1.0 + std::abs(ws_.upper[v]))) {
                ++violated;
            }
        }
        return violated;
    }

    // Phase-1 workload of a fresh crash (all-logical) basis — the yardstick
    // the warm gate compares the reloaded basis against. One pass over the
    // nonzeros, no factorization.
    [[nodiscard]] std::int64_t crash_infeasible_count() const {
        if (crash_infeasible_ >= 0) return crash_infeasible_;
        std::vector<double>& residual = ws_.y;  // dead until the next price
        residual.assign(ctx_.rhs().begin(), ctx_.rhs().end());
        for (std::size_t j = 0; j < n_; ++j) {
            const double xj = !std::isfinite(ws_.lower[j]) ? ws_.upper[j]
                                                           : ws_.lower[j];
            if (xj == 0.0) continue;
            const auto begin = static_cast<std::size_t>(ctx_.col_start()[j]);
            const auto end = static_cast<std::size_t>(ctx_.col_start()[j + 1]);
            for (std::size_t i = begin; i < end; ++i) {
                residual[static_cast<std::size_t>(ctx_.row_idx()[i])] -=
                    ctx_.values()[i] * xj;
            }
        }
        std::int64_t violated = 0;
        for (std::size_t i = 0; i < m_; ++i) {
            const std::size_t s = n_ + i;
            if (residual[i] < ws_.lower[s] - kFeasTol * (1.0 + std::abs(ws_.lower[s])) ||
                residual[i] > ws_.upper[s] + kFeasTol * (1.0 + std::abs(ws_.upper[s]))) {
                ++violated;
            }
        }
        crash_infeasible_ = violated;
        return crash_infeasible_;
    }

    // ---- the pivot loop -------------------------------------------------

    [[nodiscard]] Verdict iterate(std::int64_t& iterations, std::int64_t limit) {
        std::int64_t local = 0;
        std::int64_t degenerate_run = 0;
        const std::int64_t bland_threshold =
            64 + 4 * static_cast<std::int64_t>(total_ + m_);
        bool bland = false;
        int confirm_passes = 0;
        int prev_phase = 0;

        while (true) {
            if (iterations >= limit) return Verdict::kIterationLimit;
            if ((local++ & 63) == 0 &&
                (std::chrono::steady_clock::now() > deadline_ ||
                 options_.deadline.expired())) {
                return Verdict::kIterationLimit;
            }

            // Count pivots since the last rebuild, NOT factor size: a warm
            // reload starts with a full factor and measuring its length
            // would re-trigger a rebuild on every pivot.
            if (updates_since_factor_ >= kRefactorInterval) {
                if (!factorize_basis()) return Verdict::kStall;
                compute_basic_solution();
            }

            const int phase = basic_infeasible() ? 1 : 2;
            if (phase != prev_phase) {
                need_full_price_ = true;  // the other phase's costs are dead
                prev_phase = phase;
            }
            std::size_t enter;
            if (bland) {
                enter = price_bland(phase);
            } else if (phase == 1) {
                enter = price_phase1();
            } else {
                enter = price_list2();
            }
            if (enter == total_) {
                // Never trust a verdict reached on an updated factor:
                // rebuild, recompute, and re-price once before declaring.
                if (updates_since_factor_ > 0 && confirm_passes < 2) {
                    ++confirm_passes;
                    if (!factorize_basis()) return Verdict::kStall;
                    compute_basic_solution();
                    continue;
                }
                return phase == 1 ? Verdict::kInfeasible : Verdict::kOptimal;
            }
            confirm_passes = 0;

            const double dir = ws_.vstat[enter] == kAtLower ? 1.0 : -1.0;
            ws_.lu.ftran_column(ctx_, static_cast<std::int32_t>(enter), ws_.xcol,
                                ws_.xlist);
            const Ratio ratio = phase == 1 && !bland
                                    ? ratio_longstep(enter, dir)
                                    : ratio_short(enter, dir, phase, bland);
            if (!std::isfinite(ratio.step)) {
                // Phase 1 minimizes a function bounded below by zero, so an
                // unblocked ray there is a numerical artifact, not a proof.
                return phase == 2 ? Verdict::kUnbounded : Verdict::kStall;
            }

            const double t = ratio.step;
            if (t > 0.0) {
                for (const std::int32_t sl : ws_.xlist) {
                    const auto slot = static_cast<std::size_t>(sl);
                    if (ws_.xcol[slot] == 0.0) continue;
                    ws_.x[static_cast<std::size_t>(ws_.basic[slot])] -=
                        dir * ws_.xcol[slot] * t;
                }
            }
            if (ratio.flip) {
                ws_.x[enter] =
                    ws_.vstat[enter] == kAtLower ? ws_.upper[enter] : ws_.lower[enter];
                ws_.vstat[enter] = ws_.vstat[enter] == kAtLower ? kAtUpper : kAtLower;
                ++updates_since_factor_;  // x drifted incrementally
            } else {
                const std::size_t p = ratio.leave_slot;
                const auto leave = static_cast<std::size_t>(ws_.basic[p]);
                if (phase == 2 && !bland) {
                    update_phase2_pricing(p, enter, ws_.xcol[p], leave);
                } else {
                    need_full_price_ = true;  // phase-1/Bland pivots skip it
                }
                ws_.x[enter] = ws_.vstat[enter] == kAtLower ? ws_.lower[enter] + t
                                                            : ws_.upper[enter] - t;
                ws_.x[leave] = ratio.leave_at_upper ? ws_.upper[leave]
                                                    : ws_.lower[leave];
                ws_.vstat[leave] = ratio.leave_at_upper ? kAtUpper : kAtLower;
                ws_.vstat[enter] = kBasic;
                ws_.basic[p] = static_cast<std::int32_t>(enter);
                if (ws_.lu.update(p)) {
                    ++updates_since_factor_;
                } else {
                    // Update numerically unsafe: the factor still holds the
                    // pre-pivot basis, so rebuild it for the new one.
                    if (!factorize_basis()) return Verdict::kStall;
                    compute_basic_solution();
                }
            }
            ++iterations;
            degenerate_run = t > kEps ? 0 : degenerate_run + 1;
            if (degenerate_run > bland_threshold) bland = true;
        }
    }

    // ---- solution handling ---------------------------------------------

    void extract(LpResult& result) const {
        result.values.assign(n_, 0.0);
        for (std::size_t j = 0; j < n_; ++j) {
            double xj = ws_.x[j];
            // Snap round-off just outside a bound back onto it; larger
            // violations are left visible for the verification gate.
            const double tol = kFeasTol * (1.0 + std::abs(xj));
            if (xj < ws_.lower[j] && xj > ws_.lower[j] - tol) {
                xj = ws_.lower[j];
            } else if (xj > ws_.upper[j] && xj < ws_.upper[j] + tol) {
                xj = ws_.upper[j];
            }
            result.values[j] = xj;
        }
        double obj = ctx_.objective_constant();
        for (std::size_t j = 0; j < n_; ++j) {
            obj += ctx_.objective()[j] * result.values[j];
        }
        result.objective = ctx_.sense_sign() * obj;
    }

    // Row duals lambda = B^-T c_B and structural reduced costs
    // d_j = c_j - lambda' A_j at the optimum, in the model's own objective
    // sense. The factor is fresh here (every verdict is confirmed on a
    // rebuilt factorization).
    void export_duals(LpResult& result) const {
        ws_.rhs_work.assign(m_, 0.0);
        for (std::size_t slot = 0; slot < m_; ++slot) {
            const auto v = static_cast<std::size_t>(ws_.basic[slot]);
            ws_.rhs_work[slot] = v < n_ ? ctx_.objective()[v] : 0.0;
        }
        ws_.lu.btran_dense(ws_.rhs_work, ws_.y);
        result.duals.resize(m_);
        for (std::size_t i = 0; i < m_; ++i) {
            result.duals[i] = ctx_.sense_sign() * ws_.y[i];
        }
        result.reduced_costs.resize(n_);
        for (std::size_t j = 0; j < n_; ++j) {
            result.reduced_costs[j] =
                ctx_.sense_sign() * (ctx_.objective()[j] - dot_column(j, ws_.y));
        }
    }

    // Constraint-only gate on warm results: row activities recomputed from
    // the CSC matrix directly, independent of any solver state.
    [[nodiscard]] bool verify_point(const std::vector<double>& values) const {
        constexpr double kGuardTol = 1e-6;
        for (std::size_t j = 0; j < n_; ++j) {
            const double tol = kGuardTol * (1.0 + std::abs(values[j]));
            if (values[j] < ws_.lower[j] - tol || values[j] > ws_.upper[j] + tol) {
                return false;
            }
        }
        std::vector<double> activity(m_, 0.0);
        for (std::size_t j = 0; j < n_; ++j) {
            const double xj = values[j];
            if (xj == 0.0) continue;
            const auto begin = static_cast<std::size_t>(ctx_.col_start()[j]);
            const auto end = static_cast<std::size_t>(ctx_.col_start()[j + 1]);
            for (std::size_t i = begin; i < end; ++i) {
                activity[static_cast<std::size_t>(ctx_.row_idx()[i])] +=
                    ctx_.values()[i] * xj;
            }
        }
        for (std::size_t i = 0; i < m_; ++i) {
            const double rhs = ctx_.rhs()[i];
            const double tol = kGuardTol * (1.0 + std::abs(rhs));
            switch (ctx_.row_sense()[i]) {
                case Sense::kLe:
                    if (activity[i] > rhs + tol) return false;
                    break;
                case Sense::kGe:
                    if (activity[i] < rhs - tol) return false;
                    break;
                case Sense::kEq:
                    if (std::abs(activity[i] - rhs) > tol) return false;
                    break;
            }
        }
        return true;
    }

    void export_basis(Basis& out) const {
        out.basic.assign(ws_.basic.begin(), ws_.basic.end());
        out.at_upper.assign(total_, 0);
        for (std::size_t j = 0; j < total_; ++j) {
            if (ws_.vstat[j] == kAtUpper) out.at_upper[j] = 1;
        }
        out.columns = static_cast<std::uint32_t>(total_);
        if (ws_.lu.valid() && ws_.lu.dim() == m_) {
            ws_.lu.export_pivot_order(out.pivot_slot, out.pivot_row);
        } else {
            out.pivot_slot.clear();
            out.pivot_row.clear();
        }
    }

    const LpContext& ctx_;
    LpWorkspace& ws_;
    const LpOptions& options_;
    const std::size_t n_;
    const std::size_t m_;
    const std::size_t total_;
    const std::chrono::steady_clock::time_point deadline_;
    std::int64_t updates_since_factor_ = 0;
    std::int64_t pricing_hits_ = 0;
    std::int64_t pricing_rebuilds_ = 0;
    bool need_full_price_ = true;
    bool pending_hint_ = false;
    double enter_d_ = 0.0;  // reduced cost of the chosen entering variable
    std::vector<std::uint8_t> amark_;  // alpha-scatter membership marks
    std::vector<std::pair<double, std::int32_t>> cand_pairs_;
    std::vector<Breakpoint> bps_;
    std::vector<std::int32_t> p1_slots_;  // infeasible basic slots this price
    std::vector<double> p1_vals_;         // their +-1 phase-1 costs
    mutable std::int64_t crash_infeasible_ = -1;  // lazily computed, then cached
};

}  // namespace

const char* to_string(LpStatus s) noexcept {
    switch (s) {
        case LpStatus::kOptimal: return "optimal";
        case LpStatus::kInfeasible: return "infeasible";
        case LpStatus::kUnbounded: return "unbounded";
        case LpStatus::kIterationLimit: return "iteration-limit";
    }
    return "?";
}

LpContext::LpContext(const Model& model) {
    const std::size_t n = model.variable_count();
    const std::size_t m = model.constraint_count();
    row_sense_.reserve(m);
    rhs_.reserve(m);
    std::vector<std::int64_t> count(n + 1, 0);
    for (const Constraint& c : model.constraints()) {
        row_sense_.push_back(c.sense);
        rhs_.push_back(c.rhs);
        for (const Term& t : c.expr.terms()) ++count[static_cast<std::size_t>(t.var) + 1];
    }
    col_start_.assign(n + 1, 0);
    for (std::size_t j = 0; j < n; ++j) col_start_[j + 1] = col_start_[j] + count[j + 1];
    row_idx_.resize(static_cast<std::size_t>(col_start_[n]));
    val_.resize(static_cast<std::size_t>(col_start_[n]));
    std::vector<std::int64_t> cursor(col_start_.begin(), col_start_.end() - 1);
    for (std::size_t i = 0; i < m; ++i) {
        for (const Term& t : model.constraints()[i].expr.terms()) {
            const auto j = static_cast<std::size_t>(t.var);
            const auto slot = static_cast<std::size_t>(cursor[j]++);
            row_idx_[slot] = static_cast<std::int32_t>(i);
            val_[slot] = t.coef;
        }
    }

    // CSR mirror, built from the CSC arrays so both orderings agree exactly
    // (columns ascend within each row because the fill scans columns in
    // order).
    row_start_.assign(m + 1, 0);
    for (const std::int32_t r : row_idx_) ++row_start_[static_cast<std::size_t>(r) + 1];
    for (std::size_t i = 0; i < m; ++i) row_start_[i + 1] += row_start_[i];
    row_col_.resize(row_idx_.size());
    row_val_.resize(row_idx_.size());
    {
        std::vector<std::int64_t> rcursor(row_start_.begin(), row_start_.end() - 1);
        for (std::size_t j = 0; j < n; ++j) {
            const auto begin = static_cast<std::size_t>(col_start_[j]);
            const auto end = static_cast<std::size_t>(col_start_[j + 1]);
            for (std::size_t k = begin; k < end; ++k) {
                const auto i = static_cast<std::size_t>(row_idx_[k]);
                const auto at = static_cast<std::size_t>(rcursor[i]++);
                row_col_[at] = static_cast<std::int32_t>(j);
                row_val_[at] = val_[k];
            }
        }
    }

    sense_sign_ = model.is_minimization() ? 1.0 : -1.0;
    obj_.assign(n, 0.0);
    obj_constant_ = sense_sign_ * model.objective().constant();
    for (const Term& t : model.objective().terms()) {
        obj_[static_cast<std::size_t>(t.var)] = sense_sign_ * t.coef;
    }

    model_lower_ = model.lower_bounds();
    model_upper_ = model.upper_bounds();
}

LpResult LpContext::solve(std::span<const double> lower, std::span<const double> upper,
                          const LpOptions& options, LpWorkspace* workspace) const {
    LpWorkspace local;
    LuSimplex simplex(*this, lower, upper, options,
                      workspace != nullptr ? *workspace : local);
    return simplex.run();
}

LpResult solve_lp(const Model& model, const LpOptions& options) {
    for (std::size_t j = 0; j < model.variable_count(); ++j) {
        const Variable& v = model.variable(static_cast<VarId>(j));
        if (!std::isfinite(v.lower)) {
            throw std::invalid_argument("solve_lp: variable '" + v.name +
                                        "' has non-finite lower bound");
        }
    }
    const LpContext ctx(model);
    return ctx.solve(ctx.model_lower(), ctx.model_upper(), options);
}

}  // namespace hermes::milp
