// Sparse LU basis kernel for the revised simplex (milp/simplex.cc).
//
// LuFactor holds B = LU for the m basis columns of an LpContext in a form
// built for thousands of cheap solves between rebuilds:
//
//  * Factorization is two-stage: a singleton sweep first (column singletons
//    and row singletons pivot with zero fill — LP bases are dominated by
//    logical and near-triangular columns), then Markowitz pivoting with
//    threshold partial pivoting (|pivot| >= tau * colmax) on the residual
//    bump. L is kept as elementary row operations in pivot order; U is kept
//    column-wise per basis slot with a row-wise mirror, both under lazy
//    version-stamped deletion so an update never rewrites other columns.
//
//  * A simplex pivot applies a Forrest-Tomlin update instead of appending an
//    eta: the spiked column (the partial FTRAN of the entering column,
//    cached by ftran_column) replaces the leaving slot's U column, the
//    leaving pivot moves to the end of the pivot order, and the displaced U
//    row is eliminated by one row operation appended to an R file. A
//    near-zero new diagonal rejects the update and the caller refactorizes.
//
//  * FTRAN/BTRAN are hypersparse: when the right-hand side is sparse the
//    triangular solves walk only the slots reachable from its nonzeros
//    (depth-first over the U adjacency, topologically applied), falling
//    back to a plain pass over the pivot order past a density threshold.
//    BTRAN of a unit vector — the pivot-row computation behind Devex
//    pricing — is the ideal case and usually touches a handful of slots.
//
// "Slot" below means a basis position (index into the caller's basic[]
// array); slots are stable across updates, only their pivot order moves.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hermes::milp {

class LpContext;

class LuFactor {
public:
    // Counters accumulated across the factor's lifetime; the simplex drains
    // them into LpResult::factor after each solve.
    struct Stats {
        std::int64_t refactorizations = 0;
        std::int64_t ft_updates = 0;
        std::int64_t hyper_solves = 0;   // solves served by the DFS path
        std::int64_t dense_solves = 0;   // solves over the full pivot order
        double fill_nnz = 0.0;           // factor nonzeros at refactorization
        double basis_nnz = 0.0;          // basis nonzeros at refactorization
        void reset() { *this = Stats{}; }
    };

    // Factorizes the basis whose slot j holds the column of variable
    // basic[j] (structural < n, logical n+i = unit vector on row i). A
    // non-empty hint replays a previously exported pivot order (see
    // export_pivot_order) and falls back to returning false when the stored
    // pivot is missing or too small — the caller then retries without the
    // hint. Returns false on a singular or duplicate-claimed basis.
    [[nodiscard]] bool factorize(const LpContext& ctx,
                                 std::span<const std::int32_t> basic,
                                 std::span<const std::int32_t> hint_slot = {},
                                 std::span<const std::int32_t> hint_row = {});

    // x = B^-1 A_var over slots. `x` must be all-zero on entry except at the
    // positions named by `xlist` (the previous call's nonzeros); both are
    // cleared and refilled. Also caches the pre-U spike for update().
    void ftran_column(const LpContext& ctx, std::int32_t var,
                      std::vector<double>& x, std::vector<std::int32_t>& xlist);

    // Dense FTRAN of a full right-hand side: b (over rows) is consumed,
    // x_slots is resized and overwritten.
    void ftran_dense(std::vector<double>& b_rows, std::vector<double>& x_slots);

    // rho = B^-T e_slot over rows, with the same zero/list contract as
    // ftran_column. The simplex prices the pivot row from this.
    void btran_unit(std::size_t slot, std::vector<double>& rho,
                    std::vector<std::int32_t>& rholist);

    // rho = B^-T c over rows for a sparse slot-indexed cost vector given as
    // parallel (slot, value) arrays — the phase-1 pricing workhorse, where c
    // is +-1 on the handful of infeasible basic slots. Same zero/list
    // contract as btran_unit; duplicate slots accumulate.
    void btran_seeds(std::span<const std::int32_t> slots,
                     std::span<const double> vals, std::vector<double>& rho,
                     std::vector<std::int32_t>& rholist);

    // Dense BTRAN: y = B^-T c where c is indexed by slot. y is resized and
    // overwritten.
    void btran_dense(const std::vector<double>& c_slots, std::vector<double>& y_rows);

    // Forrest-Tomlin update replacing `slot`'s column with the entering
    // column whose spike ftran_column cached. False means the update is
    // numerically unsafe (tiny new diagonal or huge multiplier) and the
    // caller must refactorize; the factor is unchanged in that case.
    [[nodiscard]] bool update(std::size_t slot);

    // Current pivot order as (slot, original row) pairs — the warm-start
    // snapshot format consumed by factorize()'s hint.
    void export_pivot_order(std::vector<std::int32_t>& slot_out,
                            std::vector<std::int32_t>& row_out) const;

    [[nodiscard]] Stats& stats() noexcept { return stats_; }
    [[nodiscard]] std::size_t dim() const noexcept { return m_; }
    [[nodiscard]] bool valid() const noexcept { return valid_; }
    // Update operations currently held: L eliminations plus appended
    // Forrest-Tomlin row etas.
    [[nodiscard]] std::int64_t ops() const noexcept {
        return static_cast<std::int64_t>(l_piv_row_.size() + r_target_.size());
    }

private:
    struct UEntry {
        std::int32_t slot = 0;  // the other endpoint's slot
        double val = 0.0;
        std::int32_t ver = 0;   // lazy deletion stamp (see rowver_/colver_)
    };

    void reset_pools();
    [[nodiscard]] bool eliminate(std::size_t k, std::size_t pivot_row,
                                 std::size_t pivot_col);
    void solve_u_ftran(std::vector<double>& work, std::vector<double>& x,
                       std::vector<std::int32_t>& xlist,
                       const std::vector<std::int32_t>& seed_rows, bool force_dense);
    void apply_l_ftran(std::vector<double>& v, std::vector<std::int32_t>* list);
    void apply_r_ftran(std::vector<double>& v, std::vector<std::int32_t>* list);

    std::size_t m_ = 0;
    bool valid_ = false;
    Stats stats_;

    // L: elementary row ops in pivot order (op k: v[row] -= val * v[piv]).
    std::vector<std::int64_t> l_start_;
    std::vector<std::int32_t> l_piv_row_;
    std::vector<std::int32_t> l_row_;
    std::vector<double> l_val_;
    // Row -> L ops touching it as a source, for hypersparse BTRAN-L^T.
    std::vector<std::int64_t> lrow_start_;
    std::vector<std::int32_t> lrow_op_;

    // R: Forrest-Tomlin row etas appended per update
    // (v[target] -= sum val_i * v[row_i]), applied after L in FTRAN.
    std::vector<std::int64_t> r_start_;
    std::vector<std::int32_t> r_target_;
    std::vector<std::int32_t> r_row_;
    std::vector<double> r_val_;

    // U keyed by slot. An entry in ucol_[j] is live while its ver matches
    // rowver_ of its row's slot; in urow_[k] while it matches colver_ of its
    // column's slot. Updates bump the leaving slot's versions instead of
    // erasing from every list.
    std::vector<std::vector<UEntry>> ucol_, urow_;
    std::vector<double> udiag_;
    std::vector<std::int32_t> urowof_;       // slot -> its pivot row
    std::vector<std::int32_t> slot_of_row_;  // inverse of urowof_
    std::vector<std::int32_t> rowver_, colver_;
    std::vector<std::int32_t> pivot_seq_;    // slots in pivot order
    std::vector<std::int32_t> seq_pos_;      // slot -> position in pivot_seq_

    // Cached spike (L- and R-applied entering column) for update().
    std::vector<double> spike_;
    std::vector<std::int32_t> spike_list_;
    bool spike_valid_ = false;

    // Factorization workspace (kept allocated between refactorizations).
    std::vector<std::vector<std::pair<std::int32_t, double>>> wrow_;
    std::vector<std::vector<std::int32_t>> wcol_;
    std::vector<std::int32_t> row_count_, col_count_;
    std::vector<std::uint8_t> row_active_, col_active_;
    std::vector<std::vector<std::int32_t>> buckets_;

    // Solve scratch.
    std::vector<double> work_;
    std::vector<double> seed_val_;  // slot-indexed seed scatter (btran_seeds)
    std::vector<std::pair<std::int32_t, std::int32_t>> dstack_;  // (slot, next child)
    std::vector<std::int32_t> mark_;
    std::int32_t epoch_ = 0;
    std::vector<std::int32_t> lop_mark_;  // per-L-op visit stamps (BTRAN DFS)
    std::int32_t lop_epoch_ = 0;
    std::vector<std::int32_t> stack_, reach_;
    std::vector<double> mu_;
    std::vector<std::int32_t> mu_list_, mu_touched_;
};

}  // namespace hermes::milp
