#include "milp/solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "milp/branching.h"
#include "milp/cuts.h"
#include "milp/decompose.h"
#include "milp/presolve.h"
#include "obs/obs.h"

namespace hermes::milp {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kInf = std::numeric_limits<double>::infinity();
// Objectives closer than this are the same incumbent; the lexicographic
// value tie-break below then keeps the published solution deterministic.
constexpr double kIncumbentTieEps = 1e-9;

struct BoundChange {
    VarId var;
    double lower;
    double upper;
};

struct Node {
    std::vector<BoundChange> changes;  // cumulative path from the root
    double parent_bound = -kInf;       // LP bound inherited from the parent
    std::uint64_t seq = 0;             // creation order, breaks bound ties
    Basis basis;                       // parent's optimal basis (warm start)
    // The branch that created this node, for pseudocost learning: variable,
    // direction, and the fractional distance the branch rounded away
    // (f for the down child, 1 - f for the up child). var < 0 at the root.
    VarId branch_var = -1;
    bool branch_up = false;
    double branch_dist = 0.0;
};

// Heap comparator for a best-bound min-heap (ties: earliest-created node
// first, which preserves the dive-first exploration among equal bounds).
struct NodeOrder {
    bool operator()(const Node& a, const Node& b) const noexcept {
        if (a.parent_bound != b.parent_bound) return a.parent_bound > b.parent_bound;
        return a.seq > b.seq;
    }
};

// Most fractional integer variable, or nullopt when the point is integral.
std::optional<VarId> pick_branch_var(const Model& model, const std::vector<double>& values,
                                     double tolerance) {
    std::optional<VarId> best;
    double best_score = -1.0;
    for (std::size_t j = 0; j < model.variable_count(); ++j) {
        const Variable& v = model.variable(static_cast<VarId>(j));
        if (v.type == VarType::kContinuous) continue;
        const double x = values[j];
        const double frac = std::abs(x - std::round(x));
        if (frac <= tolerance) continue;
        const double score = 0.5 - std::abs(frac - 0.5);  // closeness to 0.5
        if (score > best_score) {
            best_score = score;
            best = static_cast<VarId>(j);
        }
    }
    return best;
}

void snap_integers(const Model& model, std::vector<double>& values, double tolerance) {
    for (std::size_t j = 0; j < model.variable_count(); ++j) {
        if (model.variable(static_cast<VarId>(j)).type == VarType::kContinuous) continue;
        const double r = std::round(values[j]);
        if (std::abs(values[j] - r) <= tolerance) values[j] = r;
    }
}

bool lexicographically_less(const std::vector<double>& a, const std::vector<double>& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// One branch-and-bound search: shared open list and incumbent behind a
// mutex, workers solving node LPs outside it. All bound bookkeeping is in
// minimization space (`sense_` folds max models in).
class Search {
public:
    Search(const Model& model, const MilpOptions& options)
        : model_(model),
          options_(options),
          context_(model),
          sense_(model.is_minimization() ? 1.0 : -1.0),
          start_(Clock::now()),
          sink_(options.sink),
          pseudocosts_(model.variable_count()),
          global_lower_(context_.model_lower()),
          global_upper_(context_.model_upper()) {
        if (sink_ != nullptr) {
            // Look the metrics up once; workers bump the cached references.
            warm_attempts_ = &sink_->counter("lp.warm_attempts");
            warm_hits_ = &sink_->counter("lp.warm_hits");
            warm_misses_ = &sink_->counter("lp.warm_misses");
            idle_ns_ = &sink_->counter("bb.idle_ns");
            lp_iterations_per_node_ = &sink_->histogram(
                "bb.lp_iterations_per_node", obs::geometric_bounds(1.0, 4.0, 10));
        }
    }

    MilpResult run() {
        if (options_.warm_start &&
            model_.is_feasible(*options_.warm_start, options_.integrality_tolerance * 10)) {
            incumbent_ = sense_ * model_.objective_value(*options_.warm_start);
            incumbent_values_ = *options_.warm_start;
            has_incumbent_ = true;
        }
        open_.push_back(Node{});  // root: no bound changes, cold LP

        const int threads = options_.resolved_threads();
        {
            std::vector<std::jthread> pool;
            pool.reserve(static_cast<std::size_t>(threads - 1));
            for (int i = 1; i < threads; ++i) pool.emplace_back([this, i] { worker(i); });
            worker(0);  // the calling thread is worker 0
        }  // jthreads join here

        // A deadline (or wall-clock budget) that trips mid-LP surfaces as
        // per-node iteration limits: the affected subtrees are dropped and
        // the open list can drain before any worker reaches the pop-time
        // check, leaving hit_limit_ false. Reclassify that exit as the
        // time-limit stop it actually is, so a cooperative cancellation
        // never masquerades as a clean kFeasible/kOptimal finish.
        const bool clock_up = (options_.time_limit_seconds > 0.0 &&
                               seconds() > options_.time_limit_seconds) ||
                              options_.deadline.expired();
        if (clock_up && (hit_limit_ || any_lp_limit_)) {
            hit_limit_ = true;
            hit_time_limit_ = true;
        }

        if (sink_ != nullptr) {
            sink_->counter("bb.nodes").add(nodes_);
            sink_->counter("bb.lp_iterations").add(lp_iterations_);
        }
        MilpResult result;
        result.nodes = nodes_;
        result.lp_iterations = lp_iterations_;
        result.elapsed_seconds = seconds();
        if (unbounded_) {
            result.status = MilpStatus::kUnbounded;
            return result;
        }
        // Residual bound over everything left unexplored: open nodes plus
        // subtrees dropped on LP iteration limits.
        double open_bound = residual_bound_;
        for (const Node& n : open_) open_bound = std::min(open_bound, n.parent_bound);

        const bool exhausted = !hit_limit_;
        // has_incumbent_, not incumbent_values_.empty(): a fully presolved
        // model has zero variables, so a real incumbent can be empty.
        if (has_incumbent_) {
            result.values = std::move(incumbent_values_);
            result.objective = sense_ * incumbent_;  // back to the model's own sense
            if (exhausted && !any_lp_limit_) {
                result.status = MilpStatus::kOptimal;
                result.best_bound = result.objective;
            } else {
                result.status = hit_time_limit_ ? MilpStatus::kTimeLimit
                                                : MilpStatus::kFeasible;
                result.best_bound = sense_ * std::min(open_bound, incumbent_);
            }
        } else if (exhausted && !any_lp_limit_) {
            result.status = MilpStatus::kInfeasible;
        } else {
            result.status = MilpStatus::kNoSolution;
            result.best_bound = sense_ * open_bound;
        }
        return result;
    }

private:
    [[nodiscard]] double seconds() const {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

    // Per-worker tallies, flushed to the sink once at worker exit so the
    // node loop never touches the shared metric atomics.
    struct WorkerStats {
        std::int64_t idle_ns = 0;
        std::int64_t warm_attempts = 0;
        std::int64_t warm_hits = 0;
        std::int64_t warm_wasted_pivots = 0;
        // Indexed by WarmAbandon (kLoad..kVerify); kNone is never counted.
        std::int64_t abandons[6] = {0, 0, 0, 0, 0, 0};
        // LU kernel observability, summed over this worker's node LPs:
        // refactorizations, Forrest-Tomlin updates, hypersparse vs dense
        // triangular solves, factor/basis nonzeros at refactorization, and
        // the Devex candidate-list hit/rebuild split.
        std::int64_t factor_refactorizations = 0;
        std::int64_t factor_ft_updates = 0;
        std::int64_t factor_hyper_solves = 0;
        std::int64_t factor_dense_solves = 0;
        double factor_fill_nnz = 0.0;
        double factor_basis_nnz = 0.0;
        std::int64_t pricing_list_hits = 0;
        std::int64_t pricing_rebuilds = 0;
    };

    // RAII flush of one worker's stats: runs on every exit path — clean
    // drain, stop flag, deadline/limit trip, or an exception unwinding the
    // worker — so repair-ladder escalations that abort via core::Deadline
    // still show their lp.warm_* counters in the metrics export.
    class FlushStatsOnExit {
    public:
        FlushStatsOnExit(Search& search, WorkerStats& stats) noexcept
            : search_(search), stats_(stats) {}
        ~FlushStatsOnExit() { search_.flush_worker_stats(stats_); }
        FlushStatsOnExit(const FlushStatsOnExit&) = delete;
        FlushStatsOnExit& operator=(const FlushStatsOnExit&) = delete;

    private:
        Search& search_;
        WorkerStats& stats_;
    };

    void flush_worker_stats(const WorkerStats& stats) {
        if (sink_ == nullptr) return;
        idle_ns_->add(stats.idle_ns);
        warm_attempts_->add(stats.warm_attempts);
        warm_hits_->add(stats.warm_hits);
        warm_misses_->add(stats.warm_attempts - stats.warm_hits);
        sink_->counter("lp.warm_wasted_pivots").add(stats.warm_wasted_pivots);
        static constexpr const char* kAbandonNames[6] = {
            "lp.warm_abandon_load",    "lp.warm_abandon_factorize",
            "lp.warm_abandon_gate",    "lp.warm_abandon_budget",
            "lp.warm_abandon_verdict", "lp.warm_abandon_verify"};
        for (int i = 0; i < 6; ++i) {
            if (stats.abandons[i] != 0) {
                sink_->counter(kAbandonNames[i]).add(stats.abandons[i]);
            }
        }
        // Registered unconditionally (like the warm_* trio) so exported
        // metrics JSON always carries the lp.factor_* surface CI asserts on.
        sink_->counter("lp.factor_refactorizations").add(stats.factor_refactorizations);
        sink_->counter("lp.factor_ft_updates").add(stats.factor_ft_updates);
        sink_->counter("lp.factor_hyper_solves").add(stats.factor_hyper_solves);
        sink_->counter("lp.factor_dense_solves").add(stats.factor_dense_solves);
        sink_->counter("lp.factor_fill_nnz")
            .add(static_cast<std::int64_t>(stats.factor_fill_nnz));
        sink_->counter("lp.factor_basis_nnz")
            .add(static_cast<std::int64_t>(stats.factor_basis_nnz));
        sink_->counter("lp.pricing_list_hits").add(stats.pricing_list_hits);
        sink_->counter("lp.pricing_rebuilds").add(stats.pricing_rebuilds);
    }

    void worker(int index) {
        if (sink_ != nullptr && index > 0) {
            sink_->name_thread("bb.worker." + std::to_string(index));
        }
        obs::Span lane(sink_, "bb.worker");
        WorkerStats stats;
        const FlushStatsOnExit flush(*this, stats);
        // Per-worker scratch: bound vectors perturbed per node against the
        // shared context and the kernel workspace. `base` mirrors
        // the globally tightened bounds (strong-branch fixings, incumbent
        // reduced-cost fixing) and is refreshed under the lock whenever the
        // shared version moves; `lower`/`upper` are `base` plus the node's
        // own changes during one LP solve.
        std::vector<double> base_lower = context_.model_lower();
        std::vector<double> base_upper = context_.model_upper();
        std::vector<double> lower = base_lower;
        std::vector<double> upper = base_upper;
        std::uint64_t seen_bounds_version = 0;
        LpWorkspace workspace;
        while (true) {
            Node node;
            {
                std::unique_lock lk(mu_);
                const std::int64_t wait_start = sink_ != nullptr ? obs::now_ns() : 0;
                cv_.wait(lk, [&] { return stop_ || !open_.empty() || in_flight_ == 0; });
                if (sink_ != nullptr) stats.idle_ns += obs::now_ns() - wait_start;
                if (stop_) break;
                if (open_.empty()) break;  // in_flight_ == 0: search exhausted
                const bool time_up = (options_.time_limit_seconds > 0.0 &&
                                      seconds() > options_.time_limit_seconds) ||
                                     options_.deadline.expired();
                if (time_up || nodes_ >= options_.node_limit ||
                    lp_iterations_ >= options_.iteration_limit) {
                    hit_limit_ = true;
                    if (time_up) hit_time_limit_ = true;
                    stop_ = true;
                    cv_.notify_all();
                    break;
                }
                std::pop_heap(open_.begin(), open_.end(), NodeOrder{});
                node = std::move(open_.back());
                open_.pop_back();
                ++nodes_;
                if (node.parent_bound >= incumbent_ - options_.absolute_gap) continue;
                if (seen_bounds_version != bounds_version_) {
                    base_lower = global_lower_;
                    base_upper = global_upper_;
                    lower = base_lower;
                    upper = base_upper;
                    seen_bounds_version = bounds_version_;
                }
                ++in_flight_;
            }
            {
                obs::Span node_span(sink_, "bb.node");
                process(std::move(node), base_lower, base_upper, lower, upper,
                        workspace, stats);
            }
            {
                const std::lock_guard lk(mu_);
                --in_flight_;
            }
            cv_.notify_all();
        }
        cv_.notify_all();  // wake peers so they observe stop/exhaustion too
    }

    void process(Node node, std::vector<double>& base_lower,
                 std::vector<double>& base_upper, std::vector<double>& lower,
                 std::vector<double>& upper, LpWorkspace& workspace,
                 WorkerStats& stats) {
        // Each LP inherits the remaining wall-clock budget so one long
        // solve cannot blow through the MILP time limit; <= 0 means the
        // search has no budget and node LPs get none either.
        const double remaining =
            options_.time_limit_seconds <= 0.0
                ? 1e18
                : std::max(0.05, options_.time_limit_seconds - seconds());
        const Basis* warm =
            options_.warm_lp_basis && !node.basis.empty() ? &node.basis : nullptr;
        const bool is_root = node.changes.empty() && node.branch_var < 0;
        // Apply the node's cumulative bound changes (intersected, so
        // repeated changes to one variable compose) directly onto the
        // per-worker vectors — no per-node model rebuild.
        for (const BoundChange& ch : node.changes) {
            const auto j = static_cast<std::size_t>(ch.var);
            lower[j] = std::max(lower[j], ch.lower);
            upper[j] = std::min(upper[j], ch.upper);
        }
        LpOptions lp_options;
        lp_options.iteration_limit = options_.lp_iteration_limit;
        lp_options.time_limit_seconds = remaining;
        lp_options.deadline = options_.deadline;
        lp_options.warm_basis = warm;
        lp_options.refactor_interval = options_.lp_refactor_interval;
        lp_options.warm_pivot_budget = options_.lp_warm_pivot_budget;
        // Root reduced costs feed incumbent-driven bound tightening.
        lp_options.want_dual_values = is_root;
        LpResult lp = context_.solve(lower, upper, lp_options, &workspace);
        for (const BoundChange& ch : node.changes) {
            const auto j = static_cast<std::size_t>(ch.var);
            lower[j] = base_lower[j];
            upper[j] = base_upper[j];
        }

        if (sink_ != nullptr) {
            if (warm != nullptr) {
                ++stats.warm_attempts;
                if (lp.warm_used) ++stats.warm_hits;
                stats.warm_wasted_pivots += lp.warm_wasted_iterations;
                if (lp.warm_abandon != WarmAbandon::kNone) {
                    ++stats.abandons[static_cast<int>(lp.warm_abandon) - 1];
                }
            }
            stats.factor_refactorizations += lp.factor.refactorizations;
            stats.factor_ft_updates += lp.factor.ft_updates;
            stats.factor_hyper_solves += lp.factor.hyper_solves;
            stats.factor_dense_solves += lp.factor.dense_solves;
            stats.factor_fill_nnz += lp.factor.fill_nnz;
            stats.factor_basis_nnz += lp.factor.basis_nnz;
            stats.pricing_list_hits += lp.pricing_hits;
            stats.pricing_rebuilds += lp.pricing_rebuilds;
            lp_iterations_per_node_->observe(static_cast<double>(lp.iterations));
        }

        // Pseudocost learning: this node's LP bound measures the degradation
        // the branch that created it actually caused. Outside the search
        // lock — the table has its own.
        if (lp.status == LpStatus::kOptimal && node.branch_var >= 0) {
            pseudocosts_.record(node.branch_var, node.branch_up, node.branch_dist,
                                sense_ * lp.objective - node.parent_bound);
        }

        std::int64_t probe_iterations = 0;
        if (lp.status == LpStatus::kOptimal && is_root && options_.pseudocost_branching) {
            probe_iterations = strong_branch_root(lp, base_lower, base_upper, lower,
                                                  upper, workspace);
            if (!lp.reduced_costs.empty()) {
                const std::lock_guard lk(mu_);
                root_bound_ = sense_ * lp.objective;
                root_reduced_costs_.resize(lp.reduced_costs.size());
                for (std::size_t j = 0; j < lp.reduced_costs.size(); ++j) {
                    root_reduced_costs_[j] = sense_ * lp.reduced_costs[j];
                }
            }
        }

        const std::lock_guard lk(mu_);
        lp_iterations_ += lp.iterations + probe_iterations;

        if (lp.status == LpStatus::kInfeasible) return;
        if (lp.status == LpStatus::kIterationLimit) {
            // Cannot certify this subtree: remember its bound, drop it.
            any_lp_limit_ = true;
            residual_bound_ = std::min(residual_bound_, node.parent_bound);
            return;
        }
        if (lp.status == LpStatus::kUnbounded) {
            if (node.changes.empty()) {  // only the root can prove unboundedness
                unbounded_ = true;
                stop_ = true;
                cv_.notify_all();
            }
            return;
        }

        const double bound = sense_ * lp.objective;
        if (bound >= incumbent_ - options_.absolute_gap) return;

        snap_integers(model_, lp.values, options_.integrality_tolerance);
        const auto branch_var =
            options_.pseudocost_branching
                ? pseudocosts_.select(model_, lp.values,
                                      options_.integrality_tolerance)
                : pick_branch_var(model_, lp.values, options_.integrality_tolerance);
        if (!branch_var) {
            publish_incumbent(bound, std::move(lp.values));
            return;
        }

        const double x = lp.values[static_cast<std::size_t>(*branch_var)];
        const double floor_x = std::floor(x);
        const double frac = x - floor_x;
        Node down;
        down.changes = node.changes;
        down.changes.push_back(BoundChange{*branch_var, -kInfinity, floor_x});
        down.parent_bound = bound;
        down.branch_var = *branch_var;
        down.branch_up = false;
        down.branch_dist = frac;
        Node up;
        up.changes = std::move(node.changes);
        up.changes.push_back(BoundChange{*branch_var, floor_x + 1.0, kInfinity});
        up.parent_bound = bound;
        up.branch_var = *branch_var;
        up.branch_up = true;
        up.branch_dist = 1.0 - frac;

        // The child closer to the LP value gets the smaller sequence number,
        // so equal-bound ties pop in diving order.
        Node& first = x - floor_x < 0.5 ? down : up;
        Node& second = x - floor_x < 0.5 ? up : down;
        first.seq = next_seq_++;
        second.seq = next_seq_++;
        first.basis = lp.basis;
        second.basis = std::move(lp.basis);

        push_node(std::move(down));
        push_node(std::move(up));
        cv_.notify_all();
    }

    // Strong branching at the root: actually solves both child LPs of the
    // most fractional candidates (warm from the root basis, tight pivot
    // cap) and seeds the shared pseudocost table with the measured
    // degradations, so every later selection starts reliable instead of
    // guessing from fractions. An infeasible probe is a free fixing: that
    // side of the dichotomy is empty everywhere, so the global bound
    // tightens and every worker picks it up on its next node. Returns the
    // pivots the probes spent (charged to the search total).
    std::int64_t strong_branch_root(const LpResult& root,
                                    std::vector<double>& base_lower,
                                    std::vector<double>& base_upper,
                                    std::vector<double>& lower,
                                    std::vector<double>& upper,
                                    LpWorkspace& workspace) {
        struct Candidate {
            VarId var;
            double frac;  // distance from the nearest integer, in (tol, 0.5]
        };
        std::vector<Candidate> cands;
        for (std::size_t j = 0; j < model_.variable_count(); ++j) {
            if (model_.variable(static_cast<VarId>(j)).type == VarType::kContinuous) {
                continue;
            }
            const double x = root.values[j];
            const double f = x - std::floor(x);
            const double dist = std::min(f, 1.0 - f);
            if (dist <= options_.integrality_tolerance) continue;
            cands.push_back({static_cast<VarId>(j), dist});
        }
        std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
            if (a.frac != b.frac) return a.frac > b.frac;
            return a.var < b.var;
        });
        if (cands.size() > static_cast<std::size_t>(
                               std::max(0, options_.strong_branch_candidates))) {
            cands.resize(
                static_cast<std::size_t>(options_.strong_branch_candidates));
        }

        const double root_bound = sense_ * root.objective;
        std::int64_t spent = 0;
        for (const Candidate& c : cands) {
            const auto j = static_cast<std::size_t>(c.var);
            const double x = root.values[j];
            const double floor_x = std::floor(x);
            const double f = x - floor_x;
            for (const bool up : {false, true}) {
                const double saved_lower = lower[j];
                const double saved_upper = upper[j];
                if (up) {
                    lower[j] = floor_x + 1.0;
                } else {
                    upper[j] = floor_x;
                }
                LpOptions probe;
                probe.iteration_limit = options_.strong_branch_pivot_limit;
                probe.time_limit_seconds =
                    options_.time_limit_seconds <= 0.0
                        ? 1e18
                        : std::max(0.05, options_.time_limit_seconds - seconds());
                probe.deadline = options_.deadline;
                probe.warm_basis = &root.basis;
                probe.refactor_interval = options_.lp_refactor_interval;
                probe.warm_pivot_budget = options_.lp_warm_pivot_budget;
                const LpResult child = context_.solve(lower, upper, probe, &workspace);
                lower[j] = saved_lower;
                upper[j] = saved_upper;
                spent += child.iterations;
                if (child.status == LpStatus::kOptimal) {
                    const double gain = sense_ * child.objective - root_bound;
                    // A zero-degradation probe at a degenerate root vertex
                    // (every direction free to move along an alternative
                    // optimum) is noise, not signal: seeding it would brand
                    // the variable useless-to-branch everywhere and drag the
                    // table-wide fallback average toward zero. Real zero
                    // observations still arrive from processed tree nodes.
                    if (gain > options_.absolute_gap) {
                        pseudocosts_.record(c.var, up, up ? 1.0 - f : f, gain);
                    }
                } else if (child.status == LpStatus::kInfeasible) {
                    const std::lock_guard lk(mu_);
                    if (up) {
                        global_upper_[j] = std::min(global_upper_[j], floor_x);
                    } else {
                        global_lower_[j] = std::max(global_lower_[j], floor_x + 1.0);
                    }
                    ++bounds_version_;
                    base_lower[j] = global_lower_[j];
                    base_upper[j] = global_upper_[j];
                    lower[j] = base_lower[j];
                    upper[j] = base_upper[j];
                }
            }
        }
        return spent;
    }

    // Reduced-cost fixing against the fresh incumbent (mu_ must be held):
    // from LP duality, any feasible point's objective is at least
    // root_bound + d_j * (x_j - l_j) for a root reduced cost d_j > 0 (and
    // symmetrically from the upper bound for d_j < 0), so variables whose
    // movement alone would cross the incumbent-minus-gap cutoff get their
    // box clipped globally. Workers resync on the version bump.
    void tighten_from_incumbent() {
        if (root_reduced_costs_.empty() || !has_incumbent_) return;
        const double slack = (incumbent_ - options_.absolute_gap) - root_bound_;
        if (!std::isfinite(slack) || slack < 0.0) return;
        bool changed = false;
        for (std::size_t j = 0; j < root_reduced_costs_.size(); ++j) {
            const double d = root_reduced_costs_[j];
            const bool integral =
                model_.variable(static_cast<VarId>(j)).type != VarType::kContinuous;
            if (d > 1e-9 && std::isfinite(context_.model_lower()[j])) {
                double ub = context_.model_lower()[j] + slack / d;
                if (integral) ub = std::floor(ub + 1e-9);
                if (ub < global_upper_[j] - 1e-12) {
                    global_upper_[j] = std::max(ub, global_lower_[j]);
                    changed = true;
                }
            } else if (d < -1e-9 && std::isfinite(context_.model_upper()[j])) {
                double lb = context_.model_upper()[j] + slack / d;
                if (integral) lb = std::ceil(lb - 1e-9);
                if (lb > global_lower_[j] + 1e-12) {
                    global_lower_[j] = std::min(lb, global_upper_[j]);
                    changed = true;
                }
            }
        }
        if (changed) ++bounds_version_;
    }

    // mu_ must be held.
    void push_node(Node node) {
        open_.push_back(std::move(node));
        std::push_heap(open_.begin(), open_.end(), NodeOrder{});
    }

    // mu_ must be held. Deterministic across schedules for the objective;
    // on exact objective ties the lexicographically smallest assignment wins.
    void publish_incumbent(double bound, std::vector<double> values) {
        const bool better = bound < incumbent_ - kIncumbentTieEps;
        const bool tie_break = std::abs(bound - incumbent_) <= kIncumbentTieEps &&
                               lexicographically_less(values, incumbent_values_);
        if (!better && !tie_break) return;
        incumbent_ = std::min(incumbent_, bound);
        incumbent_values_ = std::move(values);
        has_incumbent_ = true;
        if (better) tighten_from_incumbent();
        // Prune on publish: open nodes that can no longer beat the incumbent
        // are dropped immediately instead of at pop time.
        const double cutoff = incumbent_ - options_.absolute_gap;
        std::erase_if(open_, [&](const Node& n) { return n.parent_bound >= cutoff; });
        std::make_heap(open_.begin(), open_.end(), NodeOrder{});
    }

    const Model& model_;
    const MilpOptions& options_;
    const LpContext context_;  // shared, immutable; bounds live per worker
    const double sense_;
    const Clock::time_point start_;
    obs::Sink* const sink_;
    obs::Counter* warm_attempts_ = nullptr;
    obs::Counter* warm_hits_ = nullptr;
    obs::Counter* warm_misses_ = nullptr;
    obs::Counter* idle_ns_ = nullptr;
    obs::Histogram* lp_iterations_per_node_ = nullptr;

    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Node> open_;  // best-bound min-heap via NodeOrder
    std::size_t in_flight_ = 0;
    bool stop_ = false;
    bool hit_limit_ = false;
    bool hit_time_limit_ = false;  // wall-clock/deadline specifically
    bool unbounded_ = false;
    bool any_lp_limit_ = false;
    double incumbent_ = kInf;  // minimization space
    bool has_incumbent_ = false;
    std::vector<double> incumbent_values_;
    double residual_bound_ = kInf;
    std::int64_t nodes_ = 0;
    std::int64_t lp_iterations_ = 0;
    std::uint64_t next_seq_ = 1;

    // Shared branching state: pseudocosts have their own lock; the global
    // bound box and its version are guarded by mu_ and mirrored into each
    // worker's base vectors on version mismatch.
    PseudocostTable pseudocosts_;
    std::vector<double> global_lower_;
    std::vector<double> global_upper_;
    std::uint64_t bounds_version_ = 1;  // workers start at 0, so they sync once
    std::vector<double> root_reduced_costs_;  // minimization sense; root only
    double root_bound_ = -kInf;
};

}  // namespace

const char* to_string(MilpStatus s) noexcept {
    switch (s) {
        case MilpStatus::kOptimal: return "optimal";
        case MilpStatus::kFeasible: return "feasible";
        case MilpStatus::kTimeLimit: return "time-limit";
        case MilpStatus::kInfeasible: return "infeasible";
        case MilpStatus::kNoSolution: return "no-solution";
        case MilpStatus::kUnbounded: return "unbounded";
    }
    return "?";
}

namespace {

// Search preceded by the root cut loop: the model is copied, augmented with
// the surviving cut pool, and searched. Cuts are valid for the integer
// hull, so the objective is identical with or without them.
MilpResult search_with_cuts(const Model& model, const MilpOptions& options) {
    if (options.cut_rounds <= 0) {
        Search search(model, options);
        return search.run();
    }
    Model cut_model = model;
    CutOptions cut_options;
    cut_options.max_rounds = options.cut_rounds;
    if (options.time_limit_seconds > 0.0) {
        // The loop is a root-strengthening preamble; cap it well below the
        // search budget so a slow separation can never starve the tree.
        cut_options.time_limit_seconds = 0.2 * options.time_limit_seconds;
    }
    run_root_cut_loop(cut_model, cut_options, options.sink);
    Search search(cut_model, options);
    return search.run();
}

}  // namespace

MilpResult solve_milp(const Model& model, const MilpOptions& options) {
    if (options.decompose) {
        return solve_benders(model, options);
    }
    if (!options.presolve) {
        return search_with_cuts(model, options);
    }
    const PresolveResult pre = presolve(model);
    if (pre.infeasible) {
        MilpResult result;
        result.status = MilpStatus::kInfeasible;
        return result;
    }
    MilpOptions reduced_options = options;
    if (options.warm_start) {
        // Carry the starting assignment into the reduced space; drop it when
        // it contradicts a presolve fixing (it was infeasible anyway).
        std::vector<double> reduced_start;
        if (pre.restrict(*options.warm_start, reduced_start,
                         options.integrality_tolerance * 10)) {
            reduced_options.warm_start = std::move(reduced_start);
        } else {
            reduced_options.warm_start.reset();
        }
    }
    MilpResult result = search_with_cuts(pre.reduced, reduced_options);
    if (result.has_solution()) {
        result.values = pre.postsolve(result.values);
        // The reduced objective already carries the fixed contributions as a
        // constant; re-evaluating on the original model just sheds the
        // accumulated float noise.
        result.objective = model.objective_value(result.values);
    }
    return result;
}

}  // namespace hermes::milp
