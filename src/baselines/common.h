// Shared machinery for the comparison frameworks of §VI-A.
//
// Every baseline implements the Strategy interface: given the raw program
// set and the network, produce the TDG it internally works on plus a full
// deployment. Hermes itself (greedy and Optimal) is reached through
// core/hermes.h; the benchmarks run both through the same reporting path.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/options.h"
#include "milp/solver.h"
#include "net/path_oracle.h"
#include "prog/program.h"

namespace hermes::baselines {

// Inherits core::CommonOptions; `sink` is forwarded into the embedded MILP
// options (when those leave it unset) so ILP-based baselines trace their
// branch-and-bound search like the Hermes paths do.
struct BaselineOptions : core::CommonOptions {
    double epsilon1 = std::numeric_limits<double>::infinity();
    std::int64_t epsilon2 = std::numeric_limits<std::int64_t>::max();
    milp::MilpOptions milp;            // time/node limits for ILP-based baselines
    std::size_t candidate_limit = 0;   // candidate switches for network-wide ILPs
    bool segment_level = true;         // contract TDGs for network-wide ILPs
    bool use_ilp = true;               // false = pure-heuristic variants
    // Shared per-Network path cache for route wiring and chain building.
    // Null = compute paths directly.
    net::PathOracle* oracle = nullptr;
};

struct StrategyOutcome {
    tdg::Tdg merged;               // the TDG the strategy deployed (analyzed)
    core::Deployment deployment;
    double solve_seconds = 0.0;
    std::string status;            // "heuristic", MILP status, or "fallback(...)"
};

class Strategy {
public:
    virtual ~Strategy() = default;
    [[nodiscard]] virtual std::string name() const = 0;
    [[nodiscard]] virtual StrategyOutcome deploy(const std::vector<prog::Program>& programs,
                                                 const net::Network& net,
                                                 const BaselineOptions& options) = 0;
};

// All eight comparison frameworks in the paper's order:
// MS, Sonata, SPEED, MTP, FP, P4All, FFL, FFLS.
[[nodiscard]] std::vector<std::unique_ptr<Strategy>> all_strategies();

// Union of the programs' TDGs without redundancy elimination (single-switch
// frameworks deploy programs independently), folded in order by
// tdg::UnionFold and analyzed; `ranges` receives the [begin, end) node range
// of each program inside the union.
[[nodiscard]] tdg::Tdg union_programs(const std::vector<prog::Program>& programs,
                                      std::vector<std::pair<std::size_t, std::size_t>>& ranges);

// Exact per-program stage packing: minimizes the maximum stage index used by
// `nodes` on a switch whose per-stage remaining capacity is `remaining`,
// subject to intra-set dependency order. Returns the stage per node, or
// nullopt when the MILP finds no feasible packing within the limits.
// This is the Min-Stage/Sonata ILP core.
// `min_stages` (optional, parallel to nodes) gives per-node stage floors
// imposed by already-placed same-switch predecessors outside `nodes`.
[[nodiscard]] std::optional<std::vector<int>> milp_pack(
    const tdg::Tdg& t, const std::vector<tdg::NodeId>& nodes,
    const std::vector<double>& remaining, const milp::MilpOptions& options,
    std::int64_t* lp_iterations = nullptr, const std::vector<int>& min_stages = {});

// Adds shortest-path routes for every ordered switch pair that carries at
// least one cross-switch dependency. Throws when a needed pair is
// disconnected. Pass a shared net::PathOracle to reuse cached trees.
void add_crossing_routes(const tdg::Tdg& t, const net::Network& net, core::Deployment& d,
                         net::PathOracle* oracle = nullptr);

}  // namespace hermes::baselines
