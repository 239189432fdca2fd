// Seeded input generators for the workloads.
//
// The generators use their own RNG and take the topology only as a switch
// count and a link list, so a change to the program under test cannot change
// a workload's inputs. The same seed gives byte-identical output.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace layerbench {

// SplitMix64, kept here rather than borrowed from the program (see above).
class Rng {
public:
    explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}
    std::uint64_t operator()() noexcept {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

private:
    std::uint64_t state_;
};

using LinkList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

// Links whose loss leaves the graph connected: not bridges, and not one of
// several parallel links between the same two switches (a link-down request
// names its endpoints, so it would be ambiguous).
[[nodiscard]] LinkList non_bridge_links(std::size_t switch_count, const LinkList& links);

// ---- serve-churn ----------------------------------------------------------

enum class ChurnOp : std::uint8_t {
    kAdd,
    kRemove,
    kRetarget,
    kInjectFault,
    kRecover,
    kQuery,
};

struct ChurnRequest {
    ChurnOp op = ChurnOp::kQuery;
    std::string line;  // one hermes_serve request, without the trailing '\n'
};

// At most kMaxTenants synthetic tenants at a time, drawn from a fixed pool
// of kProgramPool programs ("synthetic:<kPoolSeed>:<k>"). The pool is the
// same for every seed, so seeds differ in the sequence of events, not in the
// population of programs.
inline constexpr std::size_t kMaxTenants = 10;
inline constexpr std::size_t kProgramPool = 16;
inline constexpr std::uint64_t kPoolSeed = 1;

// A closed-loop churn script in the mix of `hermes_serve --emit-churn`: two
// initial adds, then adds, removes, retargets and queries, with link
// fault/recover requests making up about a tenth of the script. At most one
// fault is open at a time, a fault never takes down a bridge, only installed
// tenants are removed, at least one tenant stays installed, and the script
// ends with every fault recovered and a final query.
//
// The script has at least `requests` lines (at least 4). It is extended
// until its mutation count (every request but queries, one epoch each in a
// closed loop) leaves `tail_epochs` epochs past the last multiple of
// `snapshot_interval`, so a daemon killed after the last response always
// replays the same number of epochs on restart.
[[nodiscard]] std::vector<ChurnRequest> churn_script(std::size_t switch_count,
                                                     const LinkList& links,
                                                     std::uint64_t seed,
                                                     std::size_t requests,
                                                     std::size_t snapshot_interval,
                                                     std::size_t tail_epochs);

// ---- traffic --------------------------------------------------------------

// One flow of the million-flow mix. Routes are indices: for kShared into
// FlowPlan::shared_routes (shortest paths between the two switches); for
// kGrouped and kPrivate into fresh 5-hop private routes that the set-up
// creates in flow order.
struct PlannedFlow {
    enum class Regime : std::uint8_t { kShared, kGrouped, kPrivate };
    Regime regime = Regime::kShared;
    std::uint32_t route = 0;
    std::int32_t payload_bytes = 0;
    std::int32_t overhead_bytes = 0;
    double start_us = 0.0;
};

struct FlowPlan {
    LinkList shared_routes;  // (source switch, destination switch)
    std::vector<PlannedFlow> flows;
};

// The three-regime mix of bench/micro_sim at a million flows: 850k shared
// flows cycle over 512 routes 1 us apart (dense contention, the event loop's
// regime); 100k grouped flows ride 196-flow trains whose 156-flow head is
// paced 12 us apart (the time-serialized admission's regime) and whose tail
// is a 2 us burst that contends; 50k private flows each own a route (the
// classic fast path).
[[nodiscard]] FlowPlan flow_plan(std::size_t switch_count, std::uint64_t seed);

// Canonical bytes of a plan, for determinism checks.
[[nodiscard]] std::string serialize(const FlowPlan& plan);

}  // namespace layerbench
