// Tests for the extension modules: exact DP chain segmentation, the
// ε-tradeoff explorer, and incremental redeployment (on folded TDGs, and
// against the edge-rescanning placement walk it replaced).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <queue>
#include <stdexcept>
#include <utility>

#include "core/dp_split.h"
#include "core/greedy.h"
#include "core/hermes.h"
#include "core/incremental.h"
#include "core/objective.h"
#include "core/tradeoff.h"
#include "core/verifier.h"
#include "prog/library.h"
#include "prog/synthetic.h"
#include "sim/testbed.h"
#include "tdg/merge.h"
#include "util/rng.h"

namespace hermes::core {
namespace {

using tdg::DepType;
using tdg::NodeId;

tdg::Mat mat(const std::string& name, double resource) {
    return tdg::Mat(name, {tdg::header_field("h_" + name, 2)},
                    {tdg::Action{"a", {tdg::metadata_field("m_" + name, 4)}}}, 16,
                    resource);
}

// The Fig 4 instance again: known optimal max-cut 4 for 2-MAT switches.
tdg::Tdg fig4() {
    tdg::Tdg t;
    for (const char* n : {"a", "b", "c", "d", "e"}) t.add_node(mat(n, 1.0));
    auto edge = [&](NodeId f, NodeId to, int bytes) {
        t.add_edge(f, to, DepType::kMatch);
        t.edges().back().metadata_bytes = bytes;
    };
    edge(0, 1, 2);
    edge(0, 2, 2);
    edge(1, 2, 5);
    edge(2, 3, 1);
    edge(2, 4, 2);
    edge(3, 4, 2);
    return t;
}

// ---- boundary_cuts / dp_split -------------------------------------------------

TEST(DpSplit, BoundaryCutsMatchManualComputation) {
    const tdg::Tdg t = fig4();
    const auto cuts = boundary_cuts(t);
    ASSERT_EQ(cuts.size(), 6u);
    EXPECT_EQ(cuts[0], 0);
    EXPECT_EQ(cuts[1], 4);   // a | bcde: a->b + a->c
    EXPECT_EQ(cuts[2], 7);   // ab | cde: a->c (2) + b->c (5)
    EXPECT_EQ(cuts[3], 3);   // abc | de: c->d + c->e
    EXPECT_EQ(cuts[4], 4);   // abcd | e: c->e + d->e
    EXPECT_EQ(cuts[5], 0);
}

TEST(DpSplit, Figure4Optimal) {
    const tdg::Tdg t = fig4();
    const DpSplitResult r = dp_split(t, 2, 1.0);
    EXPECT_EQ(r.max_cut_bytes, 4);  // ties exist; the objective is what matters
    std::size_t covered = 0;
    for (const auto& segment : r.segments) {
        EXPECT_TRUE(segment_fits(t, segment, 2, 1.0));
        covered += segment.size();
    }
    EXPECT_EQ(covered, t.node_count());
}

TEST(DpSplit, SingleSegmentWhenEverythingFits) {
    const tdg::Tdg t = fig4();
    const DpSplitResult r = dp_split(t, 12, 1.0);
    EXPECT_EQ(r.segments.size(), 1u);
    EXPECT_EQ(r.max_cut_bytes, 0);
}

TEST(DpSplit, OversizedMatThrows) {
    tdg::Tdg t;
    t.add_node(mat("huge", 5.0));
    EXPECT_THROW((void)dp_split(t, 2, 1.0), std::runtime_error);
}

TEST(DpSplit, NeverWorseThanRecursiveGreedy) {
    // The DP optimum over contiguous segmentations bounds the greedy result
    // on the same instance family.
    for (const std::uint64_t seed : {3u, 7u, 11u, 19u}) {
        prog::SyntheticConfig config;
        const tdg::Tdg t = core::analyze(
            {prog::synthetic_program(config, seed, 0),
             prog::synthetic_program(config, seed, 1)});
        std::vector<NodeId> all(t.node_count());
        std::iota(all.begin(), all.end(), NodeId{0});
        const auto greedy_segments = split_tdg(t, all, 12, 1.0);
        const DpSplitResult dp = dp_split(t, 12, 1.0);

        // Greedy max-cut across its boundaries, via boundary_cuts.
        const auto cuts = boundary_cuts(t);
        std::int64_t greedy_max = 0;
        std::size_t position = 0;
        for (std::size_t i = 0; i + 1 < greedy_segments.size(); ++i) {
            position += greedy_segments[i].size();
            greedy_max = std::max(greedy_max, cuts[position]);
        }
        EXPECT_LE(dp.max_cut_bytes, greedy_max) << "seed " << seed;
        EXPECT_LE(dp.segments.size(), all.size());
    }
}

TEST(DpSplit, SegmentsDeployAndVerify) {
    const tdg::Tdg t = fig4();
    sim::TestbedConfig config;
    config.switch_count = 3;
    config.stages = 2;
    const net::Network n = sim::make_testbed(config);
    const DpSplitResult r = dp_split(t, config.stages, config.stage_capacity);
    const GreedyResult deployed = deploy_segments_on_chain(t, n, r.segments, {});
    EXPECT_TRUE(verify(t, n, deployed.deployment).ok);
    EXPECT_EQ(max_inflight_metadata(t, n, deployed.deployment), r.max_cut_bytes);
}

// ---- dp_split against the re-packing DP it replaced ---------------------------
//
// The oracle is the DP as first written, self-contained: its own O(V·E)
// Kahn order, its own boundary cuts, and its own naive first-fit re-pack of
// every candidate interval, scanning ends in ascending order and starts
// downward with a strict-< update. Its first-fit also checks the stages
// assign_stages gives each segment.

std::vector<NodeId> oracle_order(const tdg::Tdg& t) {
    std::vector<std::size_t> in_degree(t.node_count(), 0);
    for (const tdg::Edge& e : t.edges()) ++in_degree[e.to];
    std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
    for (NodeId v = 0; v < t.node_count(); ++v) {
        if (in_degree[v] == 0) ready.push(v);
    }
    std::vector<NodeId> order;
    while (!ready.empty()) {
        const NodeId v = ready.top();
        ready.pop();
        order.push_back(v);
        for (const tdg::Edge& e : t.edges()) {
            if (e.from == v && --in_degree[e.to] == 0) ready.push(e.to);
        }
    }
    return order;
}

double oracle_total(const tdg::Tdg& t, const std::vector<NodeId>& interval) {
    double total = 0.0;
    for (const NodeId v : interval) total += t.node(v).resource_units();
    return total;
}

// `interval` is in topological order: each node in the earliest stage after
// its in-interval predecessors that has room. The stage per interval node,
// or nullopt when some node fits no stage.
std::optional<std::vector<int>> oracle_stages(const tdg::Tdg& t,
                                              const std::vector<NodeId>& interval,
                                              int stages, double capacity) {
    std::map<NodeId, int> stage_of;
    std::vector<double> load(static_cast<std::size_t>(stages), 0.0);
    std::vector<int> result;
    for (const NodeId v : interval) {
        int earliest = 0;
        for (const tdg::Edge& e : t.edges()) {
            const auto it = stage_of.find(e.from);
            if (e.to == v && it != stage_of.end()) {
                earliest = std::max(earliest, it->second + 1);
            }
        }
        const double need = t.node(v).resource_units();
        if (need > capacity) return std::nullopt;
        int chosen = -1;
        for (int s = earliest; s < stages && chosen < 0; ++s) {
            if (load[static_cast<std::size_t>(s)] + need <= capacity + 1e-9) chosen = s;
        }
        if (chosen < 0) return std::nullopt;
        load[static_cast<std::size_t>(chosen)] += need;
        stage_of[v] = chosen;
        result.push_back(chosen);
    }
    return result;
}

// The aggregate test, then the stage packing.
bool oracle_fits(const tdg::Tdg& t, const std::vector<NodeId>& interval, int stages,
                 double capacity) {
    if (oracle_total(t, interval) > stages * capacity + 1e-9) return false;
    return oracle_stages(t, interval, stages, capacity).has_value();
}

DpSplitResult oracle_dp_split(const tdg::Tdg& t, int stages, double capacity) {
    const std::vector<NodeId> order = oracle_order(t);
    const std::size_t n = order.size();
    DpSplitResult result;
    if (n == 0) return result;
    std::vector<std::size_t> pos(n);
    for (std::size_t i = 0; i < n; ++i) pos[order[i]] = i;
    std::vector<std::int64_t> cut(n + 1, 0);
    for (std::size_t b = 1; b < n; ++b) {
        for (const tdg::Edge& e : t.edges()) {
            if (pos[e.from] < b && pos[e.to] >= b) cut[b] += e.metadata_bytes;
        }
    }

    constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
    std::vector<std::int64_t> best(n + 1, kInf);
    std::vector<std::size_t> parent(n + 1, 0);
    best[0] = 0;
    for (std::size_t i = 1; i <= n; ++i) {
        std::vector<NodeId> interval;
        for (std::size_t j = i; j-- > 0;) {
            interval.insert(interval.begin(), order[j]);
            if (best[j] == kInf) continue;
            if (!oracle_fits(t, interval, stages, capacity)) {
                if (oracle_total(t, interval) > stages * capacity + 1e-9) break;
                continue;
            }
            const std::int64_t candidate = std::max(best[j], j == 0 ? 0 : cut[j]);
            if (candidate < best[i]) {
                best[i] = candidate;
                parent[i] = j;
            }
        }
    }
    if (best[n] == kInf) throw std::runtime_error("oracle_dp_split: infeasible");
    std::vector<std::size_t> boundaries;
    for (std::size_t i = n; i > 0; i = parent[i]) boundaries.push_back(parent[i]);
    std::reverse(boundaries.begin(), boundaries.end());
    boundaries.push_back(n);
    for (std::size_t k = 0; k + 1 < boundaries.size(); ++k) {
        result.segments.emplace_back(
            order.begin() + static_cast<std::ptrdiff_t>(boundaries[k]),
            order.begin() + static_cast<std::ptrdiff_t>(boundaries[k + 1]));
    }
    result.max_cut_bytes = best[n];
    return result;
}

struct RandomInstance {
    tdg::Tdg t;
    int stages = 1;
    double capacity = 1.0;
};

// A seeded random TDG with shuffled node ids and edge insertion order, and a
// switch geometry of 1-8 stages. Resources are sometimes whole fractions of
// a stage, so loads land exactly on the capacity; about one instance in ten
// carries a MAT larger than a stage.
RandomInstance random_instance(util::SplitMix64& rng) {
    RandomInstance r;
    r.stages = static_cast<int>(rng.uniform_int(1, 8));
    const std::vector<double> round_capacities{0.5, 1.0, 1.5, 4.0};
    r.capacity = rng.chance(0.5) ? rng.pick(round_capacities) : rng.uniform_real(0.2, 4.0);
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 30));
    const bool quantized = rng.chance(0.5);
    std::vector<double> resource(n);
    for (double& x : resource) {
        x = quantized ? r.capacity * static_cast<double>(rng.uniform_int(1, 4)) / 4.0
                      : rng.uniform_real(0.01, 1.0) * r.capacity;
    }
    if (rng.chance(0.1)) {
        resource[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))] =
            r.capacity * rng.uniform_real(1.001, 2.0);
    }
    std::vector<std::size_t> id_of_rank(n);
    std::iota(id_of_rank.begin(), id_of_rank.end(), std::size_t{0});
    rng.shuffle(id_of_rank);
    const double density = rng.uniform_real(0.0, 0.3);
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = a + 1; b < n; ++b) {
            if (rng.chance(density)) edges.emplace_back(id_of_rank[a], id_of_rank[b]);
        }
    }
    rng.shuffle(edges);
    for (std::size_t v = 0; v < n; ++v) r.t.add_node(mat("n" + std::to_string(v), resource[v]));
    for (const auto& [from, to] : edges) {
        r.t.add_edge(from, to, DepType::kMatch);
        r.t.edges().back().metadata_bytes = static_cast<int>(rng.uniform_int(0, 12));
    }
    return r;
}

TEST(DpSplit, MatchesRepackingOracleOnRandomTdgs) {
    util::SplitMix64 rng(0xD5);
    int compared = 0;
    int thrown = 0;
    for (int instance = 0; instance < 3000; ++instance) {
        const RandomInstance r = random_instance(rng);
        std::optional<DpSplitResult> want;
        try {
            want = oracle_dp_split(r.t, r.stages, r.capacity);
        } catch (const std::runtime_error&) {
        }
        if (!want) {
            EXPECT_THROW((void)dp_split(r.t, r.stages, r.capacity), std::runtime_error)
                << "instance " << instance;
            ++thrown;
            continue;
        }
        const DpSplitResult got = dp_split(r.t, r.stages, r.capacity);
        EXPECT_EQ(got.segments, want->segments) << "instance " << instance;
        EXPECT_EQ(got.max_cut_bytes, want->max_cut_bytes) << "instance " << instance;
        // assign_stages packs through the same rule: same stage per node.
        for (const std::vector<NodeId>& segment : want->segments) {
            EXPECT_EQ(assign_stages(r.t, segment, r.stages, r.capacity),
                      oracle_stages(r.t, segment, r.stages, r.capacity))
                << "instance " << instance;
        }
        ++compared;
    }
    EXPECT_GE(compared, 2000);
    EXPECT_GT(thrown, 0);
}

// ---- Tradeoff sweeps -----------------------------------------------------------

TEST(Tradeoff, SwitchBudgetSweepMonotoneFeasibility) {
    const tdg::Tdg t = core::analyze(prog::real_programs());
    sim::TestbedConfig config;
    config.switch_count = 6;
    config.stages = 4;
    const net::Network n = sim::make_testbed(config);
    const auto sweep = sweep_switch_budget(t, n, 1, 6);
    ASSERT_EQ(sweep.size(), 6u);
    // Feasibility is monotone in the budget.
    bool seen_feasible = false;
    for (const TradeoffPoint& p : sweep) {
        if (seen_feasible) {
            EXPECT_TRUE(p.feasible) << p.epsilon2;
        }
        seen_feasible = seen_feasible || p.feasible;
        if (p.feasible) {
            EXPECT_LE(p.metrics.occupied_switches, p.epsilon2);
        }
    }
    EXPECT_TRUE(seen_feasible);
}

TEST(Tradeoff, LatencyBudgetSweep) {
    const tdg::Tdg t = core::analyze(prog::real_programs());
    sim::TestbedConfig config;
    config.switch_count = 4;
    config.stages = 4;
    config.link_latency_us = 10.0;
    const net::Network n = sim::make_testbed(config);
    const auto sweep = sweep_latency_budget(t, n, 0.0, 200.0, 5);
    ASSERT_EQ(sweep.size(), 5u);
    EXPECT_FALSE(sweep.front().feasible);  // zero latency budget, multi-switch need
    EXPECT_TRUE(sweep.back().feasible);
}

TEST(Tradeoff, KneePointPicksTightestGoodBudget) {
    std::vector<TradeoffPoint> sweep(4);
    sweep[0].feasible = false;
    sweep[1].feasible = true;
    sweep[1].metrics.max_pair_metadata_bytes = 20;
    sweep[2].feasible = true;
    sweep[2].metrics.max_pair_metadata_bytes = 10;
    sweep[3].feasible = true;
    sweep[3].metrics.max_pair_metadata_bytes = 10;
    const auto knee = knee_point(sweep, 0.05);
    ASSERT_TRUE(knee.has_value());
    EXPECT_EQ(knee->metrics.max_pair_metadata_bytes, 10);
    EXPECT_FALSE(knee_point({}, 0.05).has_value());
}

TEST(Tradeoff, Validation) {
    const tdg::Tdg t = core::analyze({prog::make_program("nat")});
    const net::Network n = sim::make_testbed();
    EXPECT_THROW((void)sweep_switch_budget(t, n, 0, 3), std::invalid_argument);
    EXPECT_THROW((void)sweep_switch_budget(t, n, 3, 2), std::invalid_argument);
    EXPECT_THROW((void)sweep_latency_budget(t, n, 0, 10, 1), std::invalid_argument);
}

// ---- Incremental redeployment -----------------------------------------------------

// `base` with `additions` folded on after it, as the engine extends its
// merge when programs join a standing deployment. Base ids stay a prefix.
tdg::Tdg fold_onto(const tdg::Tdg& base, const std::vector<prog::Program>& additions) {
    tdg::UnionFold fold;
    fold.push(base);
    for (const prog::Program& p : additions) fold.push(p.to_tdg());
    return fold.graph();
}

TEST(Incremental, AddsProgramsWithoutMovingExisting) {
    const std::vector<prog::Program> base_programs = {prog::make_program("l2l3_routing"),
                                                      prog::make_program("acl_firewall")};
    const tdg::Tdg base = core::analyze(base_programs);
    sim::TestbedConfig config;
    config.switch_count = 4;
    config.stages = 4;
    const net::Network n = sim::make_testbed(config);
    const Deployment existing = try_deploy_greedy(base, n).value().deployment;

    const tdg::Tdg combined = fold_onto(base, {prog::make_program("countmin_sketch")});
    ASSERT_GT(combined.node_count(), base.node_count());
    const auto result = incremental_deploy(combined, base.node_count(), existing, n);
    ASSERT_TRUE(result.has_value());
    // Old placements untouched.
    for (NodeId v = 0; v < base.node_count(); ++v) {
        EXPECT_EQ(result->placements[v].sw, existing.placements[v].sw);
        EXPECT_EQ(result->placements[v].stage, existing.placements[v].stage);
    }
    const VerificationReport report = verify(combined, n, *result);
    EXPECT_TRUE(report.ok) << (report.violations.empty() ? ""
                                                         : report.violations.front());
}

TEST(Incremental, SequenceOfAdditionsStaysVerified) {
    tdg::UnionFold fold;
    fold.push(core::analyze({prog::make_program("nat")}));
    sim::TestbedConfig config;
    config.switch_count = 6;
    config.stages = 6;
    const net::Network n = sim::make_testbed(config);
    Deployment deployment = try_deploy_greedy(fold.graph(), n).value().deployment;

    for (const char* name : {"ecmp_lb", "bloom_filter", "qos_meter"}) {
        const std::size_t base_count = fold.graph().node_count();
        fold.push(prog::make_program(name).to_tdg());
        const auto result = incremental_deploy(fold.graph(), base_count, deployment, n);
        ASSERT_TRUE(result.has_value()) << name;
        deployment = *result;
        EXPECT_TRUE(verify(fold.graph(), n, deployment).ok) << name;
    }
}

TEST(Incremental, CapacityExhaustionReturnsNullopt) {
    const tdg::Tdg base = core::analyze({prog::make_program("nat")});
    sim::TestbedConfig config;
    config.switch_count = 1;
    config.stages = 3;
    const net::Network n = sim::make_testbed(config);
    const Deployment existing = try_deploy_greedy(base, n).value().deployment;
    // Ten more sketches cannot fit the remaining space of one switch.
    const tdg::Tdg combined = fold_onto(base, prog::sketch_programs());
    EXPECT_FALSE(incremental_deploy(combined, base.node_count(), existing, n).has_value());
}

TEST(Incremental, ShapeMismatchRejected) {
    const tdg::Tdg base = core::analyze({prog::make_program("nat")});
    const net::Network n = sim::make_testbed();
    Deployment wrong;
    EXPECT_THROW((void)incremental_deploy(base, base.node_count(), wrong, n),
                 std::invalid_argument);
}

TEST(Incremental, CheaperThanItLooks) {
    // The incremental result can cost more overhead than a full redeploy —
    // quantify that both paths verify and the full redeploy is never worse.
    const std::vector<prog::Program> base_programs = {prog::make_program("l2l3_routing"),
                                                      prog::make_program("ecmp_lb")};
    const tdg::Tdg base = core::analyze(base_programs);
    sim::TestbedConfig config;
    config.switch_count = 4;
    config.stages = 3;
    const net::Network n = sim::make_testbed(config);
    const Deployment existing = try_deploy_greedy(base, n).value().deployment;
    const tdg::Tdg combined = fold_onto(base, {prog::make_program("flow_stats")});
    const auto incremental = incremental_deploy(combined, base.node_count(), existing, n);
    ASSERT_TRUE(incremental.has_value());
    const Deployment full = try_deploy_greedy(combined, n).value().deployment;
    EXPECT_LE(max_pair_metadata(combined, full),
              max_pair_metadata(combined, *incremental) +
                  max_pair_metadata(base, existing) + 1);
}

// ---- incremental_deploy against the placement walk it replaced ---------------
//
// The oracle is the walk as first written: each new MAT rescans every edge
// for its placed predecessors, once for the first chain switch it may use
// and once more for every switch it tries.

std::optional<std::vector<Placement>> oracle_incremental_placements(
    const tdg::Tdg& combined, std::size_t base_count, const Deployment& existing,
    const net::Network& net) {
    for (const tdg::Edge& e : combined.edges()) {
        if (e.from >= base_count && e.to < base_count) return std::nullopt;
    }
    std::vector<net::SwitchId> chain;
    if (base_count > 0) {
        std::map<net::SwitchId, std::size_t> first_pos;
        const std::vector<NodeId> topo = combined.topological_order();
        std::vector<std::size_t> pos(combined.node_count());
        for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
        for (NodeId v = 0; v < base_count; ++v) {
            const net::SwitchId u = existing.placements[v].sw;
            const auto it = first_pos.find(u);
            if (it == first_pos.end() || pos[v] < it->second) first_pos[u] = pos[v];
        }
        for (const auto& [u, p] : first_pos) chain.push_back(u);
        std::sort(chain.begin(), chain.end(), [&](net::SwitchId a, net::SwitchId b) {
            return first_pos.at(a) < first_pos.at(b);
        });
    }
    for (const net::SwitchId u : net.programmable_switches()) {
        if (std::find(chain.begin(), chain.end(), u) == chain.end()) chain.push_back(u);
    }
    std::map<net::SwitchId, std::vector<double>> load;
    for (const net::SwitchId u : chain) {
        load[u].assign(static_cast<std::size_t>(net.props(u).stages), 0.0);
    }
    for (NodeId v = 0; v < base_count; ++v) {
        const Placement& p = existing.placements[v];
        load[p.sw][static_cast<std::size_t>(p.stage)] += combined.node(v).resource_units();
    }
    std::map<net::SwitchId, std::size_t> chain_index;
    for (std::size_t i = 0; i < chain.size(); ++i) chain_index[chain[i]] = i;

    std::vector<Placement> placements(combined.node_count());
    std::copy(existing.placements.begin(), existing.placements.end(), placements.begin());
    std::vector<bool> placed(combined.node_count(), false);
    for (NodeId v = 0; v < base_count; ++v) placed[v] = true;
    for (const NodeId v : combined.topological_order()) {
        if (v < base_count) continue;
        std::size_t first = 0;
        for (const tdg::Edge& e : combined.edges()) {
            if (e.to != v || !placed[e.from]) continue;
            first = std::max(first, chain_index.at(placements[e.from].sw));
        }
        const double need = combined.node(v).resource_units();
        bool done = false;
        for (std::size_t k = first; k < chain.size() && !done; ++k) {
            const net::SwitchId u = chain[k];
            int min_stage = 0;
            for (const tdg::Edge& e : combined.edges()) {
                if (e.to != v || !placed[e.from]) continue;
                if (placements[e.from].sw == u) {
                    min_stage = std::max(min_stage, placements[e.from].stage + 1);
                }
            }
            std::vector<double>& stages = load.at(u);
            for (std::size_t s = static_cast<std::size_t>(std::max(min_stage, 0));
                 s < stages.size() && !done; ++s) {
                if (stages[s] + need > net.props(u).stage_capacity + 1e-9) continue;
                stages[s] += need;
                placements[v] = Placement{u, static_cast<int>(s)};
                placed[v] = true;
                done = true;
            }
        }
        if (!done) return std::nullopt;
    }
    return placements;
}

TEST(Incremental, PlacementsMatchTheEdgeRescanningWalkOnRandomTdgs) {
    // Seeded TDGs whose old prefix sits at random switch/stage slots of a
    // 1-5 switch testbed with varied stage capacity. Resources are sometimes
    // whole fractions of a stage, so loads land exactly on the capacity;
    // some instances overflow or order a new MAT before an old one, and
    // both walks must then refuse.
    util::SplitMix64 rng(0x1AC);
    int placed = 0;
    int refused = 0;
    for (int instance = 0; instance < 400; ++instance) {
        sim::TestbedConfig config;
        config.switch_count = static_cast<std::size_t>(rng.uniform_int(1, 5));
        config.stages = static_cast<int>(rng.uniform_int(1, 8));
        const std::vector<double> round_capacities{0.5, 1.0, 1.5, 4.0};
        config.stage_capacity =
            rng.chance(0.5) ? rng.pick(round_capacities) : rng.uniform_real(0.2, 4.0);
        const net::Network n = sim::make_testbed(config);

        const auto count = static_cast<std::size_t>(rng.uniform_int(1, 30));
        const auto base_count =
            static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(count)));
        const bool quantized = rng.chance(0.5);
        const bool backward = rng.chance(0.1);
        tdg::Tdg t;
        for (std::size_t v = 0; v < count; ++v) {
            const double fraction = quantized
                                        ? static_cast<double>(rng.uniform_int(1, 4)) / 4.0
                                        : rng.uniform_real(0.01, 1.0);
            t.add_node(mat("n" + std::to_string(v), fraction * config.stage_capacity));
        }
        std::vector<NodeId> id_of_rank(count);
        std::iota(id_of_rank.begin(), id_of_rank.end(), NodeId{0});
        rng.shuffle(id_of_rank);
        const double density = rng.uniform_real(0.0, 0.3);
        for (std::size_t a = 0; a < count; ++a) {
            for (std::size_t b = a + 1; b < count; ++b) {
                const NodeId from = id_of_rank[a];
                const NodeId to = id_of_rank[b];
                if (from >= base_count && to < base_count && !backward) continue;
                if (rng.chance(density)) t.add_edge(from, to, DepType::kMatch);
            }
        }
        Deployment existing;
        for (std::size_t v = 0; v < base_count; ++v) {
            existing.placements.push_back(Placement{
                static_cast<net::SwitchId>(
                    rng.uniform_int(0, static_cast<std::int64_t>(config.switch_count) - 1)),
                static_cast<int>(rng.uniform_int(0, config.stages - 1))});
        }

        const auto want = oracle_incremental_placements(t, base_count, existing, n);
        const auto got = incremental_deploy(t, base_count, existing, n);
        ASSERT_EQ(got.has_value(), want.has_value()) << "instance " << instance;
        if (!want.has_value()) {
            ++refused;
            continue;
        }
        ++placed;
        ASSERT_EQ(got->placements.size(), want->size());
        for (std::size_t v = 0; v < want->size(); ++v) {
            EXPECT_EQ(got->placements[v].sw, (*want)[v].sw)
                << "instance " << instance << " node " << v;
            EXPECT_EQ(got->placements[v].stage, (*want)[v].stage)
                << "instance " << instance << " node " << v;
        }
    }
    EXPECT_GT(placed, 100);
    EXPECT_GT(refused, 20);
}

}  // namespace
}  // namespace hermes::core
