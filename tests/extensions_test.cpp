// Tests for the extension modules: exact DP chain segmentation, the
// ε-tradeoff explorer, and incremental redeployment.
#include <gtest/gtest.h>

#include <numeric>

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

TEST(Incremental, AddsProgramsWithoutMovingExisting) {
    const std::vector<prog::Program> base_programs = {prog::make_program("l2l3_routing"),
                                                      prog::make_program("acl_firewall")};
    const tdg::Tdg base = core::analyze(base_programs);
    sim::TestbedConfig config;
    config.switch_count = 4;
    config.stages = 4;
    const net::Network n = sim::make_testbed(config);
    const Deployment existing = try_deploy_greedy(base, n).value().deployment;

    const tdg::Tdg combined =
        extend_programs(base, {prog::make_program("countmin_sketch")});
    ASSERT_GT(combined.node_count(), base.node_count());
    const auto result = incremental_deploy(combined, base.node_count(), existing, n);
    ASSERT_TRUE(result.has_value());
    // Old placements untouched.
    for (NodeId v = 0; v < base.node_count(); ++v) {
        EXPECT_EQ(result->deployment.placements[v].sw, existing.placements[v].sw);
        EXPECT_EQ(result->deployment.placements[v].stage, existing.placements[v].stage);
    }
    const VerificationReport report = verify(combined, n, result->deployment);
    EXPECT_TRUE(report.ok) << (report.violations.empty() ? ""
                                                         : report.violations.front());
    EXPECT_GE(result->added_overhead_bytes, 0);
}

TEST(Incremental, SequenceOfAdditionsStaysVerified) {
    tdg::Tdg current = core::analyze({prog::make_program("nat")});
    sim::TestbedConfig config;
    config.switch_count = 6;
    config.stages = 6;
    const net::Network n = sim::make_testbed(config);
    Deployment deployment = try_deploy_greedy(current, n).value().deployment;

    for (const char* name : {"ecmp_lb", "bloom_filter", "qos_meter"}) {
        const std::size_t base_count = current.node_count();
        const tdg::Tdg combined = extend_programs(current, {prog::make_program(name)});
        const auto result = incremental_deploy(combined, base_count, deployment, n);
        ASSERT_TRUE(result.has_value()) << name;
        deployment = result->deployment;
        current = combined;
        EXPECT_TRUE(verify(current, n, deployment).ok) << name;
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
    const tdg::Tdg combined = extend_programs(base, prog::sketch_programs());
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
    const tdg::Tdg combined = extend_programs(base, {prog::make_program("flow_stats")});
    const auto incremental = incremental_deploy(combined, base.node_count(), existing, n);
    ASSERT_TRUE(incremental.has_value());
    const Deployment full = try_deploy_greedy(combined, n).value().deployment;
    EXPECT_LE(max_pair_metadata(combined, full),
              max_pair_metadata(combined, incremental->deployment) +
                  max_pair_metadata(base, existing) + 1);
}

}  // namespace
}  // namespace hermes::core
