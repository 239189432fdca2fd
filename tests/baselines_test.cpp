// Comparison-framework tests: every strategy must produce a verified
// deployment; their characteristic behaviours (packing shapes, objectives,
// metadata-obliviousness) are asserted against Hermes.
#include <gtest/gtest.h>

#include "baselines/common.h"
#include "baselines/network_wide.h"
#include "baselines/single_switch.h"
#include "core/hermes.h"
#include "core/objective.h"
#include "core/verifier.h"
#include "prog/library.h"
#include "prog/synthetic.h"
#include "sim/testbed.h"

namespace hermes::baselines {
namespace {

std::vector<prog::Program> workload(int count) { return prog::paper_workload(count, 7); }

BaselineOptions quick_options() {
    BaselineOptions o;
    o.milp.time_limit_seconds = 5.0;
    o.candidate_limit = 4;
    return o;
}

net::Network pressured_testbed() {
    sim::TestbedConfig config;
    config.switch_count = 3;
    config.stages = 6;
    return sim::make_testbed(config);
}

TEST(Baselines, RegistryHasPaperOrder) {
    const auto strategies = all_strategies();
    ASSERT_EQ(strategies.size(), 8u);
    const std::vector<std::string> expected{"MS", "Sonata", "SPEED", "MTP",
                                            "FP", "P4All",  "FFL",   "FFLS"};
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(strategies[i]->name(), expected[i]);
    }
}

TEST(Baselines, EveryStrategyProducesVerifiedDeployment) {
    const auto programs = workload(6);
    const net::Network n = pressured_testbed();
    for (const auto& strategy : all_strategies()) {
        const StrategyOutcome outcome = strategy->deploy(programs, n, quick_options());
        EXPECT_EQ(outcome.deployment.placements.size(), outcome.merged.node_count())
            << strategy->name();
        const core::VerificationReport report =
            core::verify(outcome.merged, n, outcome.deployment);
        EXPECT_TRUE(report.ok)
            << strategy->name() << ": "
            << (report.violations.empty() ? "" : report.violations.front());
        EXPECT_GE(outcome.solve_seconds, 0.0);
        EXPECT_FALSE(outcome.status.empty());
    }
}

TEST(Baselines, UnionKeepsProgramsSeparate) {
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    const auto programs = workload(4);
    const tdg::Tdg u = union_programs(programs, ranges);
    ASSERT_EQ(ranges.size(), 4u);
    std::size_t total = 0;
    for (const prog::Program& p : programs) total += p.mat_count();
    EXPECT_EQ(u.node_count(), total);  // no dedup in the union
    // Cross-program edges exist only to order shared-field conflicts: both
    // endpoints must touch a common field.
    for (const tdg::Edge& e : u.edges()) {
        bool same_program = false;
        for (const auto& [b, eend] : ranges) {
            if (e.from >= b && e.from < eend) same_program = e.to >= b && e.to < eend;
        }
        if (same_program) continue;
        bool shares_field = false;
        auto touches = [&](const tdg::Mat& m, const std::string& name) {
            return m.matches_field(name) || m.modifies_field(name);
        };
        for (const tdg::Field& f : u.node(e.from).modified_fields()) {
            shares_field = shares_field || touches(u.node(e.to), f.name);
        }
        for (const tdg::Field& f : u.node(e.from).match_fields()) {
            shares_field = shares_field || u.node(e.to).modifies_field(f.name);
        }
        EXPECT_TRUE(shares_field)
            << u.node(e.from).name() << " -> " << u.node(e.to).name();
    }
}

TEST(Baselines, MilpPackMinimizesMakespan) {
    // Three independent 0.5 MATs in stages of capacity 1.0: two stages max,
    // exact packing should use stage 0 twice and stage 1 once -> makespan 1.
    tdg::Tdg t;
    for (int i = 0; i < 3; ++i) {
        t.add_node(tdg::Mat("m" + std::to_string(i),
                            {tdg::header_field("h" + std::to_string(i), 2)},
                            {tdg::Action{"a", {}}}, 4, 0.5));
    }
    milp::MilpOptions options;
    options.time_limit_seconds = 10.0;
    const auto stages = milp_pack(t, {0, 1, 2}, {1.0, 1.0, 1.0}, options);
    ASSERT_TRUE(stages.has_value());
    int makespan = 0;
    for (const int s : *stages) makespan = std::max(makespan, s);
    EXPECT_EQ(makespan, 1);
}

TEST(Baselines, MilpPackRespectsDependencies) {
    tdg::Tdg t;
    t.add_node(tdg::Mat("a", {tdg::header_field("h", 2)},
                        {tdg::Action{"w", {tdg::metadata_field("m", 4)}}}, 4, 0.2));
    t.add_node(tdg::Mat("b", {tdg::metadata_field("m", 4)}, {tdg::Action{"r", {}}}, 4,
                        0.2));
    t.add_edge(0, 1, tdg::DepType::kMatch);
    milp::MilpOptions options;
    const auto stages = milp_pack(t, {0, 1}, {1.0, 1.0, 1.0}, options);
    ASSERT_TRUE(stages.has_value());
    EXPECT_LT((*stages)[0], (*stages)[1]);
}

TEST(Baselines, MilpPackInfeasibleReturnsNullopt) {
    tdg::Tdg t;
    t.add_node(tdg::Mat("a", {tdg::header_field("h", 2)}, {tdg::Action{"w", {}}}, 4, 0.9));
    const auto stages = milp_pack(t, {0}, {0.5}, milp::MilpOptions{});
    EXPECT_FALSE(stages.has_value());
}

TEST(Baselines, HermesBeatsBaselinesOnOverhead) {
    // The headline claim: Hermes' greedy overhead is <= every baseline's
    // on a resource-pressured testbed. Shared-field conflict chains deepen
    // the union pipeline, so the testbed needs more stages than switches.
    const auto programs = workload(8);
    sim::TestbedConfig tb;
    tb.switch_count = 4;
    tb.stages = 10;
    const net::Network n = sim::make_testbed(tb);
    const tdg::Tdg merged = core::analyze(programs);
    const core::DeployOutcome hermes_outcome = core::try_deploy_greedy(merged, n).value();
    const std::int64_t hermes_overhead =
        hermes_outcome.metrics.max_pair_metadata_bytes;
    for (const auto& strategy : all_strategies()) {
        const StrategyOutcome outcome = strategy->deploy(programs, n, quick_options());
        const std::int64_t overhead =
            core::max_pair_metadata(outcome.merged, outcome.deployment);
        EXPECT_LE(hermes_overhead, overhead) << strategy->name();
    }
}

TEST(Baselines, FflAndFflsDifferOnHeterogeneousSizes) {
    // FFLS sorts by size inside levels: with heterogeneous resources the two
    // heuristics produce different placements (usually different overhead).
    const auto programs = workload(8);
    const net::Network n = pressured_testbed();
    FirstFitByLevelStrategy ffl("FFL", LevelOrder::kById);
    FirstFitByLevelStrategy ffls("FFLS", LevelOrder::kBySizeDescending);
    const auto a = ffl.deploy(programs, n, quick_options());
    const auto b = ffls.deploy(programs, n, quick_options());
    bool any_difference = false;
    for (std::size_t i = 0; i < a.deployment.placements.size(); ++i) {
        any_difference = any_difference ||
                         a.deployment.placements[i].sw != b.deployment.placements[i].sw ||
                         a.deployment.placements[i].stage != b.deployment.placements[i].stage;
    }
    EXPECT_TRUE(any_difference);
}

TEST(Baselines, SingleSwitchKeepsWholeProgramsTogetherWhenRoomy) {
    // With ample capacity, MS puts every program wholly on the first switch:
    // zero inter-switch overhead.
    const auto programs = workload(2);
    sim::TestbedConfig config;
    config.stages = 12;
    const net::Network n = sim::make_testbed(config);
    SingleSwitchStrategy ms("MS", SwitchPick::kFirstFit);
    const StrategyOutcome outcome = ms.deploy(programs, n, quick_options());
    EXPECT_EQ(core::max_pair_metadata(outcome.merged, outcome.deployment), 0);
    EXPECT_EQ(outcome.deployment.occupied_switches().size(), 1u);
}

TEST(Baselines, HeuristicModeSkipsIlp) {
    const auto programs = workload(3);
    const net::Network n = pressured_testbed();
    BaselineOptions options = quick_options();
    options.use_ilp = false;
    SingleSwitchStrategy ms("MS", SwitchPick::kFirstFit);
    const StrategyOutcome outcome = ms.deploy(programs, n, options);
    EXPECT_EQ(outcome.status, "heuristic");
}

TEST(Baselines, NetworkWideHeuristicRespectsEpsilon2) {
    // In heuristic mode the warm-start chain is a network-wide strategy's
    // whole deployment, so it must honour the occupancy bound: at most
    // epsilon2 switches, or a reported failure.
    const auto programs = workload(6);
    sim::TestbedConfig config;
    config.switch_count = 6;
    const net::Network n = sim::make_testbed(config);
    const auto occupied = [](const StrategyOutcome& o) {
        return static_cast<std::int64_t>(o.deployment.occupied_switches().size());
    };
    for (const auto& strategy : all_strategies()) {
        if (dynamic_cast<NetworkWideStrategy*>(strategy.get()) == nullptr) continue;
        BaselineOptions options = quick_options();
        options.use_ilp = false;
        const std::int64_t used = occupied(strategy->deploy(programs, n, options));
        ASSERT_GT(used, 1) << strategy->name();  // so a bound of used - 1 binds
        options.epsilon2 = used;
        EXPECT_LE(occupied(strategy->deploy(programs, n, options)), used)
            << strategy->name();
        options.epsilon2 = used - 1;
        try {
            EXPECT_LE(occupied(strategy->deploy(programs, n, options)), used - 1)
                << strategy->name();
        } catch (const std::runtime_error&) {
            // Reported failure: no chain fits within epsilon2 switches.
        }
    }
}

TEST(Baselines, AddCrossingRoutesCoversAllPairs) {
    const auto programs = workload(6);
    const net::Network n = pressured_testbed();
    FirstFitByLevelStrategy ffl("FFL", LevelOrder::kById);
    const StrategyOutcome outcome = ffl.deploy(programs, n, quick_options());
    for (const tdg::Edge& e : outcome.merged.edges()) {
        const net::SwitchId u = outcome.deployment.switch_of(e.from);
        const net::SwitchId v = outcome.deployment.switch_of(e.to);
        if (u != v) {
            EXPECT_TRUE(outcome.deployment.routes.count({u, v})) << u << "->" << v;
        }
    }
}

}  // namespace
}  // namespace hermes::baselines
