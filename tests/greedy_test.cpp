// Algorithm 2 tests, including the paper's Figure 4 worked example.
#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/hermes.h"
#include "core/objective.h"
#include "core/verifier.h"
#include "net/builders.h"
#include "obs/obs.h"
#include "prog/synthetic.h"
#include "sim/testbed.h"

namespace hermes::core {
namespace {

using tdg::DepType;
using tdg::NodeId;

tdg::Mat mat(const std::string& name, double resource) {
    return tdg::Mat(name, {tdg::header_field("h_" + name, 2)},
                    {tdg::Action{"act", {tdg::metadata_field("m_" + name, 4)}}}, 16,
                    resource);
}

// The Figure 4 TDG: five MATs a..e; metadata sizes chosen to reproduce the
// narrative exactly: first cut {a,b,c}|{d,e} carries the minimum 3 bytes,
// second cut {a}|{b,c} carries the minimum 4 bytes, final max overhead 4.
tdg::Tdg fig4_tdg() {
    tdg::Tdg t;
    for (const char* n : {"a", "b", "c", "d", "e"}) t.add_node(mat(n, 1.0));
    auto edge = [&](NodeId f, NodeId to, int bytes) {
        t.add_edge(f, to, DepType::kMatch);
        t.edges().back().metadata_bytes = bytes;
    };
    edge(0, 1, 2);  // a -> b
    edge(0, 2, 2);  // a -> c
    edge(1, 2, 5);  // b -> c
    edge(2, 3, 1);  // c -> d
    edge(2, 4, 2);  // c -> e
    edge(3, 4, 2);  // d -> e
    return t;
}

// Three switches, each tolerating exactly two of the unit-resource MATs
// (2 stages x capacity 1.0).
net::Network fig4_network() {
    sim::TestbedConfig config;
    config.switch_count = 3;
    config.stages = 2;
    config.stage_capacity = 1.0;
    return sim::make_testbed(config);
}

TEST(SplitTdg, WholeTdgFitsNoSplit) {
    const tdg::Tdg t = fig4_tdg();
    const auto segments = split_tdg(t, {0, 1, 2, 3, 4}, 12, 1.0);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].size(), 5u);
}

TEST(SplitTdg, Figure4Splits) {
    const tdg::Tdg t = fig4_tdg();
    const auto segments = split_tdg(t, {0, 1, 2, 3, 4}, 2, 1.0);
    // The narrative: {a,b,c}|{d,e} first (3 bytes), then {a}|{b,c} (4 bytes).
    ASSERT_EQ(segments.size(), 3u);
    EXPECT_EQ(segments[0], (std::vector<NodeId>{0}));
    EXPECT_EQ(segments[1], (std::vector<NodeId>{1, 2}));
    EXPECT_EQ(segments[2], (std::vector<NodeId>{3, 4}));
}

TEST(SplitTdg, OversizedMatThrows) {
    tdg::Tdg t;
    t.add_node(mat("huge", 3.0));
    EXPECT_THROW((void)split_tdg(t, {0}, 2, 1.0), std::runtime_error);
}

TEST(SplitTdg, EmptyInputYieldsNothing) {
    const tdg::Tdg t = fig4_tdg();
    EXPECT_TRUE(split_tdg(t, {}, 2, 1.0).empty());
}

TEST(SplitTdgFirstFit, FillsGreedily) {
    const tdg::Tdg t = fig4_tdg();
    const auto segments = split_tdg_first_fit(t, {0, 1, 2, 3, 4}, 2, 1.0);
    ASSERT_EQ(segments.size(), 3u);
    EXPECT_EQ(segments[0], (std::vector<NodeId>{0, 1}));  // resource-driven cut
    EXPECT_EQ(segments[1], (std::vector<NodeId>{2, 3}));
    EXPECT_EQ(segments[2], (std::vector<NodeId>{4}));
}

TEST(SplitTdgFirstFit, MetadataObliviousCutsCostMore) {
    // The whole point of Hermes: the first-fit cut carries more bytes.
    const tdg::Tdg t = fig4_tdg();
    const net::Network n = fig4_network();
    const GreedyOptions options;
    const auto min_cut = deploy_segments_on_chain(
        t, n, split_tdg(t, {0, 1, 2, 3, 4}, 2, 1.0), options);
    const auto first_fit = deploy_segments_on_chain(
        t, n, split_tdg_first_fit(t, {0, 1, 2, 3, 4}, 2, 1.0), options);
    EXPECT_LT(max_pair_metadata(t, min_cut.deployment),
              max_pair_metadata(t, first_fit.deployment));
}

TEST(Greedy, Figure4EndToEnd) {
    const tdg::Tdg t = fig4_tdg();
    const net::Network n = fig4_network();
    const GreedyResult result = greedy_deploy(t, n);
    EXPECT_EQ(result.segments.size(), 3u);
    // "As a result, the maximum per-packet byte overhead equals 4 bytes."
    EXPECT_EQ(max_pair_metadata(t, result.deployment), 4);
    const VerificationReport report = verify(t, n, result.deployment);
    EXPECT_TRUE(report.ok) << (report.violations.empty() ? ""
                                                         : report.violations.front());
}

TEST(Greedy, SingleSwitchWhenEverythingFits) {
    const tdg::Tdg t = fig4_tdg();
    sim::TestbedConfig config;
    config.switch_count = 3;
    config.stages = 12;
    const net::Network n = sim::make_testbed(config);
    const GreedyResult result = greedy_deploy(t, n);
    EXPECT_EQ(result.segments.size(), 1u);
    EXPECT_EQ(max_pair_metadata(t, result.deployment), 0);
    EXPECT_EQ(result.deployment.occupied_switches().size(), 1u);
}

TEST(Greedy, MatWithinTheStageToleranceIsPlaced) {
    // One MAT 5e-10 past a stage: inside the 1e-9 tolerance the verifier
    // allows, so every packer must take it too.
    sim::TestbedConfig config;
    config.switch_count = 1;
    tdg::Tdg t;
    t.add_node(mat("snug", config.stage_capacity + 5e-10));
    EXPECT_EQ(assign_stages(t, {0}, config.stages, config.stage_capacity),
              (std::vector<int>{0}));
    const net::Network n = sim::make_testbed(config);
    const GreedyResult result = greedy_deploy(t, n);
    EXPECT_EQ(result.deployment.placements[0].stage, 0);
    const VerificationReport report = verify(t, n, result.deployment);
    EXPECT_TRUE(report.ok) << (report.violations.empty() ? ""
                                                         : report.violations.front());
}

TEST(Greedy, ThrowsWhenNotEnoughSwitches) {
    const tdg::Tdg t = fig4_tdg();
    sim::TestbedConfig config;
    config.switch_count = 2;  // needs 3
    config.stages = 2;
    const net::Network n = sim::make_testbed(config);
    EXPECT_THROW((void)greedy_deploy(t, n), std::runtime_error);
}

TEST(Greedy, Epsilon2LimitsChainLength) {
    const tdg::Tdg t = fig4_tdg();
    const net::Network n = fig4_network();
    GreedyOptions options;
    options.epsilon2 = 2;  // three segments never fit two switches
    EXPECT_THROW((void)greedy_deploy(t, n, options), std::runtime_error);
}

TEST(Greedy, Epsilon1LimitsChainLatency) {
    const tdg::Tdg t = fig4_tdg();
    const net::Network n = fig4_network();
    GreedyOptions options;
    options.epsilon1 = 1.0;  // each hop costs ~7us
    EXPECT_THROW((void)greedy_deploy(t, n, options), std::runtime_error);
}

TEST(Greedy, RoutesConnectConsecutiveSegments) {
    const tdg::Tdg t = fig4_tdg();
    const net::Network n = fig4_network();
    const GreedyResult result = greedy_deploy(t, n);
    EXPECT_EQ(result.deployment.routes.size(), 2u);
    for (const auto& [pair, path] : result.deployment.routes) {
        EXPECT_EQ(path.switches.front(), pair.first);
        EXPECT_EQ(path.switches.back(), pair.second);
    }
}

TEST(Greedy, SkipsNonProgrammableSwitches) {
    const tdg::Tdg t = fig4_tdg();
    net::Network n = fig4_network();
    // Add non-programmable middle switches; greedy must still work through
    // the programmable chain.
    net::SwitchProps legacy;
    legacy.programmable = false;
    const net::SwitchId extra = n.add_switch(legacy);
    n.add_link(extra, 0, 2.0);
    const GreedyResult result = greedy_deploy(t, n);
    for (const Placement& p : result.deployment.placements) {
        EXPECT_TRUE(n.props(p.sw).programmable);
    }
}

TEST(SelectSwitches, OrdersByProximityAndHonorsBounds) {
    net::TopologyConfig c;
    c.min_link_latency_us = 2.0;
    c.max_link_latency_us = 2.0;
    util::SplitMix64 rng(5);
    const net::Network n = net::linear_topology(5, c, rng);  // all programmable
    GreedyOptions options;
    const auto chain = select_switches(n, 0, options);
    EXPECT_EQ(chain, (std::vector<net::SwitchId>{0, 1, 2, 3, 4}));

    options.epsilon2 = 3;
    EXPECT_EQ(select_switches(n, 0, options).size(), 3u);

    options.epsilon2 = std::numeric_limits<std::int64_t>::max();
    options.epsilon1 = 10.0;  // each extra hop costs 4us (1+2+1)
    const auto bounded = select_switches(n, 0, options);
    EXPECT_LT(bounded.size(), 5u);
    EXPECT_THROW((void)select_switches(n, 99, options), std::invalid_argument);
}

TEST(Greedy, DpRefinementIsTracedAndCounted) {
    // Every greedy_deploy on at most 250 MATs runs the DP refinement once
    // under a greedy.dp_split span; its segmentation is kept at most once.
    obs::Sink sink;
    GreedyOptions options;
    options.sink = &sink;
    (void)greedy_deploy(fig4_tdg(), fig4_network(), options);
    sim::TestbedConfig config;
    config.switch_count = 8;
    config.stages = 8;
    const net::Network wan = sim::make_testbed(config);
    for (const std::uint64_t seed : {3u, 7u, 11u}) {
        const tdg::Tdg t = analyze({prog::synthetic_program({}, seed, 0),
                                    prog::synthetic_program({}, seed, 1)});
        ASSERT_LE(t.node_count(), 250u);
        (void)greedy_deploy(t, wan, options);
    }
    EXPECT_EQ(sink.counter("greedy.dp_refinements").value(), 4);
    EXPECT_LE(sink.counter("greedy.dp_wins").value(),
              sink.counter("greedy.dp_refinements").value());
    std::size_t dp_spans = 0;
    for (const obs::TraceEvent& e : sink.events()) {
        if (std::string(e.name) == "greedy.dp_split") ++dp_spans;
    }
    EXPECT_EQ(dp_spans, 4u);

    // Above 250 MATs the refinement does not run, and the counters say so.
    obs::Sink large_sink;
    options.sink = &large_sink;
    tdg::Tdg large;
    for (int i = 0; i < 260; ++i) large.add_node(mat("x" + std::to_string(i), 0.001));
    (void)greedy_deploy(large, fig4_network(), options);
    EXPECT_EQ(large_sink.counter("greedy.dp_refinements").value(), 0);
    EXPECT_EQ(large_sink.counter("greedy.dp_wins").value(), 0);
}

TEST(Greedy, DeterministicAcrossRuns) {
    const tdg::Tdg t = fig4_tdg();
    const net::Network n = fig4_network();
    const GreedyResult a = greedy_deploy(t, n);
    const GreedyResult b = greedy_deploy(t, n);
    ASSERT_EQ(a.deployment.placements.size(), b.deployment.placements.size());
    for (std::size_t i = 0; i < a.deployment.placements.size(); ++i) {
        EXPECT_EQ(a.deployment.placements[i].sw, b.deployment.placements[i].sw);
        EXPECT_EQ(a.deployment.placements[i].stage, b.deployment.placements[i].stage);
    }
}

}  // namespace
}  // namespace hermes::core
