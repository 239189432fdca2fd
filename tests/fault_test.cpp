// Fault injection + self-healing repair: Network fail/recover semantics,
// PathOracle epoch-based selective invalidation, fault scripts, the
// Injector, the re-solve ladder after faults (core::redeploy), its
// deadline-bounded degradation, and the failure-window traffic replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/deadline.h"
#include "core/hermes.h"
#include "core/objective.h"
#include "core/repair.h"
#include "core/verifier.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "net/path_oracle.h"
#include "net/topozoo.h"
#include "obs/obs.h"
#include "prog/synthetic.h"
#include "sim/replay.h"
#include "sim/testbed.h"

namespace hermes {
namespace {

net::Network diamond() {
    // 0 - 1 - 3 plus the detour 0 - 2 - 3 (heavier), all programmable.
    net::Network n;
    for (int i = 0; i < 4; ++i) {
        net::SwitchProps p;
        p.programmable = true;
        p.latency_us = 1.0;
        n.add_switch(p);
    }
    n.add_link(0, 1, 1.0);
    n.add_link(1, 3, 1.0);
    n.add_link(0, 2, 5.0);
    n.add_link(2, 3, 5.0);
    return n;
}

// ---- Deadline ------------------------------------------------------------

TEST(Deadline, DefaultIsInactive) {
    const core::Deadline d;
    EXPECT_FALSE(d.active());
    EXPECT_FALSE(d.expired());
    EXPECT_TRUE(std::isinf(d.remaining_seconds()));
    d.cancel();  // no-op
    EXPECT_FALSE(d.expired());
}

TEST(Deadline, AfterZeroIsAlreadyExpired) {
    const core::Deadline d = core::Deadline::after(0.0);
    EXPECT_TRUE(d.active());
    EXPECT_TRUE(d.expired());
    EXPECT_DOUBLE_EQ(d.remaining_seconds(), 0.0);
}

TEST(Deadline, CancellableCopiesShareTheFlag) {
    const core::Deadline d = core::Deadline::cancellable();
    const core::Deadline copy = d;
    EXPECT_TRUE(d.active());
    EXPECT_FALSE(copy.expired());
    d.cancel();
    EXPECT_TRUE(copy.expired());
    EXPECT_DOUBLE_EQ(copy.remaining_seconds(), 0.0);
}

TEST(Deadline, AfterPollsTripsOnTheNthPollAcrossCopies) {
    const core::Deadline d = core::Deadline::after_polls(3);
    const core::Deadline copy = d;
    EXPECT_TRUE(d.active());
    EXPECT_FALSE(d.expired());
    EXPECT_FALSE(copy.expired());
    EXPECT_TRUE(std::isinf(d.remaining_seconds()));
    EXPECT_TRUE(d.expired());  // the third poll, made through either copy
    EXPECT_TRUE(copy.expired());
    EXPECT_DOUBLE_EQ(copy.remaining_seconds(), 0.0);

    const core::Deadline cancelled = core::Deadline::after_polls(100);
    cancelled.cancel();
    EXPECT_TRUE(cancelled.expired());
}

// ---- Network fault surface ----------------------------------------------

TEST(NetworkFaults, FailLinkDropsItFromLiveAdjacency) {
    net::Network n = diamond();
    const std::uint64_t before = n.epoch();
    ASSERT_TRUE(n.fail_link(0, 1));
    EXPECT_GT(n.epoch(), before);
    EXPECT_FALSE(n.link_up(0, 1));
    EXPECT_FALSE(n.link_latency(0, 1).has_value());
    EXPECT_EQ(n.live_link_count(), 3u);
    EXPECT_EQ(n.links().size(), 4u);  // failed links keep their record
    // Failing again is a no-op and does not bump the epoch.
    const std::uint64_t after = n.epoch();
    EXPECT_FALSE(n.fail_link(0, 1));
    EXPECT_EQ(n.epoch(), after);
    ASSERT_TRUE(n.recover_link(1, 0));  // either endpoint order works
    EXPECT_TRUE(n.link_up(0, 1));
    EXPECT_EQ(n.live_link_count(), 4u);
}

TEST(NetworkFaults, FailSwitchDetachesIncidentLinksAndRecoversExactly) {
    net::Network n = diamond();
    ASSERT_TRUE(n.fail_switch(1));
    EXPECT_FALSE(n.switch_up(1));
    EXPECT_FALSE(n.link_up(0, 1));
    EXPECT_FALSE(n.link_up(1, 3));
    EXPECT_TRUE(n.link_up(0, 2));
    EXPECT_EQ(n.live_link_count(), 2u);
    // The incident links' own flags were not touched: recovery restores the
    // exact pre-failure state.
    ASSERT_TRUE(n.recover_switch(1));
    EXPECT_TRUE(n.link_up(0, 1));
    EXPECT_TRUE(n.link_up(1, 3));
    EXPECT_EQ(n.live_link_count(), 4u);
}

TEST(NetworkFaults, LinkFailedWhileSwitchDownStaysDownAfterSwitchRecovery) {
    net::Network n = diamond();
    ASSERT_TRUE(n.fail_switch(1));
    ASSERT_TRUE(n.fail_link(0, 1));  // its own flag flips while detached
    ASSERT_TRUE(n.recover_switch(1));
    EXPECT_FALSE(n.link_up(0, 1));  // still failed in its own right
    EXPECT_TRUE(n.link_up(1, 3));
    ASSERT_TRUE(n.recover_link(0, 1));
    EXPECT_TRUE(n.link_up(0, 1));
}

TEST(NetworkFaults, ProgrammableSwitchesAndCapacityExcludeDown) {
    net::Network n = diamond();
    const double full = n.total_programmable_capacity();
    ASSERT_TRUE(n.fail_switch(2));
    EXPECT_EQ(n.programmable_switches(), (std::vector<net::SwitchId>{0, 1, 3}));
    EXPECT_LT(n.total_programmable_capacity(), full);
    EXPECT_TRUE(n.is_connected());  // 0-1-3 still connected without 2
}

// ---- PathOracle selective invalidation -----------------------------------

TEST(PathOracleFaults, LinkDownEvictsOnlyAffectedTrees) {
    net::Network n = diamond();
    net::PathOracle oracle(n);
    // Warm all four trees.
    for (net::SwitchId s = 0; s < 4; ++s) (void)oracle.latencies(s);
    ASSERT_EQ(oracle.stats().tree_misses, 4u);

    ASSERT_TRUE(n.fail_link(0, 1));
    oracle.on_link_down(0, 1);
    // Every tree used (0,1) as a tree edge except none avoids it in this
    // graph? The detour is heavier, so all sources route the 0-1 side;
    // at minimum the eviction count is positive and below "everything".
    const auto stats = oracle.stats();
    EXPECT_GT(stats.tree_evictions, 0u);

    // Queries now match a cold oracle on the degraded topology.
    net::PathOracle fresh(n);
    for (net::SwitchId s = 0; s < 4; ++s) {
        for (net::SwitchId d = 0; d < 4; ++d) {
            EXPECT_DOUBLE_EQ(oracle.path_latency(s, d), fresh.path_latency(s, d))
                << s << "->" << d;
        }
    }
}

TEST(PathOracleFaults, UnrelatedTreesSurviveLinkFailure) {
    // Line 0-1-2 plus isolated pair 3-4: failing (3,4) must not evict the
    // 0/1/2 trees.
    net::Network n;
    for (int i = 0; i < 5; ++i) {
        net::SwitchProps p;
        p.programmable = true;
        n.add_switch(p);
    }
    n.add_link(0, 1, 1.0);
    n.add_link(1, 2, 1.0);
    n.add_link(3, 4, 1.0);
    net::PathOracle oracle(n);
    for (net::SwitchId s = 0; s < 3; ++s) (void)oracle.latencies(s);

    ASSERT_TRUE(n.fail_link(3, 4));
    oracle.on_link_down(3, 4);
    EXPECT_EQ(oracle.stats().tree_evictions, 0u);
    const auto before = oracle.stats();
    (void)oracle.latencies(0);  // must be a cache hit, not a recompute
    EXPECT_EQ(oracle.stats().tree_misses, before.tree_misses);
    EXPECT_EQ(oracle.stats().tree_hits, before.tree_hits + 1);
}

TEST(PathOracleFaults, DownEndpointQueriesReturnEmpty) {
    net::Network n = diamond();
    net::PathOracle oracle(n);
    ASSERT_TRUE(n.fail_switch(2));
    oracle.on_switch_down(2);
    EXPECT_FALSE(oracle.path(0, 2).has_value());
    EXPECT_FALSE(oracle.path(2, 0).has_value());
    EXPECT_TRUE(std::isinf(oracle.path_latency(0, 2)));
    // Unaffected pairs still resolve.
    ASSERT_TRUE(oracle.path(0, 3).has_value());
}

TEST(PathOracleFaults, RecoveryRestoresShorterPaths) {
    net::Network n = diamond();
    net::PathOracle oracle(n);
    ASSERT_TRUE(n.fail_link(0, 1));
    oracle.on_link_down(0, 1);
    const double detour = oracle.path_latency(0, 3);
    ASSERT_TRUE(n.recover_link(0, 1));
    oracle.on_link_up(0, 1);
    const double direct = oracle.path_latency(0, 3);
    EXPECT_LT(direct, detour);
    net::PathOracle fresh(n);
    EXPECT_DOUBLE_EQ(direct, fresh.path_latency(0, 3));
}

TEST(PathOracleFaults, KPathCacheDropsPathsThroughFailedElements) {
    net::Network n = diamond();
    net::PathOracle oracle(n);
    const auto before = oracle.k_paths(0, 3, 2);
    ASSERT_EQ(before.size(), 2u);
    ASSERT_TRUE(n.fail_link(0, 1));
    oracle.on_link_down(0, 1);
    const auto after = oracle.k_paths(0, 3, 2);
    ASSERT_EQ(after.size(), 1u);  // only the detour survives
    EXPECT_FALSE(after.front().contains(1) &&
                 after.front().switches.front() == 0 &&
                 after.front().switches[1] == 1);
    EXPECT_EQ(after.front().switches, (std::vector<net::SwitchId>{0, 2, 3}));
}

TEST(PathOracleFaults, SequenceMatchesFreshOracleOnWan) {
    // Random fail/recover sequence on a WAN topology: after every event the
    // notified shared oracle answers exactly like a cold oracle.
    net::Network n = net::table3_topology(4);
    net::PathOracle oracle(n);
    fault::Injector injector(n, &oracle);
    const auto script = fault::random_fault_script(n, 99, {});
    ASSERT_FALSE(script.empty());
    const std::vector<net::SwitchId> probes{0, 5, 11, 23};
    for (const fault::FaultEvent& e : script) {
        injector.apply(e);
        net::PathOracle fresh(n);
        for (const net::SwitchId s : probes) {
            for (const net::SwitchId d : probes) {
                EXPECT_DOUBLE_EQ(oracle.path_latency(s, d), fresh.path_latency(s, d))
                    << to_string(e.kind) << " " << e.a << " " << e.b;
            }
        }
    }
}

// ---- Fault scripts -------------------------------------------------------

TEST(FaultScript, FormatParseRoundTrip) {
    std::vector<fault::FaultEvent> events{
        {10.0, fault::FaultKind::kLinkDown, 0, 1},
        {20.5, fault::FaultKind::kSwitchDown, 2, 0},
        {30.0, fault::FaultKind::kLinkUp, 0, 1},
        {40.0, fault::FaultKind::kSwitchUp, 2, 0},
    };
    const std::string text = fault::format_fault_script(events);
    auto parsed = fault::parse_fault_script(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    ASSERT_EQ(parsed.value().size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_DOUBLE_EQ(parsed.value()[i].at_us, events[i].at_us);
        EXPECT_EQ(parsed.value()[i].kind, events[i].kind);
        EXPECT_EQ(parsed.value()[i].a, events[i].a);
        if (events[i].is_link()) {
            EXPECT_EQ(parsed.value()[i].b, events[i].b);
        }
    }
}

TEST(FaultScript, ParseHandlesCommentsSortingAndErrors) {
    const auto ok = fault::parse_fault_script(
        "# header comment\n"
        "30 link-up 0 1   # inline comment\n"
        "\n"
        "10 link-down 0 1\n");
    ASSERT_TRUE(ok.ok());
    ASSERT_EQ(ok.value().size(), 2u);
    EXPECT_EQ(ok.value()[0].kind, fault::FaultKind::kLinkDown);  // sorted by time

    EXPECT_FALSE(fault::parse_fault_script("oops link-down 0 1").ok());
    EXPECT_FALSE(fault::parse_fault_script("5 melt-down 0").ok());
    EXPECT_FALSE(fault::parse_fault_script("5 link-down 0").ok());
    EXPECT_FALSE(fault::parse_fault_script("5 switch-down 0 extra").ok());
    EXPECT_FALSE(fault::parse_fault_script("5 link-down 3 3").ok());
    const auto bad = fault::parse_fault_script("1 link-down 0 1\nbroken\n");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().loc().line, 2);
}

TEST(FaultScript, RandomScriptIsDeterministicAndBounded) {
    const net::Network n = net::table3_topology(2);
    fault::ScriptConfig config;
    config.events = 30;
    config.max_concurrent = 2;
    const auto a = fault::random_fault_script(n, 7, config);
    const auto b = fault::random_fault_script(n, 7, config);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].a, b[i].a);
        EXPECT_EQ(a[i].b, b[i].b);
        EXPECT_DOUBLE_EQ(a[i].at_us, b[i].at_us);
    }
    EXPECT_NE(fault::random_fault_script(n, 8, config).size() == a.size() &&
                  std::equal(a.begin(), a.end(),
                             fault::random_fault_script(n, 8, config).begin(),
                             [](const fault::FaultEvent& x, const fault::FaultEvent& y) {
                                 return x.kind == y.kind && x.a == y.a && x.b == y.b;
                             }),
              true);
    // Replay order never exceeds max_concurrent open failures and times are
    // ascending.
    std::size_t open = 0, peak = 0;
    double last = -1.0;
    for (const fault::FaultEvent& e : a) {
        EXPECT_GE(e.at_us, last);
        last = e.at_us;
        if (e.is_failure()) {
            peak = std::max(peak, ++open);
        } else if (open > 0) {
            --open;
        }
    }
    EXPECT_LE(peak, config.max_concurrent);
}

TEST(Injector, CountsAppliedAndNoops) {
    net::Network n = diamond();
    obs::Sink sink;
    fault::Injector injector(n, nullptr, &sink);
    EXPECT_TRUE(injector.apply({0.0, fault::FaultKind::kLinkDown, 0, 1}));
    EXPECT_FALSE(injector.apply({1.0, fault::FaultKind::kLinkDown, 0, 1}));  // no-op
    EXPECT_TRUE(injector.apply({2.0, fault::FaultKind::kSwitchDown, 2, 0}));
    EXPECT_FALSE(injector.apply({3.0, fault::FaultKind::kSwitchUp, 0, 0}));  // up already
    EXPECT_EQ(injector.applied(), 2);
    EXPECT_EQ(injector.noops(), 2);
    EXPECT_EQ(sink.counter("fault.applied").value(), 2);
    EXPECT_EQ(sink.counter("fault.noops").value(), 2);
    EXPECT_THROW(injector.apply({4.0, fault::FaultKind::kSwitchDown, 99, 0}),
                 std::out_of_range);
}

// ---- Damage classification and the re-solve ladder ----------------------

struct Scenario {
    net::Network net;
    tdg::Tdg merged;
    core::Deployment deployment;
};

Scenario testbed_scenario(std::size_t switches = 6, int programs = 6) {
    sim::TestbedConfig config;
    config.switch_count = switches;
    Scenario s{sim::make_testbed(config), core::analyze(prog::paper_workload(programs, 11)),
               {}};
    s.deployment = core::try_deploy_greedy(s.merged, s.net).value().deployment;
    return s;
}

// One climb of the re-solve ladder after faults: every placement carries
// over, as in the CLI's fault replay.
util::StatusOr<core::Redeployment> heal(const tdg::Tdg& t, const net::Network& n,
                                        const core::Deployment& d,
                                        const core::HermesOptions& options,
                                        bool allow_milp = false) {
    return core::redeploy(t, n, options, allow_milp, &d, d.placements, /*retarget=*/false);
}

util::StatusOr<core::Redeployment> heal(const Scenario& s, const core::HermesOptions& options,
                                        bool allow_milp = false) {
    return heal(s.merged, s.net, s.deployment, options, allow_milp);
}

// Ladder climbs recorded in `sink`: each one ticks exactly one rung.
std::int64_t climbs(const obs::Sink& sink) {
    std::int64_t total = 0;
    for (const auto& c : sink.counters()) {
        if (c.name.rfind("engine.rung.", 0) == 0) total += c.value;
    }
    return total;
}

void expect_same_deployment(const core::Deployment& a, const core::Deployment& b) {
    ASSERT_EQ(a.placements.size(), b.placements.size());
    for (std::size_t i = 0; i < a.placements.size(); ++i) {
        EXPECT_EQ(a.placements[i].sw, b.placements[i].sw) << i;
        EXPECT_EQ(a.placements[i].stage, b.placements[i].stage) << i;
    }
    ASSERT_EQ(a.routes.size(), b.routes.size());
    for (const auto& [pair, path] : a.routes) {
        const auto it = b.routes.find(pair);
        ASSERT_NE(it, b.routes.end());
        EXPECT_EQ(path.switches, it->second.switches);
    }
}

TEST(Repair, ClassifyFindsStrandedMatsAndDeadRoutes) {
    Scenario s = testbed_scenario();
    ASSERT_TRUE(core::classify_damage(s.merged, s.net, s.deployment).intact());

    const net::SwitchId victim = s.deployment.occupied_switches().front();
    ASSERT_TRUE(s.net.fail_switch(victim));
    const core::DamageReport damage =
        core::classify_damage(s.merged, s.net, s.deployment);
    EXPECT_FALSE(damage.intact());
    EXPECT_FALSE(damage.stranded_mats.empty());
    for (const tdg::NodeId a : damage.stranded_mats) {
        EXPECT_EQ(s.deployment.placements[a].sw, victim);
    }
}

TEST(Repair, IntactDeploymentShortCircuits) {
    Scenario s = testbed_scenario();
    obs::Sink sink;
    core::HermesOptions options;
    options.sink = &sink;
    const auto r = heal(s, options);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(r.value().outcome.status, "intact");
    EXPECT_EQ(r.value().outcome.moved_mats, 0);
    EXPECT_EQ(sink.counter("engine.rung.intact").value(), 1);
    EXPECT_EQ(climbs(sink), 1);
    EXPECT_EQ(sink.counter("engine.degraded").value(), 0);
    EXPECT_EQ(sink.counter("greedy.anchors_tried").value(), 0);  // no re-solve ran
}

TEST(Repair, SingleLinkFailureRepairsByReroutingOnly) {
    // Diamond: both MAT hosts survive a link failure, so the repair must be
    // reroute-only — zero MATs move. Cap per-switch stages so the workload
    // spreads over at least two switches.
    net::Network n = diamond();
    for (net::SwitchId u = 0; u < n.switch_count(); ++u) n.props(u).stages = 4;
    n.bump_epoch();
    const tdg::Tdg merged = core::analyze(prog::paper_workload(4, 17));
    core::Deployment d = core::try_deploy_greedy(merged, n).value().deployment;
    const auto occupied = d.occupied_switches();
    ASSERT_GE(occupied.size(), 2u);

    // Fail a link on some recorded route.
    ASSERT_FALSE(d.routes.empty());
    const net::Path& route = d.routes.begin()->second;
    ASSERT_GE(route.switches.size(), 2u);
    net::PathOracle oracle(n);
    fault::Injector injector(n, &oracle);
    ASSERT_TRUE(injector.apply(
        {0.0, fault::FaultKind::kLinkDown, route.switches[0], route.switches[1]}));

    obs::Sink sink;
    core::HermesOptions options;
    options.sink = &sink;
    options.oracle = &oracle;
    const auto r = heal(merged, n, d, options);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(r.value().outcome.status, "reroute");
    EXPECT_EQ(r.value().outcome.moved_mats, 0);
    EXPECT_GT(r.value().outcome.rerouted_pairs, 0);
    EXPECT_EQ(sink.counter("engine.rung.reroute").value(), 1);
    EXPECT_EQ(sink.counter("engine.moved_mats").value(), 0);
    EXPECT_TRUE(core::verify(merged, n, r.value().deployment).ok);
    // Placements untouched.
    for (std::size_t i = 0; i < d.placements.size(); ++i) {
        EXPECT_EQ(d.placements[i].sw, r.value().deployment.placements[i].sw);
    }
}

TEST(Repair, SwitchFailureEscalatesToReplacement) {
    Scenario s = testbed_scenario();
    net::PathOracle oracle(s.net);
    fault::Injector injector(s.net, &oracle);
    const net::SwitchId victim = s.deployment.occupied_switches().front();
    ASSERT_TRUE(injector.apply({0.0, fault::FaultKind::kSwitchDown, victim, 0}));

    obs::Sink sink;
    core::HermesOptions options;
    options.sink = &sink;
    options.oracle = &oracle;
    const auto r = heal(s, options);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(r.value().outcome.status, "replace");
    EXPECT_GT(r.value().outcome.moved_mats, 0);
    EXPECT_EQ(sink.counter("engine.moved_mats").value(), r.value().outcome.moved_mats);
    EXPECT_TRUE(core::verify(s.merged, s.net, r.value().deployment).ok);
    for (const core::Placement& p : r.value().deployment.placements) {
        EXPECT_NE(p.sw, victim);
    }
    EXPECT_EQ(sink.counter("engine.degraded").value(), 0);
}

TEST(Repair, InfeasibleWhenNoCapacitySurvives) {
    Scenario s = testbed_scenario(3, 6);
    const core::Deployment before = s.deployment;
    fault::Injector injector(s.net);
    for (net::SwitchId u = 0; u < s.net.switch_count(); ++u) {
        injector.apply({0.0, fault::FaultKind::kSwitchDown, u, 0});
    }
    const auto r = heal(s, {});
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kInfeasible);
    // The caller's deployment stays untouched.
    expect_same_deployment(s.deployment, before);
}

TEST(Repair, MilpRungRunsOnlyWhenGreedyFails) {
    Scenario s = testbed_scenario(6, 4);
    net::PathOracle oracle(s.net);
    fault::Injector injector(s.net, &oracle);
    const net::SwitchId victim = s.deployment.occupied_switches().front();
    ASSERT_TRUE(injector.apply({0.0, fault::FaultKind::kSwitchDown, victim, 0}));

    core::HermesOptions options;
    options.oracle = &oracle;
    options.milp.time_limit_seconds = 30.0;
    const auto greedy_only = heal(s, options);
    ASSERT_TRUE(greedy_only.ok()) << greedy_only.status().to_string();
    ASSERT_EQ(greedy_only.value().outcome.status, "replace");

    // The greedy re-place verifies, so the flag changes nothing.
    obs::Sink sink;
    options.sink = &sink;
    const auto with_milp = heal(s, options, /*allow_milp=*/true);
    ASSERT_TRUE(with_milp.ok()) << with_milp.status().to_string();
    EXPECT_EQ(with_milp.value().outcome.status, "replace");
    EXPECT_FALSE(with_milp.value().outcome.escalated);
    EXPECT_EQ(sink.counter("engine.escalated").value(), 0);
    expect_same_deployment(with_milp.value().deployment, greedy_only.value().deployment);

    // Every switch down: greedy fails, the MILP rung runs once, and nothing
    // verifies.
    for (net::SwitchId u = 0; u < s.net.switch_count(); ++u) {
        injector.apply({0.0, fault::FaultKind::kSwitchDown, u, 0});
    }
    obs::Sink down_sink;
    options.sink = &down_sink;
    const auto none = heal(s, options, /*allow_milp=*/true);
    EXPECT_FALSE(none.ok());
    EXPECT_EQ(none.status().code(), util::StatusCode::kInfeasible);
    EXPECT_EQ(down_sink.counter("engine.escalated").value(), 1);
}

TEST(Repair, DeadlineTripDegradesToFallbackWithoutThrowing) {
    // The token trips inside the greedy anchor scan, after some anchors were
    // evaluated: the ladder must serve the truncated greedy result flagged
    // as degraded, with no exception and no escalation. The trip point is a
    // poll count, not a wall-clock budget, so it lands in the same place on
    // any machine and under sanitizers.
    sim::TestbedConfig testbed;
    testbed.switch_count = 6;
    Scenario s{sim::make_testbed(testbed),
               core::analyze(prog::paper_workload(6, 23)),
               {}};
    s.deployment = core::try_deploy_greedy(s.merged, s.net).value().deployment;
    net::PathOracle oracle(s.net);
    fault::Injector injector(s.net, &oracle);
    const net::SwitchId victim = s.deployment.occupied_switches().front();
    ASSERT_TRUE(injector.apply({0.0, fault::FaultKind::kSwitchDown, victim, 0}));

    // Greedy-only run: at one thread the anchor scan polls once per anchor,
    // and nothing else on this path polls.
    obs::Sink calibration_sink;
    core::HermesOptions options;
    options.sink = &calibration_sink;
    options.oracle = &oracle;
    options.threads = 1;
    const auto baseline = heal(s, options);
    ASSERT_TRUE(baseline.ok()) << baseline.status().to_string();
    ASSERT_EQ(baseline.value().outcome.status, "replace");
    const std::int64_t anchors = calibration_sink.counter("greedy.anchors_tried").value();
    ASSERT_GE(anchors, 2);

    // Polls before the budget's last pass and evaluate their anchors; the
    // last one trips, midway through the scan.
    obs::Sink sink;
    options.sink = &sink;
    options.deadline = core::Deadline::after_polls(anchors / 2 + 1);
    util::StatusOr<core::Redeployment> r = util::Status::infeasible("not run");
    ASSERT_NO_THROW(r = heal(s, options, /*allow_milp=*/true));
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    ASSERT_GE(sink.counter("greedy.anchors_feasible").value(), 1);
    EXPECT_EQ(r.value().outcome.status, "replace");
    EXPECT_TRUE(r.value().outcome.degraded);
    EXPECT_FALSE(r.value().outcome.escalated);
    EXPECT_TRUE(core::verify(s.merged, s.net, r.value().deployment).ok);
    EXPECT_EQ(sink.counter("engine.degraded").value(), 1);
}

// ---- 50-event seeded WAN scenario ----------------------------------------

// Runs the full fail -> notify oracle -> redeploy -> verify loop over a seeded
// script and returns a fingerprint of the evolution (status sequence +
// objective per event).
std::vector<std::pair<std::string, std::int64_t>> run_scenario(int threads) {
    net::Network n = net::table3_topology(10);
    const tdg::Tdg merged = core::analyze(prog::paper_workload(10, 31));
    net::PathOracle oracle(n);
    core::HermesOptions deploy_options;
    deploy_options.oracle = &oracle;
    deploy_options.threads = threads;
    core::Deployment current = core::try_deploy_greedy(merged, n, deploy_options).value().deployment;

    fault::ScriptConfig config;
    config.events = 50;
    config.max_concurrent = 2;
    const auto script = fault::random_fault_script(n, 1234, config);
    EXPECT_EQ(script.size(), 50u);

    fault::Injector injector(n, &oracle);
    core::HermesOptions repair_options;
    repair_options.oracle = &oracle;
    repair_options.threads = threads;

    std::vector<std::pair<std::string, std::int64_t>> fingerprint;
    for (const fault::FaultEvent& e : script) {
        injector.apply(e);
        const auto r = heal(merged, n, current, repair_options);
        if (!r.ok()) {
            ADD_FAILURE() << to_string(e.kind) << " " << e.a << " " << e.b << ": "
                          << r.status().to_string();
            fingerprint.emplace_back("infeasible", core::max_pair_metadata(merged, current));
            continue;
        }
        const core::VerificationReport report =
            core::verify(merged, n, r.value().deployment);
        EXPECT_TRUE(report.ok) << (report.violations.empty()
                                       ? r.value().outcome.status
                                       : report.violations.front());
        current = r.value().deployment;
        fingerprint.emplace_back(r.value().outcome.status,
                                 core::max_pair_metadata(merged, current));
    }
    return fingerprint;
}

TEST(Repair, FiftyEventScriptSurvivesAndIsDeterministicAcrossThreadCounts) {
    const auto serial = run_scenario(1);
    ASSERT_EQ(serial.size(), 50u);
    const auto parallel = run_scenario(4);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].first, parallel[i].first) << "event " << i;
        EXPECT_EQ(serial[i].second, parallel[i].second) << "event " << i;
    }
}

// ---- Failure-window replay -----------------------------------------------

TEST(Replay, CountsPacketsLostBeforeRepairAndAmaxDelta) {
    Scenario s = testbed_scenario();
    net::PathOracle oracle(s.net);
    fault::Injector injector(s.net, &oracle);
    const net::SwitchId victim = s.deployment.occupied_switches().front();
    ASSERT_TRUE(injector.apply({0.0, fault::FaultKind::kSwitchDown, victim, 0}));

    core::HermesOptions options;
    options.oracle = &oracle;
    const auto r = heal(s, options);
    ASSERT_TRUE(r.ok()) << r.status().to_string();

    obs::Sink sink;
    sim::ReplayConfig config;
    config.window_us = 1000.0;
    config.repair_done_us = 400.0;
    config.flow_interval_us = 100.0;
    config.flow.payload_bytes_total = 1460 * 50;
    config.sim.sink = &sink;
    const sim::ReplayReport report = sim::replay_failure_window(
        s.merged, s.net, s.deployment, r.value().deployment, config, &oracle);
    EXPECT_EQ(report.flows_total, 10);
    EXPECT_EQ(report.flows_lost, 4);  // launches at 0,100,200,300 ride the dead one
    EXPECT_GT(report.packets_lost_before_repair, 0);
    EXPECT_GT(report.post_fct_us, 0.0);
    EXPECT_EQ(report.amax_delta_bytes, report.post_amax_bytes - report.pre_amax_bytes);
    EXPECT_EQ(sink.counter("replay.flows").value(), 10);
    EXPECT_EQ(sink.counter("replay.flows_lost").value(), 4);
}

TEST(Replay, IntactDeploymentLosesNothing) {
    Scenario s = testbed_scenario();
    sim::ReplayConfig config;
    config.flow.payload_bytes_total = 1460 * 10;
    const sim::ReplayReport report = sim::replay_failure_window(
        s.merged, s.net, s.deployment, s.deployment, config, nullptr);
    EXPECT_GT(report.flows_total, 0);
    EXPECT_EQ(report.flows_lost, 0);
    EXPECT_EQ(report.packets_lost_before_repair, 0);
    EXPECT_EQ(report.amax_delta_bytes, 0);
}

// ---- deployment_hops over failed hardware (regression) -------------------
// deployment_hops/hops_from_path used to build hop lists straight through
// failed links and switches, silently simulating traffic on dead hardware.

TEST(DeploymentHops, HopsFromPathRejectsDeadHardware) {
    net::Network n = diamond();
    net::Path p;
    p.switches = {0, 1, 3};
    EXPECT_EQ(sim::hops_from_path(n, p).size(), 2u);
    ASSERT_TRUE(n.fail_link(0, 1));
    EXPECT_THROW((void)sim::hops_from_path(n, p), std::invalid_argument);
    ASSERT_TRUE(n.recover_link(0, 1));
    ASSERT_TRUE(n.fail_switch(1));
    EXPECT_THROW((void)sim::hops_from_path(n, p), std::invalid_argument);
}

TEST(DeploymentHops, ThrowsWhenOccupiedSwitchIsDown) {
    Scenario s = testbed_scenario();
    EXPECT_FALSE(sim::deployment_hops(s.merged, s.net, s.deployment).empty());
    ASSERT_TRUE(s.net.fail_switch(s.deployment.occupied_switches().front()));
    EXPECT_THROW((void)sim::deployment_hops(s.merged, s.net, s.deployment),
                 std::runtime_error);
}

TEST(DeploymentHops, ReroutesRecordedRouteAroundFailedLink) {
    // Same setup as the reroute-only repair test: both MAT hosts survive a
    // link failure on a recorded route, and the diamond's heavier detour
    // stays available.
    net::Network n = diamond();
    for (net::SwitchId u = 0; u < n.switch_count(); ++u) n.props(u).stages = 4;
    n.bump_epoch();
    const tdg::Tdg merged = core::analyze(prog::paper_workload(4, 17));
    core::Deployment d = core::try_deploy_greedy(merged, n).value().deployment;
    ASSERT_FALSE(d.routes.empty());
    const auto sum_propagation = [](const std::vector<sim::HopSpec>& hops) {
        double total = 0.0;
        for (const sim::HopSpec& h : hops) total += h.propagation_us;
        return total;
    };
    const double intact_prop = sum_propagation(sim::deployment_hops(merged, n, d));

    const net::Path& route = d.routes.begin()->second;
    ASSERT_GE(route.switches.size(), 2u);
    ASSERT_TRUE(n.fail_link(route.switches[0], route.switches[1]));
    // The recorded route is dead; the hop list must follow a live path (the
    // old behavior returned the intact hop list unchanged).
    const auto rerouted = sim::deployment_hops(merged, n, d);
    for (const sim::HopSpec& h : rerouted) EXPECT_GE(h.propagation_us, 0.0);
    EXPECT_GT(sum_propagation(rerouted), intact_prop);
}

TEST(Replay, FailedRepairLosesPostWindowFlowsToo) {
    Scenario s = testbed_scenario();
    fault::Injector injector(s.net);
    const net::SwitchId victim = s.deployment.occupied_switches().front();
    ASSERT_TRUE(injector.apply({0.0, fault::FaultKind::kSwitchDown, victim, 0}));
    sim::ReplayConfig config;
    config.flow.payload_bytes_total = 1460 * 10;
    const sim::ReplayReport report = sim::replay_failure_window(
        s.merged, s.net, s.deployment, core::Deployment{}, config, nullptr);
    EXPECT_EQ(report.flows_lost, report.flows_total);
}

}  // namespace
}  // namespace hermes
