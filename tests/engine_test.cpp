// core::Engine session tests: delta re-solves matching cold deployments on
// the testbed and a zoo WAN, batch/epoch semantics, rollback on infeasible
// or invalid batches, the merge as a fold over the program list, rejected
// delta candidates, the ladder's MILP and deadline rungs, and a 200-event
// churn that stays verifier-clean and thread-count deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/hermes.h"
#include "core/verifier.h"
#include "fault/fault.h"
#include "net/topozoo.h"
#include "obs/obs.h"
#include "prog/synthetic.h"
#include "sim/testbed.h"
#include "util/rng.h"

namespace hermes::core {
namespace {

net::Network testbed() {
    sim::TestbedConfig config;
    config.switch_count = 4;
    config.stages = 8;
    return sim::make_testbed(config);
}

net::Network zoo_wan() { return net::table3_topology(1); }

prog::Program tenant(std::uint64_t seed, std::size_t index) {
    prog::Program p = prog::synthetic_program({}, seed, index);
    p.set_name("t" + std::to_string(index));
    return p;
}

// A cold one-shot deploy of the engine's own merged TDG — the apples-to-
// apples reference for delta equivalence (the engine merges by union, not
// by the deduplicating analyze() merge).
DeployOutcome cold_reference(const Engine& engine) {
    HermesOptions options;
    options.epsilon1 = engine.options().epsilon1;
    options.epsilon2 = engine.options().epsilon2;
    auto outcome = try_deploy_greedy(engine.merged(), engine.network(), options);
    EXPECT_TRUE(outcome.ok()) << outcome.status().message();
    return std::move(outcome).value();
}

void expect_verified(const Engine& engine) {
    ASSERT_TRUE(engine.has_incumbent());
    const VerificationReport report =
        verify(engine.merged(), engine.network(), engine.incumbent());
    EXPECT_TRUE(report.ok) << (report.violations.empty()
                                   ? std::string("no detail")
                                   : report.violations.front());
}

TEST(Engine, AddProgramsDeltaMatchesColdObjective) {
    Engine engine(testbed());
    for (std::size_t i = 0; i < 3; ++i) {
        auto outcome = engine.add_program(tenant(11, i));
        ASSERT_TRUE(outcome.ok()) << outcome.status().message();
        expect_verified(engine);

        const DeployOutcome cold = cold_reference(engine);
        // Equivalence claim: a cold one-shot deploy of the engine's merged
        // TDG places exactly the same node set, and the engine's reported
        // metrics agree with an independent evaluation of its incumbent.
        // (Objectives may differ — the delta rung preserves survivors
        // instead of re-optimizing — but both must verify.)
        EXPECT_EQ(engine.incumbent().placements.size(), cold.deployment.placements.size());
        const DeploymentMetrics recomputed =
            evaluate(engine.merged(), engine.network(), engine.incumbent());
        EXPECT_EQ(engine.metrics().max_pair_metadata_bytes,
                  recomputed.max_pair_metadata_bytes);
        EXPECT_EQ(engine.metrics().occupied_switches, recomputed.occupied_switches);
    }
    EXPECT_EQ(engine.program_count(), 3u);
}

TEST(Engine, DeltaEquivalenceOnZooWan) {
    Engine engine(zoo_wan());
    for (std::size_t i = 0; i < 4; ++i) {
        auto outcome = engine.add_program(tenant(23, i));
        ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    }
    auto removed = engine.remove_program("t1");
    ASSERT_TRUE(removed.ok()) << removed.status().message();
    EXPECT_TRUE(removed.value().delta);
    expect_verified(engine);

    const DeployOutcome cold = cold_reference(engine);
    EXPECT_EQ(engine.incumbent().placements.size(), cold.deployment.placements.size());
    // Both deployments verify against the same merged TDG and network.
    const VerificationReport cold_report =
        verify(engine.merged(), engine.network(), cold.deployment);
    EXPECT_TRUE(cold_report.ok);
}

TEST(Engine, RemoveShiftsSurvivingPlacementsWithoutResolve) {
    Engine engine(testbed());
    ASSERT_TRUE(engine.add_program(tenant(7, 0)).ok());
    ASSERT_TRUE(engine.add_program(tenant(7, 1)).ok());
    const std::vector<Placement> before = engine.incumbent().placements;
    const std::size_t first_count =
        engine.merged().node_count() -
        prog::synthetic_program({}, 7, 1).to_tdg().node_count();

    auto outcome = engine.remove_program("t1");
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    // Removing the suffix tenant leaves t0's placements bit-identical.
    ASSERT_EQ(engine.incumbent().placements.size(), first_count);
    for (std::size_t i = 0; i < first_count; ++i) {
        EXPECT_EQ(engine.incumbent().placements[i].sw, before[i].sw) << i;
        EXPECT_EQ(engine.incumbent().placements[i].stage, before[i].stage) << i;
    }
    expect_verified(engine);
}

TEST(Engine, BatchAppliesAsOneEpoch) {
    Engine engine(testbed());
    std::vector<Engine::Mutation> batch;
    for (std::size_t i = 0; i < 3; ++i) {
        Engine::Mutation m;
        m.kind = Engine::Mutation::Kind::kAddProgram;
        m.program = tenant(31, i);
        batch.push_back(std::move(m));
    }
    auto outcome = engine.apply(std::move(batch));
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    EXPECT_EQ(engine.epoch(), 1);
    EXPECT_EQ(engine.program_count(), 3u);
    expect_verified(engine);
}

TEST(Engine, InvalidBatchRollsBackEverything) {
    Engine engine(testbed());
    ASSERT_TRUE(engine.add_program(tenant(41, 0)).ok());
    const std::int64_t epoch_before = engine.epoch();

    // Duplicate add inside one batch: kInvalidInput, nothing applied.
    std::vector<Engine::Mutation> batch;
    for (int i = 0; i < 2; ++i) {
        Engine::Mutation m;
        m.kind = Engine::Mutation::Kind::kAddProgram;
        m.program = tenant(41, 1);
        batch.push_back(std::move(m));
    }
    auto outcome = engine.apply(std::move(batch));
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), util::StatusCode::kInvalidInput);
    EXPECT_EQ(engine.program_count(), 1u);
    EXPECT_EQ(engine.epoch(), epoch_before);
    expect_verified(engine);

    // Unknown remove: same contract.
    auto removed = engine.remove_program("missing");
    ASSERT_FALSE(removed.ok());
    EXPECT_EQ(removed.status().code(), util::StatusCode::kInvalidInput);

    // Out-of-range fault id: same contract, network untouched.
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kSwitchDown;
    e.a = engine.network().switch_count() + 5;
    auto faulted = engine.apply_fault(e);
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.status().code(), util::StatusCode::kInvalidInput);
}

TEST(Engine, InfeasibleAddLeavesIncumbentStanding) {
    // A tiny testbed fills up fast; keep adding tenants until one is
    // rejected, then check the previous verified incumbent still stands.
    sim::TestbedConfig config;
    config.switch_count = 2;
    config.stages = 6;
    Engine engine(sim::make_testbed(config));
    std::size_t accepted = 0;
    bool saw_infeasible = false;
    for (std::size_t i = 0; i < 12; ++i) {
        auto outcome = engine.add_program(tenant(53, i));
        if (outcome.ok()) {
            ++accepted;
            continue;
        }
        EXPECT_EQ(outcome.status().code(), util::StatusCode::kInfeasible);
        saw_infeasible = true;
        break;
    }
    ASSERT_TRUE(saw_infeasible);
    ASSERT_GT(accepted, 0u);
    EXPECT_EQ(engine.program_count(), accepted);
    expect_verified(engine);
}

TEST(Engine, FaultAndRecoverKeepIncumbentVerified) {
    obs::Sink sink;
    EngineOptions options;
    options.sink = &sink;
    Engine engine(zoo_wan(), options);
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(engine.add_program(tenant(61, i)).ok());
    }

    // Fail a link that carries no bridge role: pick the first link whose
    // removal keeps the network connected by just trying candidates.
    const auto& net = engine.network();
    bool repaired = false;
    for (const auto& link : net.links()) {
        fault::FaultEvent down;
        down.kind = fault::FaultKind::kLinkDown;
        down.a = link.a;
        down.b = link.b;
        auto outcome = engine.apply_fault(down);
        if (!outcome.ok()) continue;  // partition or unrepairable: try another
        expect_verified(engine);

        fault::FaultEvent up = down;
        up.kind = fault::FaultKind::kLinkUp;
        auto recovered = engine.apply_fault(up);
        ASSERT_TRUE(recovered.ok()) << recovered.status().message();
        expect_verified(engine);
        repaired = true;
        break;
    }
    EXPECT_TRUE(repaired);
    std::int64_t climbs = 0;
    for (const auto& c : sink.counters()) {
        if (c.name.rfind("engine.rung.", 0) == 0) climbs += c.value;
    }
    EXPECT_GT(climbs, 0);
}

// Empty when `got` has `want`'s node count and edge list (from, to, type,
// A(a,b)), else the first difference.
std::string merge_difference(const tdg::Tdg& got, const tdg::Tdg& want) {
    if (got.node_count() != want.node_count()) {
        return std::to_string(got.node_count()) + " nodes, want " +
               std::to_string(want.node_count());
    }
    if (got.edge_count() != want.edge_count()) {
        return std::to_string(got.edge_count()) + " edges, want " +
               std::to_string(want.edge_count());
    }
    for (std::size_t i = 0; i < want.edge_count(); ++i) {
        const tdg::Edge& g = got.edges()[i];
        const tdg::Edge& w = want.edges()[i];
        if (g.from != w.from || g.to != w.to || g.type != w.type ||
            g.metadata_bytes != w.metadata_bytes) {
            return "edge " + std::to_string(i) + " differs";
        }
    }
    return {};
}

TEST(Engine, ExtendingTheMergeEqualsMergingFromScratch) {
    // The merged TDG is a left fold over the ordered program list, so an
    // engine that grew its set one add per epoch holds the same graph as one
    // that received the whole ordered set in a single epoch.
    util::SplitMix64 rng(0xF01D);
    std::string first_difference;
    int differing = 0;
    for (int set = 0; set < 400; ++set) {
        std::vector<int> pool(16);
        for (int i = 0; i < 16; ++i) pool[static_cast<std::size_t>(i)] = i;
        rng.shuffle(pool);
        pool.resize(static_cast<std::size_t>(rng.uniform_int(2, 9)));

        Engine extended(zoo_wan());
        Engine scratch(zoo_wan());
        std::vector<Engine::Mutation> batch;
        for (const int index : pool) {
            const prog::Program p = prog::synthetic_program({}, 1, index);
            ASSERT_TRUE(extended.add_program(p).ok()) << "set " << set;
            Engine::Mutation add;
            add.kind = Engine::Mutation::Kind::kAddProgram;
            add.program = p;
            batch.push_back(std::move(add));
        }
        ASSERT_TRUE(scratch.apply(std::move(batch)).ok()) << "set " << set;
        ASSERT_EQ(extended.program_names(), scratch.program_names());
        const std::string difference = merge_difference(extended.merged(), scratch.merged());
        if (!difference.empty() && differing++ == 0) {
            first_difference = "set " + std::to_string(set) + ": " + difference;
        }
    }
    EXPECT_EQ(differing, 0) << first_difference;
}

TEST(Engine, ReAddedTenantIsMergedFromItsNewProgram) {
    // Remove-then-add under one name is how an operator upgrades a tenant.
    // The merge must come from the new program, never from the removed one.
    const auto program = [](std::size_t index, const char* name) {
        prog::Program p = prog::synthetic_program({}, 1, index);
        p.set_name(name);
        return p;
    };
    Engine engine(zoo_wan());
    ASSERT_TRUE(engine.add_program(program(0, "x")).ok());
    ASSERT_TRUE(engine.add_program(program(2, "y")).ok());
    ASSERT_TRUE(engine.remove_program("x").ok());
    ASSERT_TRUE(engine.remove_program("y").ok());
    ASSERT_TRUE(engine.add_program(program(2, "y")).ok());
    ASSERT_TRUE(engine.add_program(program(1, "x")).ok());
    ASSERT_TRUE(engine.remove_program("y").ok());

    Engine fresh(zoo_wan());
    ASSERT_TRUE(fresh.add_program(program(1, "x")).ok());
    const tdg::Tdg& got = engine.merged();
    const tdg::Tdg& want = fresh.merged();
    ASSERT_EQ(got.node_count(), want.node_count());
    for (std::size_t i = 0; i < want.node_count(); ++i) {
        const auto id = static_cast<tdg::NodeId>(i);
        EXPECT_EQ(got.node(id).name(), want.node(id).name()) << "node " << i;
    }
    ASSERT_EQ(got.edge_count(), want.edge_count());
    for (std::size_t i = 0; i < want.edge_count(); ++i) {
        const tdg::Edge& g = got.edges()[i];
        const tdg::Edge& w = want.edges()[i];
        EXPECT_EQ(g.from, w.from) << "edge " << i;
        EXPECT_EQ(g.to, w.to) << "edge " << i;
        EXPECT_EQ(g.type, w.type) << "edge " << i;
        EXPECT_EQ(g.metadata_bytes, w.metadata_bytes) << "edge " << i;
    }
    expect_verified(engine);
    EXPECT_EQ(engine.incumbent().placements.size(), want.node_count());
}

TEST(Engine, RejectedDeltaCandidateIsNotAViolation) {
    // Under epsilon2 = 3, t1's delta candidate spills t1 onto a fourth
    // switch (Q_occ 4); the verifier turns it down and the greedy rung
    // serves a re-placement on three. The candidate was never served, so it
    // ticks engine.rejected_candidates and leaves verify.violations at 0.
    obs::Sink sink;
    EngineOptions options;
    options.sink = &sink;
    options.epsilon2 = 3;
    Engine engine(testbed(), options);
    ASSERT_TRUE(engine.add_program(tenant(3, 0)).ok());
    EXPECT_EQ(sink.counter("engine.rejected_candidates").value(), 0);

    auto outcome = engine.add_program(tenant(3, 1));
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    EXPECT_EQ(outcome.value().status, "replace");
    EXPECT_EQ(sink.counter("engine.rejected_candidates").value(), 1);
    EXPECT_EQ(sink.counter("verify.violations").value(), 0);
    expect_verified(engine);
}

// ---- The ladder's last rungs: MILP escalation and the deadline. ----------

TEST(Engine, MilpRungRunsOnceWhenEverySwitchFails) {
    obs::Sink sink;
    EngineOptions options;
    options.sink = &sink;
    options.allow_milp = true;
    options.milp.time_limit_seconds = 30.0;
    Engine engine(testbed(), options);
    ASSERT_TRUE(engine.add_program(tenant(81, 0)).ok());
    ASSERT_EQ(sink.counter("engine.escalated").value(), 0);

    // One epoch adds a tenant and fails every switch: every MAT is
    // stranded, the greedy rung has nowhere to place, and the MILP rung
    // runs once before the epoch fails.
    std::vector<Engine::Mutation> batch(1);
    batch[0].kind = Engine::Mutation::Kind::kAddProgram;
    batch[0].program = tenant(81, 1);
    for (net::SwitchId u = 0; u < engine.network().switch_count(); ++u) {
        Engine::Mutation m;
        m.kind = Engine::Mutation::Kind::kFault;
        m.fault = {0.0, fault::FaultKind::kSwitchDown, u, 0};
        batch.push_back(std::move(m));
    }
    util::StatusOr<DeltaOutcome> outcome = util::Status::invalid("not run");
    ASSERT_NO_THROW(outcome = engine.apply(std::move(batch)));
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), util::StatusCode::kInfeasible);
    EXPECT_EQ(sink.counter("engine.escalated").value(), 1);
    // The program set rolls back; the faults stay, so t0's placements no
    // longer verify.
    EXPECT_EQ(engine.program_names(), std::vector<std::string>{"t0"});
    EXPECT_FALSE(engine.has_incumbent());
}

// Runs a program add (greedy rung) and then a switch-down that strands MATs
// (re-place rung) on the zoo WAN at one thread, under `deadline`.
struct StrandEpoch {
    std::int64_t setup_polls = 0;  // anchor-scan polls of the add epoch
    std::int64_t strand_polls = 0;  // anchor-scan polls of the switch-down epoch
    util::StatusOr<DeltaOutcome> outcome = util::Status::invalid("not run");
    bool verified = false;          // the incumbent afterwards passes verify()
    std::int64_t degraded = 0;      // engine.degraded
};

StrandEpoch strand_a_switch(const Deadline& deadline) {
    obs::Sink sink;
    EngineOptions options;
    options.sink = &sink;
    options.threads = 1;
    options.deadline = deadline;
    Engine engine(zoo_wan(), options);
    StrandEpoch run;
    EXPECT_TRUE(engine.add_program(tenant(91, 0)).ok());
    run.setup_polls = sink.counter("greedy.anchors_tried").value();
    fault::FaultEvent down;
    down.kind = fault::FaultKind::kSwitchDown;
    down.a = engine.incumbent().placements.front().sw;
    EXPECT_NO_THROW(run.outcome = engine.apply_fault(down));
    run.strand_polls = sink.counter("greedy.anchors_tried").value() - run.setup_polls;
    run.verified = engine.has_incumbent() &&
                   verify(engine.merged(), engine.network(), engine.incumbent()).ok;
    run.degraded = sink.counter("engine.degraded").value();
    return run;
}

TEST(Engine, DeadlineTripMidScanServesDegradedVerifiedIncumbent) {
    // At one thread the greedy anchor scan polls the token once per anchor
    // and nothing else on this path spends a poll, so a deadline-free run's
    // counters place the trip midway through the switch-down epoch's scan.
    const StrandEpoch calibration = strand_a_switch(Deadline{});
    ASSERT_TRUE(calibration.outcome.ok()) << calibration.outcome.status().to_string();
    ASSERT_EQ(calibration.outcome.value().status, "replace");
    ASSERT_FALSE(calibration.outcome.value().degraded);
    ASSERT_GE(calibration.strand_polls, 4);

    const StrandEpoch run = strand_a_switch(Deadline::after_polls(
        calibration.setup_polls + calibration.strand_polls / 2 + 1));
    ASSERT_TRUE(run.outcome.ok()) << run.outcome.status().to_string();
    EXPECT_EQ(run.outcome.value().status, "replace");
    EXPECT_TRUE(run.outcome.value().degraded);
    EXPECT_TRUE(run.verified);
    EXPECT_EQ(run.degraded, 1);
}

// ---- 200-event churn: verifier-clean and thread-count deterministic. -----

struct ChurnFingerprint {
    std::string trace;  // status per event + objective after each epoch
    int failures = 0;
};

ChurnFingerprint run_churn(int threads) {
    EngineOptions options;
    options.threads = threads;
    options.seed = 97;
    Engine engine(net::table3_topology(2));

    util::SplitMix64 rng(0xC0FFEE);
    std::ostringstream trace;
    ChurnFingerprint fp;
    std::vector<std::string> installed;
    std::size_t next_tenant = 0;
    // Track one open link failure at a time, mirroring the daemon's churn
    // generator.
    bool have_down = false;
    net::SwitchId down_a = 0;
    net::SwitchId down_b = 0;

    for (int event = 0; event < 200; ++event) {
        const std::uint64_t roll = rng() % 100;
        util::StatusOr<DeltaOutcome> outcome = util::Status::invalid("unset");
        if (roll < 45 || installed.empty()) {
            prog::Program p = prog::synthetic_program({}, 97, next_tenant);
            std::string name = "c" + std::to_string(next_tenant++);
            p.set_name(name);
            outcome = engine.add_program(std::move(p));
            if (outcome.ok()) installed.push_back(name);
        } else if (roll < 70) {
            const std::size_t pick =
                static_cast<std::size_t>(rng() % installed.size());
            outcome = engine.remove_program(installed[pick]);
            if (outcome.ok()) installed.erase(installed.begin() +
                                              static_cast<std::ptrdiff_t>(pick));
        } else if (roll < 80 && !have_down) {
            const auto& links = engine.network().links();
            const auto& link = links[rng() % links.size()];
            fault::FaultEvent e;
            e.kind = fault::FaultKind::kLinkDown;
            e.a = link.a;
            e.b = link.b;
            outcome = engine.apply_fault(e);
            if (outcome.ok()) {
                have_down = true;
                down_a = link.a;
                down_b = link.b;
            }
        } else if (have_down) {
            fault::FaultEvent e;
            e.kind = fault::FaultKind::kLinkUp;
            e.a = down_a;
            e.b = down_b;
            outcome = engine.apply_fault(e);
            if (outcome.ok()) have_down = false;
        } else {
            outcome = engine.retarget_traffic();
        }

        if (outcome.ok()) {
            trace << event << ':' << outcome.value().status << ':'
                  << engine.metrics().max_pair_metadata_bytes << ';';
            // Every successful epoch leaves a verifier-clean incumbent.
            if (engine.program_count() > 0) {
                const VerificationReport report = verify(
                    engine.merged(), engine.network(), engine.incumbent());
                EXPECT_TRUE(report.ok) << "event " << event;
            }
        } else {
            trace << event << ":!" << static_cast<int>(outcome.status().code())
                  << ';';
            ++fp.failures;
        }
    }
    fp.trace = trace.str();
    return fp;
}

TEST(EngineChurn, TwoHundredEventsVerifierCleanAndDeterministic) {
    const ChurnFingerprint one = run_churn(1);
    const ChurnFingerprint four = run_churn(4);
    // The whole trajectory — per-event rung and objective — must be
    // identical at any thread count.
    EXPECT_EQ(one.trace, four.trace);
    // The mix must actually exercise the ladder, not fail its way through.
    EXPECT_LT(one.failures, 60);
}

}  // namespace
}  // namespace hermes::core
