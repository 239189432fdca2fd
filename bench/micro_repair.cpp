// Microbenchmarks for the self-healing repair path: damage classification,
// the reroute and re-placement rungs of the re-solve ladder
// (core::redeploy), and the PathOracle's selective invalidation against a
// cold rebuild after a fault.
//
// Standard google-benchmark main; run with --benchmark_filter=... to focus.
#include <benchmark/benchmark.h>

#include "core/hermes.h"
#include "core/repair.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "net/path_oracle.h"
#include "net/topozoo.h"
#include "prog/synthetic.h"
#include "sim/testbed.h"

namespace {

using namespace hermes;

struct Instance {
    net::Network net;
    tdg::Tdg merged;
    core::Deployment deployment;
};

Instance wan_instance(int topology, int programs) {
    Instance inst{net::table3_topology(topology),
                  core::analyze(prog::paper_workload(programs, 11)),
                  {}};
    // Cap per-switch stages so the deployment spreads over several switches
    // and records inter-switch routes (otherwise one WAN switch swallows the
    // whole workload and there is nothing to reroute).
    for (net::SwitchId u = 0; u < inst.net.switch_count(); ++u) {
        inst.net.props(u).stages = 4;
    }
    inst.net.bump_epoch();
    inst.deployment = core::try_deploy_greedy(inst.merged, inst.net).value().deployment;
    return inst;
}

// One climb of the re-solve ladder with every placement carried over.
util::StatusOr<core::Redeployment> heal(const Instance& inst,
                                        const core::HermesOptions& options) {
    return core::redeploy(inst.merged, inst.net, options, /*allow_milp=*/false,
                          &inst.deployment, inst.deployment.placements,
                          /*retarget=*/false);
}

void BM_ClassifyDamage(benchmark::State& state) {
    Instance inst = wan_instance(static_cast<int>(state.range(0)), 8);
    const net::SwitchId victim = inst.deployment.occupied_switches().front();
    inst.net.fail_switch(victim);
    for (auto _ : state) {
        const auto damage =
            core::classify_damage(inst.merged, inst.net, inst.deployment);
        benchmark::DoNotOptimize(damage);
    }
    state.counters["mats"] = static_cast<double>(inst.merged.node_count());
}
BENCHMARK(BM_ClassifyDamage)->Arg(3)->Arg(10)->Unit(benchmark::kMicrosecond);

// Reroute rung: a link on a recorded route dies, both endpoints survive,
// and the ladder just re-wires the dead pairs.
void BM_RepairReroute(benchmark::State& state) {
    Instance inst = wan_instance(static_cast<int>(state.range(0)), 8);
    net::PathOracle oracle(inst.net);
    core::HermesOptions options;
    options.oracle = &oracle;
    // Find a failable route edge whose loss keeps the repair reroute-only.
    fault::Injector injector(inst.net, &oracle);
    net::SwitchId a = 0, b = 0;
    for (const auto& [pair, route] : inst.deployment.routes) {
        if (route.switches.size() < 2) continue;
        a = route.switches[0];
        b = route.switches[1];
        break;
    }
    if (a == b) {
        state.SkipWithError("no multi-hop route in the instance");
        return;
    }
    for (auto _ : state) {
        state.PauseTiming();
        injector.apply({0.0, fault::FaultKind::kLinkDown, a, b});
        state.ResumeTiming();
        const auto r = heal(inst, options);
        benchmark::DoNotOptimize(r);
        state.PauseTiming();
        injector.apply({0.0, fault::FaultKind::kLinkUp, a, b});
        state.ResumeTiming();
    }
}
BENCHMARK(BM_RepairReroute)->Arg(3)->Arg(10)->Unit(benchmark::kMicrosecond);

// Full re-placement rung: the anchor switch dies and every stranded MAT
// moves to a survivor.
void BM_RepairReplace(benchmark::State& state) {
    Instance inst = wan_instance(static_cast<int>(state.range(0)), 8);
    net::PathOracle oracle(inst.net);
    fault::Injector injector(inst.net, &oracle);
    core::HermesOptions options;
    options.oracle = &oracle;
    const net::SwitchId victim = inst.deployment.occupied_switches().front();
    for (auto _ : state) {
        state.PauseTiming();
        injector.apply({0.0, fault::FaultKind::kSwitchDown, victim, 0});
        state.ResumeTiming();
        const auto r = heal(inst, options);
        benchmark::DoNotOptimize(r);
        state.PauseTiming();
        injector.apply({0.0, fault::FaultKind::kSwitchUp, victim, 0});
        state.ResumeTiming();
    }
}
BENCHMARK(BM_RepairReplace)->Arg(3)->Arg(10)->Unit(benchmark::kMillisecond);

// Selective invalidation: cost of one link fail/recover round trip through
// the oracle's eviction path with all trees warm, vs rebuilding from cold.
void BM_OracleSelectiveInvalidation(benchmark::State& state) {
    net::Network n = net::table3_topology(static_cast<int>(state.range(0)));
    net::PathOracle oracle(n);
    for (net::SwitchId s = 0; s < n.switch_count(); ++s) (void)oracle.latencies(s);
    const net::Link link = n.links().front();
    for (auto _ : state) {
        n.fail_link(link.a, link.b);
        oracle.on_link_down(link.a, link.b);
        benchmark::DoNotOptimize(oracle.path_latency(link.a, link.b));
        n.recover_link(link.a, link.b);
        oracle.on_link_up(link.a, link.b);
        benchmark::DoNotOptimize(oracle.path_latency(link.a, link.b));
    }
    state.counters["switches"] = static_cast<double>(n.switch_count());
}
BENCHMARK(BM_OracleSelectiveInvalidation)->Arg(3)->Arg(10)->Unit(benchmark::kMicrosecond);

void BM_OracleColdRebuild(benchmark::State& state) {
    net::Network n = net::table3_topology(static_cast<int>(state.range(0)));
    const net::Link link = n.links().front();
    for (auto _ : state) {
        n.fail_link(link.a, link.b);
        net::PathOracle oracle(n);
        for (net::SwitchId s = 0; s < n.switch_count(); ++s) (void)oracle.latencies(s);
        benchmark::DoNotOptimize(oracle.path_latency(link.a, link.b));
        n.recover_link(link.a, link.b);
    }
    state.counters["switches"] = static_cast<double>(n.switch_count());
}
BENCHMARK(BM_OracleColdRebuild)->Arg(3)->Arg(10)->Unit(benchmark::kMicrosecond);

void BM_RandomScriptGeneration(benchmark::State& state) {
    const net::Network n = net::table3_topology(10);
    fault::ScriptConfig config;
    config.events = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const auto script = fault::random_fault_script(n, 7, config);
        benchmark::DoNotOptimize(script);
    }
}
BENCHMARK(BM_RandomScriptGeneration)->Arg(10)->Arg(100)->Unit(benchmark::kMicrosecond);

}  // namespace
