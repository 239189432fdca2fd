// Microbenchmarks for the traffic engine: single-flow adapter throughput,
// arena/heap churn, and contended WAN runs. Has a custom main: after the
// google-benchmark suites it writes a BENCH_sim.json perf-trajectory
// summary — a million-flow run over the largest Table III WAN with
// events/sec, flows/sec and the fast-path hit rate (pass --sweep-only to
// skip the google-benchmark portion, --smoke for a short CI check that
// exits nonzero when two runs of one workload differ). Reads --seed and the
// obs exports --trace-out/--metrics-out from the common tool flags
// (bench_util.h); unknown flags other than --benchmark_* exit 2.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <optional>
#include <thread>

#include "bench_util.h"
#include "net/path_oracle.h"
#include "net/topozoo.h"
#include "sim/arena.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace {

using namespace hermes;

// The largest (by node count) of the ten Table III WANs.
int largest_topology_id() {
    int best = 1;
    for (int id = 2; id <= net::kTopologyCount; ++id) {
        if (net::table3_shape(id).nodes > net::table3_shape(best).nodes) best = id;
    }
    return best;
}

// A deterministic heavy-traffic workload on one WAN covering the engine's
// three delivery regimes: `shared` flows cycle over `routes` interned
// shortest paths staggered 1us apart (dense cross-route contention — the
// event loop's regime), `grouped` flows ride group-private 5-hop routes in
// paced trains whose head is spaced beyond any flow's occupancy (the
// time-serialized analytic admission's regime) with a 2us-spaced burst tail
// that genuinely contends, and `privates` flows each ride an exclusive
// route (the classic alone fast path). The fast-path hit rate of the mix is
// therefore a behavioral measurement — it moves when admission eligibility
// changes — not an echo of the class sizes.
struct Workload {
    net::Network net;
    int routes = 0;
    std::int64_t shared = 0;
    std::int64_t grouped = 0;
    std::int64_t privates = 0;
};

Workload make_workload(std::int64_t shared, std::int64_t grouped,
                       std::int64_t privates, int routes, std::uint64_t seed) {
    return Workload{net::table3_topology(largest_topology_id(), seed), routes,
                    shared, grouped, privates};
}

// Flows per group-private route: a paced head the serialized admission can
// prove disjoint, then a burst tail it must hand to the event loop.
constexpr std::int64_t kGroupFlows = 196;
constexpr std::int64_t kGroupHead = 156;

std::vector<double> run_workload(const Workload& w, sim::EngineStats* stats_out,
                                 obs::Sink* sink = nullptr) {
    sim::EngineConfig config;
    config.sink = sink;
    sim::Engine engine(config);
    sim::PathInterner interner;
    net::PathOracle oracle(w.net);
    util::SplitMix64 rng(0x51bad6e4);
    const auto n = static_cast<net::SwitchId>(w.net.switch_count());
    std::vector<sim::RouteId> routes;
    routes.reserve(static_cast<std::size_t>(w.routes));
    while (routes.size() < static_cast<std::size_t>(w.routes)) {
        const auto a = static_cast<net::SwitchId>(rng.uniform_int(0, n - 1));
        const auto b = static_cast<net::SwitchId>(rng.uniform_int(0, n - 1));
        if (a == b) continue;
        const auto path = oracle.path(a, b);
        if (!path) continue;  // Table III graphs are connected; defensive
        routes.push_back(interner.add_path(engine, w.net, *path));
    }
    std::vector<sim::FlowId> flows;
    flows.reserve(static_cast<std::size_t>(w.shared + w.privates));
    for (std::int64_t i = 0; i < w.shared; ++i) {
        sim::FlowSpec spec;
        spec.payload_bytes_total = 1460 * (1 + static_cast<int>(i % 61));
        spec.overhead_bytes = static_cast<int>(i % 96);
        const sim::RouteId route = routes[static_cast<std::size_t>(i) % routes.size()];
        flows.push_back(engine.add_flow(spec, route, static_cast<double>(i)));
    }
    sim::RouteId group_route = 0;
    for (std::int64_t i = 0; i < w.grouped; ++i) {
        const std::int64_t g = i / kGroupFlows;
        const std::int64_t j = i % kGroupFlows;
        if (j == 0) {
            group_route = engine.add_route(
                std::vector<sim::HopSpec>(5, sim::HopSpec{2.0, 1.0}));
        }
        sim::FlowSpec spec;
        spec.payload_bytes_total = 1460 * (1 + static_cast<int>(i % 61));
        // 12us pacing exceeds the largest flow's transmitter occupancy
        // (61 packets x 0.12us), so the head of each train serializes; the
        // 2us tail overlaps for all but the smallest payloads and falls back
        // to the event loop.
        const double start =
            static_cast<double>(g) * 37.0 +
            (j < kGroupHead
                 ? static_cast<double>(j) * 12.0
                 : static_cast<double>(kGroupHead) * 12.0 +
                       static_cast<double>(j - kGroupHead) * 2.0);
        flows.push_back(engine.add_flow(spec, group_route, start));
    }
    for (std::int64_t i = 0; i < w.privates; ++i) {
        sim::FlowSpec spec;
        spec.payload_bytes_total = 1460 * (1 + static_cast<int>(i % 13));
        const sim::RouteId route = engine.add_route(
            std::vector<sim::HopSpec>(5, sim::HopSpec{2.0, 1.0}));
        flows.push_back(engine.add_flow(spec, route, static_cast<double>(i)));
    }
    engine.run();
    if (stats_out != nullptr) *stats_out = engine.stats();
    std::vector<double> fct;
    fct.reserve(flows.size());
    for (const sim::FlowId id : flows) fct.push_back(engine.result(id).fct_us);
    return fct;
}

void BM_SingleFlowAdapter(benchmark::State& state) {
    sim::FlowSpec spec;
    spec.payload_bytes_total = 1460 * state.range(0);
    const std::vector<sim::HopSpec> hops(5, sim::HopSpec{0.5, 1.0});
    for (auto _ : state) {
        const sim::FlowResult r = sim::simulate_flow(hops, spec);
        benchmark::DoNotOptimize(r.fct_us);
    }
    state.counters["packets"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SingleFlowAdapter)->Arg(10)->Arg(1000)->Arg(100000);

void BM_ArenaChurn(benchmark::State& state) {
    sim::Arena<sim::BatchEvent> arena;
    for (auto _ : state) {
        std::uint32_t slots[64];
        for (auto& s : slots) s = arena.alloc();
        for (const auto s : slots) arena.free(s);
        benchmark::DoNotOptimize(slots[0]);
    }
}
BENCHMARK(BM_ArenaChurn);

void BM_ContendedWan(benchmark::State& state) {
    const auto flows = static_cast<std::int64_t>(state.range(0));
    const Workload w = make_workload(flows, 0, 0, 64, 0x7e23);
    sim::EngineStats stats;
    for (auto _ : state) {
        const auto fct = run_workload(w, &stats);
        benchmark::DoNotOptimize(fct.data());
    }
    state.counters["events"] = static_cast<double>(stats.events);
}
BENCHMARK(BM_ContendedWan)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

// The BENCH_sim.json trajectory: one million flows (850k contended over 512
// interned WAN routes + 100k in paced group trains + 50k on private
// fast-path routes) through one run.
int write_trajectory(const std::string& path, std::uint64_t seed) {
    std::vector<bench::BenchRecord> records;
    records.push_back({"machine_hardware_concurrency",
                       static_cast<double>(std::thread::hardware_concurrency()),
                       "threads"});
    const int topo = largest_topology_id();
    records.push_back({"wan_topology_id", static_cast<double>(topo), "id"});
    records.push_back(
        {"wan_nodes", static_cast<double>(net::table3_shape(topo).nodes), "nodes"});

    const Workload w = make_workload(850000, 100000, 50000, 512, seed);
    sim::EngineStats stats;
    const auto start = std::chrono::steady_clock::now();
    (void)run_workload(w, &stats);
    const double secs = seconds_since(start);
    std::cout << "flows1m: " << secs << " s, " << stats.events << " events\n";
    // The threads1 names keep the trajectory continuous with the records
    // taken when the engine also ran multi-threaded.
    records.push_back({"flows1m_threads1_seconds", secs, "s"});
    records.push_back({"flows1m_threads1_events_per_sec",
                       static_cast<double>(stats.events) / secs, "ev/s"});
    records.push_back({"flows1m_threads1_flows_per_sec",
                       static_cast<double>(stats.flows) / secs, "fl/s"});
    records.push_back({"flows1m_flows", static_cast<double>(stats.flows), "flows"});
    records.push_back({"flows1m_packets", static_cast<double>(stats.packets), "packets"});
    records.push_back({"flows1m_events", static_cast<double>(stats.events), "events"});
    records.push_back({"flows1m_fastpath_rate",
                       static_cast<double>(stats.fastpath_flows) /
                           static_cast<double>(stats.flows),
                       "ratio"});
    records.push_back({"flows1m_fastpath_serialized",
                       static_cast<double>(stats.fastpath_serialized), "flows"});

    bench::write_bench_json(path, "traffic_engine", records);
    std::cout << "wrote " << path << "\n";
    return 0;
}

// CI smoke: a 20k-flow run repeated and compared bit for bit, the second
// time through an obs::Sink so the CI job can jq-assert the sim.* counters;
// exits nonzero on divergence, a degenerate run or a failed export.
int run_smoke(const bench::ToolArgs& args) {
    int failures = 0;
    std::optional<obs::Sink> sink_storage;
    obs::Sink* sink = nullptr;
    if (!args.trace_out.empty() || !args.metrics_out.empty()) {
        sink = &sink_storage.emplace();
        sink->name_thread("main");
    }
    const Workload w =
        make_workload(16000, 2000, 2000, 128, args.seed.value_or(0x7e23));
    const std::vector<double> first = run_workload(w, nullptr);
    sim::EngineStats stats;
    const std::vector<double> second = run_workload(w, &stats, sink);
    std::cout << "smoke: " << stats.flows << " flows, " << stats.events
              << " events, " << stats.fastpath_flows << " fast-path ("
              << stats.fastpath_serialized << " serialized)\n";
    if (second != first) {
        std::cout << "FAIL: two runs of one workload gave different FCTs\n";
        ++failures;
    }
    if (stats.events <= 0 || stats.fastpath_flows <= 0) {
        std::cout << "FAIL: degenerate run (no events or no fast-path flows)\n";
        ++failures;
    }
    if (stats.fastpath_serialized <= 0) {
        std::cout << "FAIL: time-serialized admission never engaged — the "
                     "fast-path rate is an echo of the class sizes again\n";
        ++failures;
    }
    if (sink != nullptr) {
        sink->counter("sim.smoke_deterministic").add(second == first ? 1 : 0);
    }
    if (!bench::write_obs_exports(sink, args.trace_out, args.metrics_out)) ++failures;
    std::cout << (failures == 0 ? "smoke OK\n" : "smoke FAILED\n");
    return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const bench::ToolArgs args = bench::parse_tool_args(argc, argv, "BENCH_sim.json");
    if (args.smoke) return run_smoke(args);
    int pass_argc = static_cast<int>(args.passthrough.size());
    std::vector<char*> passthrough = args.passthrough;
    benchmark::Initialize(&pass_argc, passthrough.data());
    if (!args.sweep_only) benchmark::RunSpecifiedBenchmarks();
    return write_trajectory(args.json_path, args.seed.value_or(0x7e23));
}
