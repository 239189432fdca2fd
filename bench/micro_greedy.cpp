// Microbenchmarks for Algorithm 2's splitting pipeline.
//
// Google-benchmark suites compare the indexed splitter against the retained
// seed implementation (core/greedy_reference.h). The custom main then runs
// timed end-to-end sweeps over TDG size x topology size — the 3-switch
// testbed, a k=4 fat-tree, and Topology-Zoo scale (Table III topology 10) —
// and writes the before/after trajectory to BENCH_greedy.json (pass
// --sweep-only to skip the google-benchmark portion, --json=PATH to redirect
// the output). The sweep exits 1 when the two pipelines pick different
// anchors. Accepts the common tool flags --threads/--seed/--time-limit
// (--threads is ignored: the greedy is serial) and the obs exports
// --trace-out/--metrics-out (see bench_util.h); unknown flags other than
// --benchmark_* exit 2.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <optional>

#include "bench_util.h"
#include "core/greedy.h"
#include "core/greedy_reference.h"
#include "net/builders.h"
#include "net/path_oracle.h"
#include "net/topozoo.h"
#include "prog/synthetic.h"
#include "sim/testbed.h"
#include "tdg/analyzer.h"
#include "util/rng.h"

namespace {

using namespace hermes;

tdg::Tdg workload_tdg(int programs, std::uint64_t seed) {
    std::vector<tdg::Tdg> tdgs;
    for (const auto& p : prog::paper_workload(programs, seed)) {
        tdgs.push_back(p.to_tdg());
    }
    return tdg::analyze_programs(std::move(tdgs));
}

std::vector<tdg::NodeId> all_nodes(const tdg::Tdg& t) {
    std::vector<tdg::NodeId> nodes(t.node_count());
    for (tdg::NodeId v = 0; v < t.node_count(); ++v) nodes[v] = v;
    return nodes;
}

void BM_SplitTdgIndexed(benchmark::State& state) {
    const tdg::Tdg t = workload_tdg(static_cast<int>(state.range(0)), 0xbeef);
    for (auto _ : state) {
        const auto segments = core::split_tdg(t, all_nodes(t), 12, 4.0);
        benchmark::DoNotOptimize(segments);
    }
    state.counters["mats"] = static_cast<double>(t.node_count());
}
BENCHMARK(BM_SplitTdgIndexed)->Arg(10)->Arg(30)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_SplitTdgReference(benchmark::State& state) {
    const tdg::Tdg t = workload_tdg(static_cast<int>(state.range(0)), 0xbeef);
    for (auto _ : state) {
        const auto segments = core::reference::split_tdg(t, all_nodes(t), 12, 4.0);
        benchmark::DoNotOptimize(segments);
    }
    state.counters["mats"] = static_cast<double>(t.node_count());
}
BENCHMARK(BM_SplitTdgReference)->Arg(10)->Arg(30)->Arg(50)->Unit(benchmark::kMillisecond);

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

struct SweepInstance {
    std::string name;
    net::Network network;
    int programs;
};

// End-to-end greedy_deploy, seed pipeline vs indexed + oracle, per
// instance. Results must agree (the equivalence suite enforces it; here
// we cross-check the anchor as a cheap canary). The indexed runs record
// through `sink` (null = off), so --metrics-out captures the greedy.* and
// oracle.* counters of the sweep.
void run_sweeps(const bench::ToolArgs& args) {
    std::vector<bench::BenchRecord> records;

    std::optional<obs::Sink> sink_storage;
    obs::Sink* sink = nullptr;
    if (!args.trace_out.empty() || !args.metrics_out.empty()) {
        sink = &sink_storage.emplace();
        sink->name_thread("main");
    }
    const std::uint64_t workload_seed = args.seed.value_or(0xbeef);

    util::SplitMix64 rng(0x9e1);
    net::TopologyConfig tconfig;
    std::vector<SweepInstance> instances;
    instances.push_back({"testbed", sim::make_testbed({}), 8});
    instances.push_back({"fat_tree_k4", net::fat_tree_topology(4, tconfig, rng), 20});
    instances.push_back({"zoo_t10", net::table3_topology(10), 50});

    double largest_speedup = 0.0;
    for (const SweepInstance& inst : instances) {
        const tdg::Tdg t = workload_tdg(inst.programs, workload_seed);

        const auto before_start = std::chrono::steady_clock::now();
        const core::GreedyResult before = core::reference::greedy_deploy(t, inst.network);
        const double before_secs = seconds_since(before_start);

        net::PathOracle oracle(inst.network);
        core::GreedyOptions options;
        options.sink = sink;
        const auto after_start = std::chrono::steady_clock::now();
        const core::GreedyResult after = core::greedy_deploy(t, inst.network, options,
                                                             &oracle);
        const double after_secs = seconds_since(after_start);

        if (after.anchor != before.anchor) {
            std::cerr << "MISMATCH on " << inst.name << ": anchors differ\n";
            std::exit(1);
        }
        const double speedup = before_secs / after_secs;
        largest_speedup = speedup;  // instances are ordered smallest to largest
        records.push_back({inst.name + "_mats", static_cast<double>(t.node_count()),
                           "mats"});
        records.push_back({inst.name + "_switches",
                           static_cast<double>(inst.network.switch_count()), "switches"});
        records.push_back({inst.name + "_seed_seconds", before_secs, "s"});
        records.push_back({inst.name + "_indexed_seconds", after_secs, "s"});
        records.push_back({inst.name + "_speedup", speedup, "x"});
        std::cout << inst.name << ": " << t.node_count() << " MATs on "
                  << inst.network.switch_count() << " switches — seed " << before_secs
                  << " s, indexed+oracle " << after_secs << " s (" << speedup
                  << "x)\n";
    }
    records.push_back({"largest_instance_speedup", largest_speedup, "x"});

    bench::write_bench_json(args.json_path, "greedy_pipeline", records);
    std::cout << "wrote " << args.json_path << "\n";
    if (!bench::write_obs_exports(sink, args.trace_out, args.metrics_out)) {
        std::exit(1);
    }
}

}  // namespace

int main(int argc, char** argv) {
    const bench::ToolArgs args =
        bench::parse_tool_args(argc, argv, "BENCH_greedy.json");
    int pass_argc = static_cast<int>(args.passthrough.size());
    std::vector<char*> passthrough = args.passthrough;
    benchmark::Initialize(&pass_argc, passthrough.data());
    if (!args.sweep_only) benchmark::RunSpecifiedBenchmarks();
    run_sweeps(args);
    return 0;
}
