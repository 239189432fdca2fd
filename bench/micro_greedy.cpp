// Microbenchmarks for Algorithm 2's splitting pipeline.
//
// Google-benchmark suites compare the indexed splitter against the retained
// seed implementation (core/greedy_reference.h). The custom main then runs
// timed end-to-end sweeps over TDG size x topology size — the 3-switch
// testbed, a k=4 fat-tree, and Topology-Zoo scale (Table III topology 10) —
// and writes the before/after trajectory to BENCH_greedy.json (pass
// --sweep-only to skip the google-benchmark portion, --json=PATH to redirect
// the output). The sweep exits 1, naming the first difference, unless the
// two pipelines return the same anchor, segments, placements (switch and
// stage per MAT) and routes. Accepts the common tool flags
// --threads/--seed/--time-limit (--threads is ignored: the greedy is
// serial) and the obs exports --trace-out/--metrics-out (see
// bench_util.h); unknown flags other than --benchmark_* exit 2.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

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

// The first way two greedy results differ, or "" when they agree on the
// anchor, every segment, every MAT's switch and stage, and every route's
// switches (greedy_equivalence_test's same_deployment, spelled out).
std::string first_difference(const core::GreedyResult& seed,
                             const core::GreedyResult& indexed) {
    std::ostringstream out;
    if (seed.anchor != indexed.anchor) {
        out << "anchor " << seed.anchor << " vs " << indexed.anchor;
        return out.str();
    }
    if (seed.segments.size() != indexed.segments.size()) {
        out << "segment count " << seed.segments.size() << " vs "
            << indexed.segments.size();
        return out.str();
    }
    for (std::size_t i = 0; i < seed.segments.size(); ++i) {
        if (seed.segments[i] != indexed.segments[i]) {
            out << "segment " << i;
            return out.str();
        }
    }
    const auto& a = seed.deployment.placements;
    const auto& b = indexed.deployment.placements;
    if (a.size() != b.size()) {
        out << "placement count " << a.size() << " vs " << b.size();
        return out.str();
    }
    for (std::size_t v = 0; v < a.size(); ++v) {
        if (a[v].sw != b[v].sw || a[v].stage != b[v].stage) {
            out << "MAT " << v << " at switch " << a[v].sw << " stage " << a[v].stage
                << " vs switch " << b[v].sw << " stage " << b[v].stage;
            return out.str();
        }
    }
    const auto& ra = seed.deployment.routes;
    const auto& rb = indexed.deployment.routes;
    if (ra.size() != rb.size()) {
        out << "route count " << ra.size() << " vs " << rb.size();
        return out.str();
    }
    for (const auto& [pair, path] : ra) {
        const auto it = rb.find(pair);
        if (it == rb.end() || it->second.switches != path.switches) {
            out << "route " << pair.first << "->" << pair.second;
            return out.str();
        }
    }
    return "";
}

struct SweepInstance {
    std::string name;
    net::Network network;
    int programs;
};

// End-to-end greedy_deploy, seed pipeline vs indexed + oracle, per
// instance. Results must agree: the equivalence suite enforces it, and the
// sweep checks its own instances whole. The indexed runs record through
// `sink` (null = off), so --metrics-out captures the greedy.* and oracle.*
// counters of the sweep.
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

        if (const std::string diff = first_difference(before, after); !diff.empty()) {
            std::cerr << "MISMATCH on " << inst.name << ": " << diff
                      << " (seed vs indexed)\n";
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
