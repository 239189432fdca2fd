// traffic-serial / traffic-parallel: the million-flow three-regime mix on the
// largest Table III WAN, timed around sim::Engine::run().

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "gen.h"
#include "net/path_oracle.h"
#include "net/topozoo.h"
#include "obs/obs.h"
#include "sim/engine.h"
#include "stats.h"
#include "workloads.h"

namespace layerbench {

namespace {

using namespace hermes;

// traffic-parallel's thread count, kept as an untimed check and a traced
// per-layer pass (README.md says why it is not a timed workload).
constexpr int kParallelThreads = 4;

int largest_topology_id() {
    int best = 1;
    for (int id = 2; id <= net::kTopologyCount; ++id) {
        if (net::table3_shape(id).nodes > net::table3_shape(best).nodes) best = id;
    }
    return best;
}

// FNV-1a over the bit patterns of the flow completion times, in flow order.
std::uint64_t fct_checksum(const std::vector<double>& fct) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const double v : fct) {
        unsigned char bytes[sizeof v];
        std::memcpy(bytes, &v, sizeof v);
        for (const unsigned char b : bytes) {
            h ^= b;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

std::string hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

// Checksums of the serial FCT vector recorded at commit 479ce0f, by
// workload seed (fct_checksums.txt).
std::optional<std::uint64_t> recorded_checksum(std::uint64_t seed) {
    std::ifstream in(LAYERBENCH_SOURCE_DIR "/fct_checksums.txt");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        std::uint64_t s = 0;
        std::string value;
        if (fields >> s >> value && s == seed) return std::stoull(value, nullptr, 16);
    }
    return std::nullopt;
}

struct Pass {
    double setup_s = 0.0;  // route interning + add_flow admission
    double run_s = 0.0;    // sim::Engine::run()
    std::vector<double> fct;
    sim::EngineStats stats;
};

Pass run_pass(const net::Network& network, const FlowPlan& plan, int threads,
              obs::Sink* sink) {
    Pass pass;
    sim::EngineConfig config;
    config.threads = threads;
    config.sink = sink;
    std::vector<sim::FlowId> ids;
    ids.reserve(plan.flows.size());

    const auto setup_start = Clock::now();
    auto engine = std::make_unique<sim::Engine>(config);
    {
        sim::PathInterner interner;
        net::PathOracle oracle(network);
        std::vector<sim::RouteId> shared;
        shared.reserve(plan.shared_routes.size());
        for (const auto& [a, b] : plan.shared_routes) {
            const std::optional<net::Path> path = oracle.path(a, b);
            if (!path.has_value()) throw std::runtime_error("traffic: disconnected route");
            shared.push_back(interner.add_path(*engine, network, *path));
        }
        const std::vector<sim::HopSpec> five_hops(5, sim::HopSpec{2.0, 1.0});
        std::vector<sim::RouteId> grouped;
        std::vector<sim::RouteId> privates;
        auto private_route = [&](std::vector<sim::RouteId>& routes, std::uint32_t index) {
            if (index == routes.size()) routes.push_back(engine->add_route(five_hops));
            return routes.at(index);
        };
        for (const PlannedFlow& f : plan.flows) {
            sim::RouteId route = 0;
            switch (f.regime) {
                case PlannedFlow::Regime::kShared: route = shared.at(f.route); break;
                case PlannedFlow::Regime::kGrouped: route = private_route(grouped, f.route); break;
                case PlannedFlow::Regime::kPrivate: route = private_route(privates, f.route); break;
            }
            sim::FlowSpec spec;
            spec.payload_bytes_total = f.payload_bytes;
            spec.overhead_bytes = f.overhead_bytes;
            ids.push_back(engine->add_flow(spec, route, f.start_us));
        }
    }
    pass.setup_s = seconds_since(setup_start);

    const auto run_start = Clock::now();
    engine->run();
    pass.run_s = seconds_since(run_start);

    pass.stats = engine->stats();
    pass.fct.reserve(ids.size());
    for (const sim::FlowId id : ids) pass.fct.push_back(engine->result(id).fct_us);
    return pass;
}

struct Inputs {
    net::Network network;
    FlowPlan plan;
};

// The topology is fixed; the seed draws the routes and the size patterns.
Inputs make_inputs(std::uint64_t seed) {
    net::Network network = net::table3_topology(largest_topology_id());
    FlowPlan plan = flow_plan(network.switch_count(), seed);
    return {std::move(network), std::move(plan)};
}

}  // namespace

void run_traffic(const RunArgs& args, Outcome& outcome) {
    const Inputs in = make_inputs(args.seed);
    const std::size_t flows = in.plan.flows.size();
    const std::optional<std::uint64_t> recorded = recorded_checksum(args.seed);
    std::cout << "traffic: " << flows << " flows on Table III WAN " << largest_topology_id()
              << " (" << in.network.switch_count() << " switches), recorded FCT checksum for seed "
              << args.seed << ": " << (recorded ? hex(*recorded) : "none") << "\n";

    // Every pass, serial or parallel, must reproduce the first serial pass's
    // FCT vector bit for bit, and its checksum must match the recorded one.
    std::vector<double> reference;
    auto check = [&](const Pass& pass, int threads) {
        outcome.attempt(static_cast<std::int64_t>(flows));
        const std::uint64_t sum = fct_checksum(pass.fct);
        if (reference.empty()) {
            reference = pass.fct;
        } else {
            std::int64_t differ = 0;
            for (std::size_t i = 0; i < flows; ++i) differ += pass.fct[i] != reference[i];
            if (differ > 0) {
                outcome.fail(std::to_string(differ) + " flow completion times at " +
                                 std::to_string(threads) + " threads differ from the serial run",
                             differ);
            }
        }
        if (recorded.has_value() && sum != *recorded) {
            outcome.fail("FCT checksum " + hex(sum) + " differs from the recorded " +
                             hex(*recorded),
                         static_cast<std::int64_t>(flows));
        }
        std::cout << "pass at " << threads << " thread(s): set-up " << pass.setup_s << " s, run "
                  << pass.run_s << " s, " << pass.stats.events << " events, "
                  << pass.stats.window_syncs << " windows, checksum " << hex(sum) << "\n";
    };

    if (!args.trace) {
        std::vector<double> setup_s;
        std::vector<double> run_ms;
        const auto start = Clock::now();
        // At least three passes, so set-up time is a median of three.
        while (setup_s.size() < 3 || seconds_since(start) < args.seconds) {
            const Pass pass = run_pass(in.network, in.plan, 1, nullptr);
            check(pass, 1);
            setup_s.push_back(pass.setup_s);
            run_ms.push_back(pass.run_s * 1e3);
        }
        // Untimed: the parallel engine must give the same FCTs.
        check(run_pass(in.network, in.plan, kParallelThreads, nullptr), kParallelThreads);
        const double p50_ms = percentile(run_ms, 50.0);
        std::cout << "run(): n " << run_ms.size() << ", p50 " << p50_ms << " ms = "
                  << static_cast<double>(flows) / (p50_ms / 1e3) << " flows/s\n";
        outcome.metric("p50_ms", p50_ms, "ms");
        outcome.metric("p99_ms", percentile(run_ms, 99.0), "ms");
        outcome.metric("setup_s", median(setup_s), "s");
        outcome.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
        return;
    }

    // A warm-up pass, then seven untraced and seven traced serial passes,
    // alternating so that drift in the machine's speed hits both alike. The
    // table adds up all seven of each; a pass is too short to compare alone.
    check(run_pass(in.network, in.plan, 1, nullptr), 1);
    const auto idle_us = [](const obs::Sink& s, const Pass& pass) {
        std::map<std::string, std::int64_t> counters;
        for (const auto& c : s.counters()) counters[c.name] = c.value;
        double total = 0.0;
        for (int k = 0; k < pass.stats.shards; ++k) {
            total += static_cast<double>(counters["sim.shard" + std::to_string(k) + ".idle_ns"]) / 1e3;
        }
        return total;
    };
    constexpr int kPairs = 7;
    double untraced_total_us = 0.0;
    double traced_total_us = 0.0;
    double traced_idle_us = 0.0;
    std::vector<double> untraced_run_us;
    std::vector<double> traced_run_us;
    std::vector<double> admit_us;
    sim::EngineStats traced_stats;
    // Each pass's results are dropped before the next pass starts, so both
    // kinds of pass run with the same heap.
    for (int r = 0; r < kPairs; ++r) {
        {
            const Pass untraced = run_pass(in.network, in.plan, 1, nullptr);
            check(untraced, 1);
            untraced_run_us.push_back(untraced.run_s * 1e6);
            untraced_total_us += untraced.run_s * 1e6;
        }
        obs::Sink sink;
        const Pass traced = run_pass(in.network, in.plan, 1, &sink);
        check(traced, 1);
        traced_run_us.push_back(traced.run_s * 1e6);
        traced_total_us += traced.run_s * 1e6;
        traced_idle_us += idle_us(sink, traced);
        admit_us.push_back(traced.setup_s * 1e6);
        traced_stats = traced.stats;
    }

    // The window and barrier layer does no work serially: an untraced
    // parallel pass times it, a traced one counts windows and idle time
    // (its per-window spans slow it down).
    const Pass parallel_untraced = run_pass(in.network, in.plan, kParallelThreads, nullptr);
    check(parallel_untraced, kParallelThreads);
    obs::Sink parallel_sink;
    const Pass parallel = run_pass(in.network, in.plan, kParallelThreads, &parallel_sink);
    check(parallel, kParallelThreads);
    const double parallel_run_us = parallel_untraced.run_s * 1e6;
    const double shards = std::max(1, parallel.stats.shards);
    const auto windows = static_cast<double>(parallel.stats.window_syncs);
    const double idle_frac = idle_us(parallel_sink, parallel) / (shards * parallel.run_s * 1e6);

    LayerMetrics layers;
    layers.set("sim.admit_us", median(admit_us));
    layers.set("sim.run_us", median(traced_run_us));
    layers.set("sim.events", static_cast<double>(traced_stats.events));
    layers.set("sim.fastpath_rate",
               static_cast<double>(traced_stats.fastpath_flows) / static_cast<double>(flows));
    layers.set("sim.parallel_run_us", parallel_run_us);
    layers.set("sim.window_syncs", windows);
    layers.set("sim.events_per_window",
               windows > 0 ? static_cast<double>(parallel.stats.events) / windows : 0.0);
    layers.set("sim.idle_frac", idle_frac);
    layers.set("sim.parallel_speedup", median(untraced_run_us) / parallel_run_us);

    const std::string passes = std::to_string(kPairs) + " passes";
    const std::vector<LayerRow> rows = {
        {"sim event loop (window busy)", traced_total_us - traced_idle_us,
         passes + " of " + std::to_string(traced_stats.events) + " events in one window"},
        {"sim outside the loop", traced_idle_us,
         "run() wall minus window time: fast-path admission, partitioning, lookahead"},
        {"sim admission (set-up)", sum(admit_us), passes + ": route interning + add_flow", true},
        {"sim run() at " + std::to_string(kParallelThreads) + " threads", parallel_run_us,
         "one pass, " + std::to_string(parallel.stats.window_syncs) + " windows; traced: " +
             std::to_string(parallel.run_s) + " s, idle fraction " + std::to_string(idle_frac),
         true},
    };
    const Reconciliation r =
        print_layer_table(std::cout, args.workload, "sim run() x " + passes, untraced_total_us,
                          rows, traced_total_us, untraced_total_us);
    layers.set("report.unattributed_frac", r.unattributed_frac);
    layers.set("report.tracing_overhead_frac", r.overhead_frac);
    layers.add_to(outcome);
}

int record_fct_checksums(std::uint64_t first, std::uint64_t last) {
    for (std::uint64_t seed = first; seed <= last; ++seed) {
        const Inputs in = make_inputs(seed);
        const Pass pass = run_pass(in.network, in.plan, 1, nullptr);
        std::cout << seed << " " << hex(fct_checksum(pass.fct)) << std::endl;
    }
    return 0;
}

}  // namespace layerbench
