// hermes_cli — command-line front end for the Hermes framework.
//
//   hermes_cli compile <file.p4mini>
//       Compile a mini-P4 program and print its MATs and dependencies.
//
//   hermes_cli analyze --programs <spec> [--programs <spec> ...]
//       Merge the programs, run the metadata analyzer, print the TDG.
//
//   hermes_cli solve --programs <spec> --topology <spec>
//              [--strategy greedy|optimal|ms|sonata|speed|mtp|fp|p4all|ffl|ffls]
//              [--eps1 <us>] [--eps2 <switches>] [--time-limit <s>]
//              [--threads <n>] [--seed <n>] [--csv]
//              [--trace-out <file>] [--metrics-out <file>]
//              [--fault-script <file>|random:<events>[:seed]]
//              [--repair-deadline <s>] [--repair-milp]
//       Deploy and print placements, routes, and metrics. With
//       --fault-script, afterwards replay the failure script event by
//       event: inject the fault, climb the re-solve ladder that
//       hermes_serve's engine climbs too (core/repair.h), verify the
//       repaired deployment, and report per-event status plus traffic lost
//       before each repair.
//
//   hermes_cli replay ...
//       Same flags as solve, but --fault-script is required: the fault
//       replay is the point of the run.
//
//   hermes_cli serve ...
//       The hermes_serve daemon (same flags; see tools/hermes_serve.cpp).
//
//   The pre-subcommand spelling `hermes_cli deploy ...` keeps working for
//   one release as an alias of `solve`.
//
// Every option accepts both "--flag value" and "--flag=value". Unknown
// subcommands and options exit with status 2. Parse and I/O errors print one
// uniform "error: file:line:col: message" line and exit with status 1.
//
// --trace-out writes a Chrome trace_event JSON of the run (open it in
// chrome://tracing or https://ui.perfetto.dev); --metrics-out writes the
// flat counters/histograms JSON described in obs/export.h.
//
// Program specs:
//   real[:N]           the library's real programs (first N, default 10)
//   sketches           the ten sketch programs
//   synthetic:N[:seed] N synthetic programs
//   <path>.p4mini      a mini-P4 source file
//   <path>.prog        a textual program file
//
// Topology specs:
//   testbed[:switches[:stages]]   linear all-programmable testbed
//   table3:<id>                   Table III WAN topology (1..10)
//   random:<nodes>:<edges>[:seed] connected random WAN, 50% programmable
#include <iostream>
#include <map>
#include <optional>
#include <utility>

#include "baselines/common.h"
#include "cli_common.h"
#include "core/hermes.h"
#include "core/objective.h"
#include "core/repair.h"
#include "core/verifier.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "net/path_oracle.h"
#include "serve_main.h"
#include "sim/engine.h"
#include "sim/replay.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "p4/frontend.h"
#include "tdg/analyzer.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace hermes;

[[noreturn]] void usage(const std::string& message = "") {
    if (!message.empty()) std::cerr << "error: " << message << "\n\n";
    std::cerr <<
        R"(usage:
  hermes_cli compile <file.p4mini>
  hermes_cli analyze --programs <spec> [--programs <spec> ...]
  hermes_cli solve   --programs <spec> [--programs <spec> ...]
                     --topology <spec> [--strategy <name>] [--eps1 <us>]
                     [--eps2 <switches>] [--time-limit <seconds>]
                     [--threads <n>] [--seed <n>] [--csv]
                     [--trace-out <file>] [--metrics-out <file>]
                     [--fault-script <file>|random:<events>[:seed]]
                     [--repair-deadline <seconds>] [--repair-milp]
                     [--sim-flows <n>]
  hermes_cli replay  (solve flags; --fault-script required)
  hermes_cli serve   (hermes_serve flags; see tools/hermes_serve.cpp)

  `hermes_cli deploy ...` remains an alias of `solve` for one release.

program specs : real[:N] | sketches | synthetic:N[:seed] | *.p4mini | *.prog
topology specs: testbed[:switches[:stages]] | table3:<id> | random:<n>:<e>[:seed]
strategies    : greedy (default) | optimal | ms | sonata | speed | mtp | fp
                | p4all | ffl | ffls
--threads     : branch-and-bound workers of the exact solves (optimal and
                the ILP baselines; default 0 = all hardware threads)
--seed        : RNG seed handed to the solver options (default 1)
--trace-out   : write a Chrome trace_event JSON of the run
--metrics-out : write the run's counters and histograms as JSON
--fault-script: failure scenario — a script file (see src/fault/fault.h for
                the text format) or random:<events>[:seed] for a generated one
--repair-deadline: wall-clock budget per repair in seconds (0 = none); on
                expiry the repair serves its truncated greedy result, else
                the previous deployment if it still verifies
--repair-milp : let a repair escalate to a MILP re-solve when the greedy
                re-place fails to verify
--sim-flows   : after deploying, push this many concurrent flows through the
                deployment's route with the traffic engine and report
                FCT/goodput under contention (default 0 = off)
options also accept the --flag=value spelling
)";
    std::exit(2);
}

// Unwraps a StatusOr, printing the uniform one-line error and exiting on
// failure — every parse/IO problem reaches the user through this path.
template <typename T>
T unwrap(util::StatusOr<T> result) {
    if (!result.ok()) {
        std::cerr << "error: " << result.status().to_string() << "\n";
        std::exit(1);
    }
    return std::move(result).value();
}

// Spec parse failures are usage errors (exit 2), not runtime errors.
template <typename T>
T unwrap_spec(util::StatusOr<T> result) {
    if (!result.ok()) usage(result.status().message());
    return std::move(result).value();
}

void print_tdg(const tdg::Tdg& t) {
    util::Table nodes({"MAT", "match fields", "resource", "capacity"});
    for (tdg::NodeId v = 0; v < t.node_count(); ++v) {
        const tdg::Mat& m = t.node(v);
        std::string matches;
        for (const tdg::Field& f : m.match_fields()) {
            if (!matches.empty()) matches += ", ";
            matches += f.name;
        }
        nodes.add_row({m.name(), matches, util::Table::num(m.resource_units(), 2),
                       util::Table::num(m.rule_capacity())});
    }
    nodes.print(std::cout, "MATs (" + std::to_string(t.node_count()) + ")");
    std::cout << '\n';
    util::Table edges({"from", "to", "type", "A(a,b) bytes"});
    for (const tdg::Edge& e : t.edges()) {
        edges.add_row({t.node(e.from).name(), t.node(e.to).name(), tdg::to_string(e.type),
                       util::Table::num(std::int64_t{e.metadata_bytes})});
    }
    edges.print(std::cout, "dependencies (" + std::to_string(t.edge_count()) + ")");
}

int cmd_compile(const std::vector<std::string>& args) {
    if (args.size() != 1) usage("compile takes exactly one file");
    const prog::Program p = unwrap(p4::try_compile_file(args[0]));
    std::cout << "program " << p.name() << ": " << p.mat_count() << " tables\n\n";
    tdg::Tdg t = p.to_tdg();
    tdg::analyze(t);
    print_tdg(t);
    return 0;
}

struct Options {
    std::vector<prog::Program> programs;
    std::optional<net::Network> network;
    std::string strategy = "greedy";
    double eps1 = std::numeric_limits<double>::infinity();
    std::int64_t eps2 = std::numeric_limits<std::int64_t>::max();
    double time_limit = 30.0;
    int threads = 0;  // 0 = hardware concurrency
    std::uint64_t seed = 1;
    bool csv = false;
    cli::ExportOptions exports;
    std::string fault_script;  // empty = no fault replay
    double repair_deadline = 0.0;  // seconds; 0 = unbounded repairs
    bool repair_milp = false;
    std::int64_t sim_flows = 0;  // 0 = no traffic simulation
};

Options parse_options(const std::vector<std::string>& args, bool need_topology) {
    Options options;
    cli::FlagParser parser(args);
    auto value = [&]() -> std::string {
        util::StatusOr<std::string> v = parser.value();
        if (!v.ok()) usage(v.status().message());
        return std::move(v).value();
    };
    while (parser.next()) {
        const std::string& flag = parser.flag();
        if (flag == "--programs") {
            for (prog::Program& p : unwrap_spec(cli::parse_program_spec(value()))) {
                options.programs.push_back(std::move(p));
            }
        } else if (flag == "--topology") {
            options.network = unwrap_spec(cli::parse_topology_spec(value()));
        } else if (flag == "--strategy") {
            options.strategy = value();
        } else if (flag == "--eps1") {
            options.eps1 = util::parse_double(value());
        } else if (flag == "--eps2") {
            options.eps2 = util::parse_int(value());
        } else if (flag == "--time-limit") {
            options.time_limit = util::parse_double(value());
        } else if (flag == "--threads") {
            options.threads = static_cast<int>(util::parse_int(value()));
        } else if (flag == "--seed") {
            options.seed = static_cast<std::uint64_t>(util::parse_int(value()));
        } else if (flag == "--trace-out") {
            options.exports.trace_out = value();
        } else if (flag == "--metrics-out") {
            options.exports.metrics_out = value();
        } else if (flag == "--fault-script") {
            options.fault_script = value();
        } else if (flag == "--repair-deadline") {
            options.repair_deadline = util::parse_double(value());
        } else if (flag == "--sim-flows") {
            options.sim_flows = util::parse_int(value());
        } else if (flag == "--repair-milp") {
            if (parser.has_inline_value()) usage("--repair-milp takes no value");
            options.repair_milp = true;
        } else if (flag == "--csv") {
            if (parser.has_inline_value()) usage("--csv takes no value");
            options.csv = true;
        } else {
            usage("unknown option '" + flag + "'");
        }
    }
    if (options.programs.empty()) usage("--programs is required");
    if (need_topology && !options.network) usage("--topology is required");
    return options;
}

void write_exports_or_die(const obs::Sink& sink, const Options& options) {
    const util::Status status = cli::write_exports(sink, options.exports);
    if (!status.ok()) {
        std::cerr << "error: " << status.to_string() << "\n";
        std::exit(1);
    }
}

int cmd_analyze(const std::vector<std::string>& args) {
    const Options options = parse_options(args, /*need_topology=*/false);
    std::optional<obs::Sink> sink_storage;
    obs::Sink* const sink = cli::make_sink(options.exports, sink_storage);
    const tdg::Tdg t = core::analyze(options.programs, sink);
    std::cout << options.programs.size() << " programs -> merged TDG with "
              << t.node_count() << " MATs, " << t.edge_count() << " dependencies, "
              << t.total_metadata_bytes() << " total metadata bytes, "
              << util::Table::num(t.total_resource_units(), 2) << " resource units\n\n";
    print_tdg(t);
    if (sink != nullptr) write_exports_or_die(*sink, options);
    return 0;
}

// Replays a failure script against the live deployment: inject each event,
// climb the re-solve ladder, verify, and measure traffic lost in the window
// before the repair lands. Returns false when any repair or verification
// fails.
bool run_fault_replay(const Options& options, net::Network& network,
                      const tdg::Tdg& merged, core::Deployment deployment,
                      core::HermesOptions hermes_options, obs::Sink* sink) {
    std::vector<fault::FaultEvent> script;
    const auto parts = util::split(options.fault_script, ':');
    if (!parts.empty() && parts[0] == "random") {
        if (parts.size() < 2) usage("--fault-script random:<events>[:seed]");
        fault::ScriptConfig config;
        config.events = static_cast<int>(util::parse_int(parts[1]));
        const std::uint64_t seed =
            parts.size() > 2 ? static_cast<std::uint64_t>(util::parse_int(parts[2]))
                             : options.seed;
        script = fault::random_fault_script(network, seed, config);
    } else {
        script = unwrap(fault::load_fault_script(options.fault_script));
    }

    fault::Injector injector(network, hermes_options.oracle, sink);
    util::Table table({"t (us)", "event", "status", "moved", "rerouted",
                       "repair (ms)", "pkts lost"});
    bool ok = true;
    std::int64_t total_lost = 0;
    for (const fault::FaultEvent& e : script) {
        injector.apply(e);
        if (options.repair_deadline > 0.0) {
            hermes_options.deadline = core::Deadline::after(options.repair_deadline);
        }
        util::StatusOr<core::Redeployment> r =
            core::redeploy(merged, network, hermes_options, options.repair_milp,
                           &deployment, deployment.placements, /*retarget=*/false);
        std::string what = to_string(e.kind);
        what += ' ';
        what += std::to_string(e.a);
        if (e.is_link()) what += "-" + std::to_string(e.b);
        if (!r.ok()) {
            ok = false;
            table.add_row({util::Table::num(e.at_us, 1), what, "infeasible", "-", "-", "-",
                           "-"});
            continue;
        }
        const core::DeltaOutcome& outcome = r.value().outcome;
        const core::Deployment before =
            std::exchange(deployment, std::move(r.value().deployment));
        const core::VerificationReport report = core::verify(merged, network, deployment);
        if (!report.ok) {
            ok = false;
            for (const std::string& v : report.violations) std::cerr << "  ! " << v << "\n";
        }
        sim::ReplayConfig replay_config;
        replay_config.flow.payload_bytes_total = 1460 * 10;
        replay_config.sim.sink = sink;
        const std::int64_t lost =
            sim::replay_failure_window(merged, network, before, deployment, replay_config,
                                       hermes_options.oracle)
                .packets_lost_before_repair;
        total_lost += lost;
        table.add_row({util::Table::num(e.at_us, 1), what, outcome.status,
                       util::Table::num(outcome.moved_mats),
                       util::Table::num(outcome.rerouted_pairs),
                       util::Table::num(outcome.solve_seconds * 1e3, 2),
                       util::Table::num(lost)});
    }
    if (options.csv) {
        table.write_csv(std::cout);
    } else {
        table.print(std::cout, "fault replay (" + std::to_string(script.size()) +
                                   " events)");
    }
    std::cout << "\npackets lost before repair: " << total_lost << "\n"
              << "post-script overhead      : "
              << core::max_pair_metadata(merged, deployment) << " B\n"
              << "script survived           : " << (ok ? "yes" : "NO") << "\n";
    return ok;
}

// --sim-flows: concurrent traffic over the deployment's end-to-end route
// through the traffic engine (sim/engine.h). All flows share the route's
// links, so later launches queue behind earlier ones; the spread between the
// first and last FCT is the contention price. Engine counters (sim.*) land
// in --metrics-out through the shared sink.
void run_traffic_sim(const Options& options, const net::Network& network,
                     const tdg::Tdg& merged, const core::Deployment& deployment,
                     const core::DeploymentMetrics& metrics,
                     net::PathOracle& oracle, obs::Sink* sink) {
    const auto hops = sim::deployment_hops(merged, network, deployment, &oracle);
    sim::FlowSpec spec;
    spec.payload_bytes_total = 1 << 20;  // 1 MB message per flow
    spec.overhead_bytes = static_cast<int>(metrics.max_inflight_metadata_bytes);
    sim::EngineConfig config;
    config.sink = sink;
    sim::Engine engine(config);
    const sim::RouteId route = engine.add_route(hops);
    std::vector<sim::FlowId> flows;
    flows.reserve(static_cast<std::size_t>(options.sim_flows));
    for (std::int64_t i = 0; i < options.sim_flows; ++i) {
        flows.push_back(engine.add_flow(spec, route, static_cast<double>(i)));
    }
    engine.run();
    const sim::EngineStats& stats = engine.stats();
    std::cout << "traffic simulation  : " << stats.flows << " flows, "
              << stats.packets << " packets, " << stats.events << " events ("
              << stats.fastpath_flows << " fast-path)\n"
              << "  first flow FCT    : " << engine.result(flows.front()).fct_us
              << " us\n"
              << "  last flow FCT     : " << engine.result(flows.back()).fct_us
              << " us\n"
              << "  horizon           : " << stats.horizon_us << " us\n";
}

int cmd_solve(const std::vector<std::string>& args, bool require_fault_script) {
    Options options = parse_options(args, /*need_topology=*/true);
    if (require_fault_script && options.fault_script.empty()) {
        usage("replay requires --fault-script");
    }
    net::Network& network = *options.network;
    std::optional<obs::Sink> sink_storage;
    obs::Sink* const sink = cli::make_sink(options.exports, sink_storage);
    const tdg::Tdg merged = core::analyze(options.programs, sink);

    core::Deployment deployment;
    tdg::Tdg deployed_tdg = merged;
    double seconds = 0.0;
    std::string status;
    net::PathOracle oracle(network);
    // Shared by the greedy/optimal deploy and the fault replay's repairs.
    core::HermesOptions hermes_options;
    hermes_options.seed = options.seed;
    hermes_options.sink = sink;
    hermes_options.epsilon1 = options.eps1;
    hermes_options.epsilon2 = options.eps2;
    hermes_options.milp.time_limit_seconds = options.time_limit;
    hermes_options.milp.threads = options.threads;
    hermes_options.segment_level_milp = merged.node_count() > 40;
    hermes_options.oracle = &oracle;

    if (options.strategy == "greedy" || options.strategy == "optimal") {
        const core::DeployOutcome outcome = unwrap(
            options.strategy == "greedy"
                ? core::try_deploy_greedy(merged, network, hermes_options)
                : core::try_deploy_optimal(merged, network, hermes_options));
        deployment = outcome.deployment;
        seconds = outcome.solve_seconds;
        status = outcome.solver_status;
    } else {
        static const std::map<std::string, std::string> names{
            {"ms", "MS"},   {"sonata", "Sonata"}, {"speed", "SPEED"}, {"mtp", "MTP"},
            {"fp", "FP"},   {"p4all", "P4All"},   {"ffl", "FFL"},     {"ffls", "FFLS"}};
        const auto it = names.find(options.strategy);
        if (it == names.end()) usage("unknown strategy '" + options.strategy + "'");
        baselines::BaselineOptions baseline_options;
        baseline_options.seed = options.seed;
        baseline_options.sink = sink;
        baseline_options.epsilon1 = options.eps1;
        baseline_options.epsilon2 = options.eps2;
        baseline_options.milp.time_limit_seconds = options.time_limit;
        baseline_options.milp.threads = options.threads;
        for (const auto& strategy : baselines::all_strategies()) {
            if (strategy->name() != it->second) continue;
            baselines::StrategyOutcome outcome =
                strategy->deploy(options.programs, network, baseline_options);
            deployment = std::move(outcome.deployment);
            deployed_tdg = std::move(outcome.merged);
            seconds = outcome.solve_seconds;
            status = outcome.status;
        }
    }

    const core::DeploymentMetrics metrics =
        core::evaluate(deployed_tdg, network, deployment);
    core::VerifyOptions verify_options;
    verify_options.sink = sink;
    const core::VerificationReport report =
        core::verify(deployed_tdg, network, deployment, verify_options);

    util::Table placements({"MAT", "switch", "stage"});
    for (tdg::NodeId v = 0; v < deployed_tdg.node_count(); ++v) {
        placements.add_row({deployed_tdg.node(v).name(),
                            network.props(deployment.placements[v].sw).name,
                            util::Table::num(std::int64_t{deployment.placements[v].stage})});
    }
    if (options.csv) {
        placements.write_csv(std::cout);
    } else {
        placements.print(std::cout, "placements (" + options.strategy + ")");
    }
    std::cout << "\nper-packet overhead : " << metrics.max_pair_metadata_bytes << " B"
              << " (in-flight " << metrics.max_inflight_metadata_bytes << " B)\n"
              << "occupied switches   : " << metrics.occupied_switches << "\n"
              << "route latency       : " << metrics.route_latency_us << " us\n"
              << "solve time          : " << seconds * 1e3 << " ms (" << status << ")\n"
              << "verified            : " << (report.ok ? "yes" : "NO") << "\n";
    if (!report.ok) {
        for (const std::string& v : report.violations) std::cerr << "  ! " << v << "\n";
    }
    if (options.sim_flows > 0 && report.ok) {
        run_traffic_sim(options, network, deployed_tdg, deployment, metrics,
                        oracle, sink);
    }
    bool survived = true;
    if (!options.fault_script.empty()) {
        std::cout << "\n";
        survived = run_fault_replay(options, network, deployed_tdg, deployment,
                                    hermes_options, sink);
    }
    if (sink != nullptr) write_exports_or_die(*sink, options);
    return report.ok && survived ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) usage();
    const std::string command = args.front();
    args.erase(args.begin());
    try {
        if (command == "compile") return cmd_compile(args);
        if (command == "analyze") return cmd_analyze(args);
        if (command == "solve") return cmd_solve(args, /*require_fault_script=*/false);
        if (command == "replay") return cmd_solve(args, /*require_fault_script=*/true);
        if (command == "serve") return cli::run_serve(args);
        // One-release legacy alias from before the subcommand split.
        if (command == "deploy") return cmd_solve(args, /*require_fault_script=*/false);
        usage("unknown command '" + command + "'");
    } catch (const std::exception& ex) {
        std::cerr << "error: " << ex.what() << "\n";
        return 1;
    }
}
