// cold-deploy: one-shot, in-process placement of whole program sets.
//
// Greedy part: the paper's 50-program workload on each of the ten Table III
// WANs (the Exp#2/#3 shape). Exact part: micro_solver's pinned rows
// (paper_workload(11, 0x21), segment level, candidate cap 8) on WANs 1, 4, 7
// and 10. The seed perturbs the topology draw. Everything runs on one thread:
// at four threads the exact rows vary too much from run to run to compare.

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/hermes.h"
#include "core/verifier.h"
#include "milp/presolve.h"
#include "net/path_oracle.h"
#include "net/topozoo.h"
#include "obs/obs.h"
#include "prog/synthetic.h"
#include "stats.h"
#include "workloads.h"

namespace layerbench {

namespace {

using namespace hermes;

struct Instance {
    std::string name;
    std::vector<prog::Program> programs;
    net::Network network;
};

struct Inputs {
    std::vector<Instance> greedy;
    std::vector<Instance> exact;
};

Inputs make_inputs(std::uint64_t seed) {
    Inputs in;
    for (int id = 1; id <= net::kTopologyCount; ++id) {
        in.greedy.push_back({"greedy wan" + std::to_string(id),
                             prog::paper_workload(50, 0xbeef + static_cast<std::uint64_t>(id)),
                             net::table3_topology(id, seed)});
    }
    for (const int id : {1, 4, 7, 10}) {
        in.exact.push_back({"exact wan" + std::to_string(id), prog::paper_workload(11, 0x21),
                            net::table3_topology(id, seed)});
    }
    return in;
}

core::HermesOptions greedy_options(net::PathOracle* oracle, obs::Sink* sink) {
    core::HermesOptions h;
    h.threads = 1;
    h.oracle = oracle;
    h.sink = sink;
    return h;
}

core::HermesOptions exact_options(net::PathOracle* oracle, obs::Sink* sink) {
    core::HermesOptions h = greedy_options(oracle, sink);
    h.segment_level_milp = true;
    h.candidate_limit = 8;
    h.milp.threads = 1;
    h.milp.time_limit_seconds = 60.0;
    return h;
}

core::VerifyOptions verify_options(obs::Sink* sink) {
    core::VerifyOptions v;
    v.sink = sink;
    return v;
}

// One pass over every instance. A deployment's time and A_max are in
// instance order (greedy, exact).
struct Pass {
    double greedy_s = 0.0;
    double exact_s = 0.0;
    std::vector<double> instance_ms;
    std::vector<std::int64_t> amax;
};

Pass untraced_pass(const Inputs& in, const std::vector<std::int64_t>& exact_greedy_amax,
                   Outcome& outcome) {
    Pass pass;
    for (const Instance& inst : in.greedy) {
        outcome.attempt();
        const auto start = Clock::now();
        const tdg::Tdg t = core::analyze(inst.programs);
        net::PathOracle oracle(inst.network);
        const util::StatusOr<core::DeployOutcome> out =
            core::try_deploy_greedy(t, inst.network, greedy_options(&oracle, nullptr));
        const bool verified =
            out.ok() && core::verify(t, inst.network, out.value().deployment).ok;
        const double took_s = seconds_since(start);
        pass.greedy_s += took_s;
        pass.instance_ms.push_back(took_s * 1e3);
        if (!verified) {
            outcome.fail(inst.name + ": greedy deployment missing or not verified");
            continue;
        }
        pass.amax.push_back(out.value().metrics.max_pair_metadata_bytes);
    }
    for (std::size_t i = 0; i < in.exact.size(); ++i) {
        const Instance& inst = in.exact[i];
        outcome.attempt();
        const auto start = Clock::now();
        const tdg::Tdg t = core::analyze(inst.programs);
        net::PathOracle oracle(inst.network);
        const util::StatusOr<core::DeployOutcome> out =
            core::try_deploy_optimal(t, inst.network, exact_options(&oracle, nullptr));
        const bool verified =
            out.ok() && core::verify(t, inst.network, out.value().deployment).ok;
        const double took_s = seconds_since(start);
        pass.exact_s += took_s;
        pass.instance_ms.push_back(took_s * 1e3);
        if (!verified) {
            outcome.fail(inst.name + ": exact deployment missing or not verified");
            continue;
        }
        const core::DeployOutcome& o = out.value();
        if (!o.optimal) {
            outcome.fail(inst.name + ": ended " + o.solver_status + ", not optimal");
        } else if (o.metrics.max_pair_metadata_bytes > exact_greedy_amax[i]) {
            outcome.fail(inst.name + ": exact A_max " +
                         std::to_string(o.metrics.max_pair_metadata_bytes) +
                         " exceeds the greedy A_max " + std::to_string(exact_greedy_amax[i]));
        }
        pass.amax.push_back(o.metrics.max_pair_metadata_bytes);
    }
    return pass;
}

// Time per piece, per call, and the sink's counters, of one traced pass.
struct Pieces {
    std::vector<double> analyze, oracle, greedy, formulation, encode, presolve, solve,
        decode_evaluate, verify;
    net::PathOracle::Stats paths;
    std::map<std::string, std::int64_t> counters;

    // Everything on the path; presolve is timed beside it.
    [[nodiscard]] double total_us() const {
        return sum(analyze) + sum(oracle) + sum(greedy) + sum(formulation) + sum(encode) +
               sum(solve) + sum(decode_evaluate) + sum(verify);
    }
};

void add_stats(net::PathOracle::Stats& into, const net::PathOracle::Stats& s) {
    into.tree_hits += s.tree_hits;
    into.tree_misses += s.tree_misses;
    into.k_hits += s.k_hits;
    into.k_misses += s.k_misses;
}

// The same deployments composed from the public pieces try_deploy_optimal
// is made of, so formulation and solve time separate.
Pieces traced_pass(const Inputs& in, const Pass& untraced, Outcome& outcome) {
    obs::Sink sink;
    Pieces p;
    std::size_t index = 0;
    auto timed = [](std::vector<double>& into, auto&& fn) {
        const auto start = Clock::now();
        auto result = fn();
        into.push_back(us_since(start));
        return result;
    };
    auto check_amax = [&](const Instance& inst, std::int64_t amax) {
        if (index < untraced.amax.size() && amax != untraced.amax[index]) {
            outcome.fail(inst.name + ": traced A_max " + std::to_string(amax) +
                         " differs from the untraced " + std::to_string(untraced.amax[index]));
        }
        ++index;
    };

    for (const Instance& inst : in.greedy) {
        outcome.attempt();
        const tdg::Tdg t = timed(p.analyze, [&] { return core::analyze(inst.programs, &sink); });
        auto oracle = timed(p.oracle, [&] { return std::make_unique<net::PathOracle>(inst.network); });
        const auto out = timed(p.greedy, [&] {
            return core::try_deploy_greedy(t, inst.network, greedy_options(oracle.get(), &sink));
        });
        if (!out.ok()) throw std::runtime_error(inst.name + ": traced greedy failed");
        const bool ok = timed(p.verify, [&] {
            return core::verify(t, inst.network, out.value().deployment, verify_options(&sink)).ok;
        });
        if (!ok) outcome.fail(inst.name + ": traced greedy deployment not verified");
        add_stats(p.paths, oracle->stats());
        check_amax(inst, out.value().metrics.max_pair_metadata_bytes);
    }

    for (const Instance& inst : in.exact) {
        outcome.attempt();
        const tdg::Tdg t = timed(p.analyze, [&] { return core::analyze(inst.programs, &sink); });
        auto oracle = timed(p.oracle, [&] { return std::make_unique<net::PathOracle>(inst.network); });
        const core::HermesOptions h = exact_options(oracle.get(), &sink);

        // As try_deploy_optimal composes them.
        core::FormulationOptions fopts;
        static_cast<core::CommonOptions&>(fopts) = static_cast<const core::CommonOptions&>(h);
        fopts.epsilon1 = h.epsilon1;
        fopts.epsilon2 = h.epsilon2;
        fopts.k_paths = h.k_paths;
        fopts.candidate_limit = h.candidate_limit;
        fopts.segment_level = h.segment_level_milp;
        fopts.oracle = h.oracle;
        auto formulation = timed(p.formulation, [&] {
            return std::make_unique<core::P1Formulation>(t, inst.network, fopts);
        });
        const auto greedy = timed(p.greedy, [&] { return core::try_deploy_greedy(t, inst.network, h); });
        if (!greedy.ok()) throw std::runtime_error(inst.name + ": traced warm start failed");
        milp::MilpOptions milp_options = h.milp;
        milp_options.sink = &sink;
        milp_options.warm_start =
            timed(p.encode, [&] { return formulation->encode(greedy.value().deployment); });
        // Beside the path: solve_milp runs its own presolve.
        (void)timed(p.presolve, [&] { return milp::presolve(formulation->model()).infeasible; });
        const milp::MilpResult result =
            timed(p.solve, [&] { return milp::solve_milp(formulation->model(), milp_options); });
        if (!result.has_solution()) throw std::runtime_error(inst.name + ": traced MILP found no solution");
        const auto decoded = timed(p.decode_evaluate, [&] {
            core::Deployment d = formulation->decode(result.values);
            core::DeploymentMetrics m = core::evaluate(t, inst.network, d);
            return std::make_pair(std::move(d), m);
        });
        const bool ok = timed(p.verify, [&] {
            return core::verify(t, inst.network, decoded.first, verify_options(&sink)).ok;
        });
        if (!ok) outcome.fail(inst.name + ": traced exact deployment not verified");
        if (result.status != milp::MilpStatus::kOptimal) {
            outcome.fail(inst.name + ": traced MILP ended " + milp::to_string(result.status));
        }
        add_stats(p.paths, oracle->stats());
        check_amax(inst, decoded.second.max_pair_metadata_bytes);
    }
    for (const auto& c : sink.counters()) p.counters[c.name] = c.value;
    return p;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void run_cold_deploy(const RunArgs& args, Outcome& outcome) {
    // Building the inputs is the benchmark's set-up, a few milliseconds:
    // timed once here and fifty more times after the passes, median. With
    // eleven samples the median moved by a fifth to a half between runs.
    std::vector<double> setup_s;
    const auto set_up = [&] {
        const auto start = Clock::now();
        Inputs built = make_inputs(args.seed);
        setup_s.push_back(seconds_since(start));
        return built;
    };
    const Inputs in = set_up();

    // The greedy A_max each exact row must not exceed (untimed).
    std::vector<std::int64_t> exact_greedy_amax;
    for (const Instance& inst : in.exact) {
        const tdg::Tdg t = core::analyze(inst.programs);
        exact_greedy_amax.push_back(
            core::try_deploy_greedy(t, inst.network, greedy_options(nullptr, nullptr))
                .value()
                .metrics.max_pair_metadata_bytes);
    }

    auto report_pass = [](std::size_t n, const Pass& pass) {
        double amax = 0.0;
        for (const std::int64_t a : pass.amax) amax += static_cast<double>(a);
        amax /= static_cast<double>(std::max<std::size_t>(1, pass.amax.size()));
        std::cout << "pass " << n << ": greedy " << pass.greedy_s << " s, exact "
                  << pass.exact_s << " s, mean A_max " << amax << " bytes over "
                  << pass.amax.size() << " deployments\n";
        return amax;
    };

    if (!args.trace) {
        std::vector<double> greedy_s;
        std::vector<double> exact_s;
        std::vector<double> instance_ms;
        std::optional<std::vector<std::int64_t>> first_amax;
        const auto start = Clock::now();
        while (greedy_s.empty() || seconds_since(start) < args.seconds) {
            const Pass pass = untraced_pass(in, exact_greedy_amax, outcome);
            greedy_s.push_back(pass.greedy_s);
            exact_s.push_back(pass.exact_s);
            instance_ms.insert(instance_ms.end(), pass.instance_ms.begin(),
                               pass.instance_ms.end());
            report_pass(greedy_s.size(), pass);
            if (!first_amax.has_value()) {
                first_amax = pass.amax;
            } else if (pass.amax != *first_amax) {
                outcome.fail("A_max differs between passes of the same inputs");
            }
        }
        for (int i = 0; i < 50; ++i) (void)set_up();
        std::cout << "passes: " << greedy_s.size() << ", median greedy " << median(greedy_s)
                  << " s, median exact " << median(exact_s) << " s\n";
        std::cout << "deployments: n " << instance_ms.size() << ", p99 has "
                  << samples_beyond(instance_ms.size(), 99.0) << " samples beyond it\n";
        outcome.metric("p50_ms", percentile(instance_ms, 50.0), "ms");
        outcome.metric("p99_ms", percentile(instance_ms, 99.0), "ms");
        outcome.metric("setup_s", median(setup_s), "s");
        outcome.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
        return;
    }

    // Three pairs of an untraced and a traced pass. The table uses the pair
    // whose traced/untraced ratio is the median: the two passes of a pair
    // run back to back, so drift in the machine's speed cancels.
    std::vector<std::pair<double, Pieces>> pairs;  // untraced total, traced pass
    double amax_bytes = 0.0;
    for (int r = 0; r < 3; ++r) {
        const Pass untraced = untraced_pass(in, exact_greedy_amax, outcome);
        amax_bytes = report_pass(r + 1, untraced);
        pairs.emplace_back((untraced.greedy_s + untraced.exact_s) * 1e6,
                           traced_pass(in, untraced, outcome));
    }
    std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
        return a.second.total_us() / a.first < b.second.total_us() / b.first;
    });
    const double e2e_us = pairs[1].first;
    const Pieces& p = pairs[1].second;
    const auto count = [&](const char* name) {
        const auto it = p.counters.find(name);
        return it == p.counters.end() ? 0.0 : static_cast<double>(it->second);
    };

    LayerMetrics layers;
    layers.set("amax_bytes", amax_bytes);
    layers.set("verify_us", median(p.verify));
    layers.set("tdg.analyze_us", median(p.analyze));
    const auto tree = static_cast<double>(p.paths.tree_hits + p.paths.tree_misses);
    const auto k = static_cast<double>(p.paths.k_hits + p.paths.k_misses);
    layers.set("oracle.tree_hit_ratio", ratio(static_cast<double>(p.paths.tree_hits), tree));
    layers.set("oracle.tree_lookups", tree);
    layers.set("oracle.k_hit_ratio", ratio(static_cast<double>(p.paths.k_hits), k));
    layers.set("oracle.k_lookups", k);
    layers.set("greedy.deploy_us", median(p.greedy));
    layers.set("greedy.segments", count("greedy.segments"));
    layers.set("greedy.anchors_tried", count("greedy.anchors_tried"));
    layers.set("formulation.build_us", median(p.formulation));
    layers.set("formulation.variables", count("formulation.variables"));
    layers.set("formulation.constraints", count("formulation.constraints"));
    layers.set("milp.presolve_us", median(p.presolve));
    layers.set("milp.solve_us", median(p.solve));
    layers.set("bb.nodes", count("bb.nodes"));
    layers.set("lp.pivots", count("bb.lp_iterations"));
    layers.set("lp.pivots_per_node", ratio(count("bb.lp_iterations"), count("bb.nodes")));
    layers.set("lp.warm_hit_ratio", ratio(count("lp.warm_hits"), count("lp.warm_attempts")));
    layers.set("lp.warm_attempts", count("lp.warm_attempts"));
    layers.set("lp.refactorizations", count("lp.factor_refactorizations"));
    layers.set("cuts.added", count("cuts.cover") + count("cuts.clique"));

    auto n = [](const std::vector<double>& v) { return std::to_string(v.size()) + " calls"; };
    const std::vector<LayerRow> rows = {
        {"analyzer (tdg)", sum(p.analyze), n(p.analyze)},
        {"paths (net/path_oracle) build", sum(p.oracle),
         n(p.oracle) + "; lookups run inside greedy and formulation"},
        {"greedy (core/greedy)", sum(p.greedy), n(p.greedy) + " incl. exact warm starts"},
        {"formulation (core/formulation)", sum(p.formulation), n(p.formulation)},
        {"formulation encode (warm start)", sum(p.encode), n(p.encode)},
        {"solver (milp) solve_milp", sum(p.solve), n(p.solve)},
        {"decode + evaluate", sum(p.decode_evaluate), n(p.decode_evaluate)},
        {"verifier (core/verifier)", sum(p.verify), n(p.verify)},
        {"solver (milp) presolve", sum(p.presolve), n(p.presolve), true},
    };
    const Reconciliation r =
        print_layer_table(std::cout, args.workload, "greedy + exact deployments",
                          e2e_us, rows, p.total_us(), e2e_us);
    layers.set("report.unattributed_frac", r.unattributed_frac);
    layers.set("report.tracing_overhead_frac", r.overhead_frac);
    layers.add_to(outcome);
}

}  // namespace layerbench
