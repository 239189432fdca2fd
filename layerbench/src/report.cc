#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <ostream>
#include <stdexcept>

namespace layerbench {

namespace {

// Shortest decimal that reads back as the same double.
std::string number(double value) {
    if (!std::isfinite(value)) throw std::logic_error("metric value is not finite");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

}  // namespace

void Outcome::fail(const std::string& why, std::int64_t n) {
    failed_ += n;
    std::cout << "FAIL: " << why << "\n";
}

void Outcome::metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
}

std::string Outcome::json_line() const {
    std::string out = "{\"correct\": ";
    out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        if (i > 0) out += ", ";
        out += "\"" + metrics_[i].name + "\": {\"value\": " + number(metrics_[i].value) +
               ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

const std::vector<LayerMetricSpec>& layer_metric_specs() {
    static const std::vector<LayerMetricSpec> specs = {
        // placement quality, the paper's objective
        {"amax_bytes", "bytes"},
        // wire (tools/serve_main, core/serve)
        {"serve.outside_resolve_us", "us"},
        {"serve.parse_us", "us"},
        {"serve.spec_us", "us"},
        {"serve.format_us", "us"},
        {"serve.pipe_us", "us"},
        // ladder (core/engine, core/incremental)
        {"engine.rung.intact_us", "us"},
        {"engine.rung.intact_n", "count"},
        {"engine.rung.incremental_us", "us"},
        {"engine.rung.incremental_n", "count"},
        {"engine.rung.retarget_us", "us"},
        {"engine.rung.retarget_n", "count"},
        {"engine.rung.reroute_us", "us"},
        {"engine.rung.reroute_n", "count"},
        {"engine.rung.replace_us", "us"},
        {"engine.rung.replace_n", "count"},
        {"engine.rung.greedy_us", "us"},
        {"engine.rung.greedy_n", "count"},
        {"engine.resolve_us", "us"},
        {"engine.pre_resolve_us", "us"},
        {"engine.delta_fallback_ratio", "ratio"},
        {"engine.delta_fallback_base", "count"},
        {"engine.merge_hit_ratio", "ratio"},
        {"engine.merge_lookups", "count"},
        // journal (core/journal)
        {"journal.rotate_epoch_us", "us"},
        {"journal.rotate_epoch_n", "count"},
        {"journal.fsync_p50_us", "us"},
        {"journal.fsync_p99_us", "us"},
        {"journal.appends", "count"},
        {"journal.fsyncs", "count"},
        {"journal.rotates", "count"},
        {"recover.scan_us", "us"},
        {"recover.replayed_epochs", "count"},
        {"recover.total_us", "us"},
        // verifier (core/verifier)
        {"verify_us", "us"},
        // analyzer (tdg)
        {"tdg.analyze_us", "us"},
        // paths (net/path_oracle)
        {"oracle.tree_hit_ratio", "ratio"},
        {"oracle.tree_lookups", "count"},
        {"oracle.k_hit_ratio", "ratio"},
        {"oracle.k_lookups", "count"},
        // greedy (core/greedy)
        {"greedy.deploy_us", "us"},
        {"greedy.segments", "count"},
        {"greedy.anchors_tried", "count"},
        // formulation (core/formulation)
        {"formulation.build_us", "us"},
        {"formulation.variables", "count"},
        {"formulation.constraints", "count"},
        // solver (milp)
        {"milp.presolve_us", "us"},
        {"milp.solve_us", "us"},
        {"bb.nodes", "count"},
        {"lp.pivots", "count"},
        {"lp.pivots_per_node", "ratio"},
        {"lp.warm_hit_ratio", "ratio"},
        {"lp.warm_attempts", "count"},
        {"lp.refactorizations", "count"},
        {"cuts.added", "count"},
        // traffic engine (sim)
        {"sim.admit_us", "us"},
        {"sim.run_us", "us"},
        {"sim.events", "count"},
        {"sim.fastpath_rate", "ratio"},
        {"sim.parallel_run_us", "us"},
        {"sim.window_syncs", "count"},
        {"sim.events_per_window", "ratio"},
        {"sim.idle_frac", "ratio"},
        {"sim.parallel_speedup", "ratio"},
        // the per-layer report itself
        {"report.unattributed_frac", "ratio"},
        {"report.tracing_overhead_frac", "ratio"},
    };
    return specs;
}

void LayerMetrics::set(const std::string& name, double value) {
    for (const LayerMetricSpec& spec : layer_metric_specs()) {
        if (name == spec.name) {
            values_[name] = value;
            return;
        }
    }
    throw std::logic_error("unknown per-layer metric " + name);
}

void LayerMetrics::add_to(Outcome& outcome) const {
    for (const LayerMetricSpec& spec : layer_metric_specs()) {
        const auto it = values_.find(spec.name);
        outcome.metric(spec.name, it == values_.end() ? 0.0 : it->second, spec.unit);
    }
}

Reconciliation print_layer_table(std::ostream& os, const std::string& workload,
                                 const std::string& e2e_label, double e2e_us,
                                 const std::vector<LayerRow>& rows, double traced_us,
                                 double untraced_us) {
    Reconciliation r;
    for (const LayerRow& row : rows) {
        if (!row.beside) r.layer_sum_us += row.total_us;
    }
    r.unattributed_us = e2e_us - r.layer_sum_us;
    r.unattributed_frac = e2e_us > 0.0 ? r.unattributed_us / e2e_us : 0.0;
    r.overhead_us = traced_us - untraced_us;
    r.overhead_frac = untraced_us > 0.0 ? r.overhead_us / untraced_us : 0.0;
    r.reconciled = std::abs(r.unattributed_frac) <= 0.05;

    const auto flags = os.flags();
    os << "\n== per-layer report: " << workload << " ==\n";
    os << std::left << std::setw(34) << "layer" << std::right << std::setw(14) << "total ms"
       << std::setw(9) << "share" << "  detail\n";
    auto line = [&](const std::string& name, double us, const std::string& detail) {
        os << std::left << std::setw(34) << name << std::right << std::fixed
           << std::setprecision(3) << std::setw(14) << us / 1000.0 << std::setw(8)
           << std::setprecision(1) << (e2e_us > 0.0 ? 100.0 * us / e2e_us : 0.0) << "%"
           << "  " << detail << "\n";
    };
    for (const LayerRow& row : rows) {
        if (!row.beside) line(row.layer, row.total_us, row.detail);
    }
    line("unattributed", r.unattributed_us, "untraced end-to-end minus the layer sum");
    line("= " + e2e_label + " (untraced)", e2e_us, "");
    for (const LayerRow& row : rows) {
        if (row.beside) line(row.layer + " [beside]", row.total_us, row.detail + "; not in the sum");
    }
    os << std::setprecision(2) << "layer sum " << 100.0 * r.layer_sum_us / std::max(e2e_us, 1e-9)
       << "% of the untraced figure: " << (r.reconciled ? "reconciled" : "NOT reconciled")
       << " (bar: within 5%)\n";
    os << std::setprecision(3) << "tracing overhead: " << r.overhead_us / 1000.0
       << " ms (" << 100.0 * r.overhead_frac << "% of the untraced " << untraced_us / 1000.0
       << " ms)\n";
    os.flags(flags);
    return r;
}

}  // namespace layerbench
