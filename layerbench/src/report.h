// What one benchmark run reports: its checks, its metrics, and (traced runs)
// the per-layer table.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace layerbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

// Operations attempted and failed, the metrics, and the final JSON line.
class Outcome {
public:
    void attempt(std::int64_t n = 1) { attempted_ += n; }
    // Counts `n` failed operations and prints why.
    void fail(const std::string& why, std::int64_t n = 1);
    void metric(std::string name, double value, std::string unit);

    // {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
    [[nodiscard]] std::string json_line() const;

private:
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
    std::vector<Metric> metrics_;
};

// Every per-layer metric a traced run prints, in print order. A workload
// reports 0 for the layers it does not exercise.
struct LayerMetricSpec {
    const char* name;
    const char* unit;
};
[[nodiscard]] const std::vector<LayerMetricSpec>& layer_metric_specs();

// Per-layer metric values of one traced run, defaulting to 0.
class LayerMetrics {
public:
    // Throws std::logic_error for a name outside layer_metric_specs().
    void set(const std::string& name, double value);
    void add_to(Outcome& outcome) const;

private:
    std::map<std::string, double> values_;
};

// One row of the per-layer table: time a layer spent on the workload's
// blocking path, or beside it (timed apart, left out of the sum).
struct LayerRow {
    std::string layer;
    double total_us = 0.0;
    std::string detail;
    bool beside = false;
};

struct Reconciliation {
    double layer_sum_us = 0.0;
    double unattributed_us = 0.0;    // untraced end-to-end minus the layer sum
    double unattributed_frac = 0.0;  // of the untraced end-to-end figure
    double overhead_us = 0.0;        // traced result minus untraced result
    double overhead_frac = 0.0;
    bool reconciled = false;         // |unattributed_frac| <= 5%
};

// Prints the table, the unattributed remainder and the tracing overhead.
// `e2e_us` is the untraced end-to-end figure the rows must add up to;
// `traced_us` and `untraced_us` are the same quantity with tracing on and
// off.
Reconciliation print_layer_table(std::ostream& os, const std::string& workload,
                                 const std::string& e2e_label, double e2e_us,
                                 const std::vector<LayerRow>& rows, double traced_us,
                                 double untraced_us);

}  // namespace layerbench
