// The workloads. Each sizes its work from the requested seconds (repeating
// passes or sub-scripts until they have passed; a traced serve-churn run
// plays one sub-script per started 6 s), checks the program's outputs, and
// records end-to-end metrics (untraced runs) or per-layer metrics and the
// per-layer table (traced runs).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "report.h"

namespace layerbench {

struct RunArgs {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string serve_bin;  // hermes_serve executable (serve-churn)
    std::string work_dir;   // where journals go, inside the checkout
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline double us_since(Clock::time_point start) {
    return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

// Peak resident set of this process so far, MiB.
[[nodiscard]] double self_peak_rss_mb();

void run_serve_churn(const RunArgs& args, Outcome& outcome);
void run_cold_deploy(const RunArgs& args, Outcome& outcome);
void run_traffic(const RunArgs& args, Outcome& outcome);

// Runs the serial traffic workload once per seed in [first, last] and prints
// "<seed> <fct checksum>" lines for fct_checksums.txt.
int record_fct_checksums(std::uint64_t first, std::uint64_t last);

}  // namespace layerbench
