// Order statistics for the benchmark's reports.
//
// Percentiles use the nearest-rank definition: the p-th percentile of n
// sorted samples is the sample at 1-based rank ceil(p/100 * n), and the
// samples "beyond" it are the n - rank samples ranked above it. A tail
// percentile is only reported when at least kMinBeyond samples lie beyond
// it, so that one outlier cannot set it.
#pragma once

#include <cstddef>
#include <vector>

namespace layerbench {

inline constexpr std::size_t kMinBeyond = 10;

// Nearest-rank percentile, p in (0, 100]. 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

// Samples ranked above the nearest-rank p-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

struct Tail {
    double p = 0.0;      // the percentile (0 when no ladder rung qualifies)
    double value = 0.0;  // the sample at that percentile
    std::size_t beyond = 0;
};

// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99, 99.999 that
// leaves at least kMinBeyond samples beyond it.
[[nodiscard]] Tail highest_supported_tail(const std::vector<double>& samples);

// Median of `samples` (mean of the two middle values for even n); 0 when
// empty. Used for per-run medians of repeated passes.
[[nodiscard]] double median(std::vector<double> samples);

[[nodiscard]] double sum(const std::vector<double>& samples);

}  // namespace layerbench
