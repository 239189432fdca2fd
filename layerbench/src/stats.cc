#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace layerbench {

namespace {

// 1-based nearest rank of the p-th percentile among n samples, in [1, n].
std::size_t nearest_rank(std::size_t n, double p) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) return 0.0;
    const std::size_t rank = nearest_rank(samples.size(), p);
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
    if (n == 0) return 0;
    return n - nearest_rank(n, p);
}

Tail highest_supported_tail(const std::vector<double>& samples) {
    Tail tail;
    for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999}) {
        const std::size_t beyond = samples_beyond(samples.size(), p);
        if (beyond < kMinBeyond) break;
        tail.p = p;
        tail.beyond = beyond;
    }
    if (tail.p > 0.0) tail.value = percentile(samples, tail.p);
    return tail;
}

double median(std::vector<double> samples) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double sum(const std::vector<double>& samples) {
    return std::accumulate(samples.begin(), samples.end(), 0.0);
}

}  // namespace layerbench
