// Shared solver-facing knobs.
//
// Every options struct in the optimization pipeline (milp::MilpOptions,
// milp::LpOptions, core::GreedyOptions, core::HermesOptions,
// core::FormulationOptions, core::VerifyOptions, core::EngineOptions,
// baselines::BaselineOptions) embeds CommonOptions as a base, so threads /
// seed / limits and the observability sink are spelled identically
// everywhere and injected per call instead of through globals. Because the
// fields are inherited, the historical spellings (`options.threads`,
// `options.time_limit_seconds`) keep compiling unchanged. The one-release
// [[deprecated]] aliases that bridged the rename
// (HermesOptions::greedy_threads, the LpOptions max_iterations/max_seconds
// spellings) have been removed; use the CommonOptions fields directly.
#pragma once

#include <cstdint>
#include <limits>
#include <thread>

#include "core/deadline.h"

namespace hermes::obs {
class Sink;
}  // namespace hermes::obs

namespace hermes::core {

struct CommonOptions {
    // Worker threads; 0 = hardware concurrency. Only the MILP branch and
    // bound (milp::MilpOptions) runs in parallel; every other stage is
    // serial and ignores it.
    int threads = 1;
    // RNG seed for any randomized choice a stage makes (all current solver
    // paths are deterministic; synthetic workload generators honor it).
    std::uint64_t seed = 1;
    // Wall-clock budget in seconds; derived structs tighten the default.
    double time_limit_seconds = 1e18;
    // Cap on the stage's dominant unit of work (simplex pivots for LP/MILP).
    std::int64_t iteration_limit = std::numeric_limits<std::int64_t>::max();
    // Observability sink (obs/obs.h). Null disables all instrumentation at
    // near-zero cost; non-null makes every pipeline stage record trace spans
    // and metrics into it.
    obs::Sink* sink = nullptr;
    // Cooperative cancellation token (core/deadline.h). Inactive by default;
    // an active token is polled by the branch-and-bound workers, the simplex
    // pivot loops, and the greedy anchor search, each of which unwinds to its
    // best incumbent when the token trips instead of throwing.
    Deadline deadline{};

    [[nodiscard]] int resolved_threads() const noexcept {
        if (threads > 0) return threads;
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : static_cast<int>(hw);
    }
};

}  // namespace hermes::core
