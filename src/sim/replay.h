// Traffic replay across a failure window (the robustness companion to
// flowsim's steady-state FCT/goodput measurements).
//
// Models the operational timeline of one failure episode: at t=0 the
// failures have landed (the network passed in is in its post-failure state),
// at t=repair_done_us the repaired deployment takes over. Flows launch at a
// fixed interval across the window; a flow launched before the repair
// completes rides the old deployment and is lost when the failures broke it
// (its packets are counted against packets_lost_before_repair), while flows
// after the repair are simulated end to end on the repaired deployment.
// Everything is deterministic — no randomness, no wall clock.
#pragma once

#include <cstdint>

#include "core/deployment.h"
#include "net/path_oracle.h"
#include "sim/flowsim.h"

namespace hermes::sim {

struct ReplayConfig {
    double window_us = 1000.0;       // failure window length
    double repair_done_us = 100.0;   // instant the repaired deployment activates
    double flow_interval_us = 100.0; // one flow launches every interval, from t=0
    FlowSpec flow{};                 // per-flow message shape (overhead_bytes is
                                     // overridden per deployment's A_max)
    SimConfig sim{};                 // link bandwidth + obs sink
};

struct ReplayReport {
    std::int64_t flows_total = 0;
    std::int64_t flows_lost = 0;
    // Packets of the lost flows, sized by the pre-failure deployment's
    // metadata overhead — the paper's lost-work measure for Exp-style
    // failure runs.
    std::int64_t packets_lost_before_repair = 0;
    // FCT of one flow on the repaired deployment (0 when no flow ran on it).
    double post_fct_us = 0.0;
    // A_max of the two deployments and their difference (post - pre): the
    // metadata price paid for surviving the failure.
    std::int64_t pre_amax_bytes = 0;
    std::int64_t post_amax_bytes = 0;
    std::int64_t amax_delta_bytes = 0;
};

// Replays the window on `net` (already in its post-failure state). `before`
// is the deployment that was live when the failures hit, `after` the
// repaired one (pass `before` again for a no-op repair; an empty `after`
// means the repair failed and post-repair flows are lost too). A non-null
// sink in config.sim records replay.flows / replay.flows_lost /
// replay.packets_lost counters under a "replay" span.
[[nodiscard]] ReplayReport replay_failure_window(const tdg::Tdg& t,
                                                 const net::Network& net,
                                                 const core::Deployment& before,
                                                 const core::Deployment& after,
                                                 const ReplayConfig& config = {},
                                                 net::PathOracle* oracle = nullptr);

}  // namespace hermes::sim
