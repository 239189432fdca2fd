#include "sim/replay.h"

#include <algorithm>

#include "core/objective.h"
#include "core/repair.h"
#include "sim/engine.h"
#include "obs/obs.h"

namespace hermes::sim {

namespace {

// Packet count of one flow under the given per-packet metadata overhead.
// Mirrors simulate_flow's packetization without running the event loop.
std::int64_t packet_count(FlowSpec spec, std::int64_t overhead_bytes) {
    spec.overhead_bytes =
        static_cast<int>(std::min<std::int64_t>(overhead_bytes, spec.mtu_bytes));
    int payload = 0;
    try {
        payload = effective_payload(spec);
    } catch (const std::invalid_argument&) {
        // Overhead leaves no payload room: every byte needs its own packet's
        // worth of headers; approximate with one packet per payload byte.
        return std::max<std::int64_t>(1, spec.payload_bytes_total);
    }
    return (spec.payload_bytes_total + payload - 1) / payload;
}

}  // namespace

ReplayReport replay_failure_window(const tdg::Tdg& t, const net::Network& net,
                                   const core::Deployment& before,
                                   const core::Deployment& after,
                                   const ReplayConfig& config,
                                   net::PathOracle* oracle) {
    obs::Sink* const sink = config.sim.sink;
    obs::Span span(sink, "replay");
    ReplayReport report;

    report.pre_amax_bytes = core::max_pair_metadata(t, before);
    report.post_amax_bytes = after.empty() ? 0 : core::max_pair_metadata(t, after);
    report.amax_delta_bytes = report.post_amax_bytes - report.pre_amax_bytes;

    // The old deployment carries pre-repair flows only when the failures did
    // not actually break it (a fault window can miss the deployment
    // entirely).
    const bool before_alive = core::classify_damage(t, net, before).intact();
    const bool after_alive =
        !after.empty() && core::classify_damage(t, net, after).intact();

    const double interval = config.flow_interval_us > 0.0 ? config.flow_interval_us
                                                          : config.window_us;
    std::vector<double> post_launches;
    for (double at = 0.0; at < config.window_us; at += interval) {
        ++report.flows_total;
        const bool pre_repair = at < config.repair_done_us;
        const core::Deployment& carrier = pre_repair ? before : after;
        const bool alive = pre_repair ? before_alive : after_alive;
        if (alive) {
            if (!pre_repair) post_launches.push_back(at);
            continue;
        }
        ++report.flows_lost;
        const std::int64_t amax = carrier.empty()
                                      ? report.pre_amax_bytes
                                      : core::max_pair_metadata(t, carrier);
        const std::int64_t lost = packet_count(config.flow, amax);
        if (pre_repair) report.packets_lost_before_repair += lost;
        if (interval <= 0.0) break;  // degenerate config: one flow max
    }

    // Every post-repair launch rides the repaired deployment concurrently
    // through the traffic engine — flows contend for the route's FIFO
    // transmitters. The headline post_fct_us is the first post-repair flow's
    // completion: FIFO ordering leaves it untouched by the later launches,
    // so the number matches the old one-representative-flow measurement.
    double post_fct = 0.0;
    if (after_alive) {
        FlowSpec spec = config.flow;
        spec.overhead_bytes = static_cast<int>(
            std::min<std::int64_t>(report.post_amax_bytes, spec.mtu_bytes));
        const auto hops = deployment_hops(t, net, after, oracle);
        EngineConfig engine_config;
        engine_config.link_bandwidth_gbps = config.sim.link_bandwidth_gbps;
        engine_config.sink = sink;
        Engine engine(engine_config);
        const RouteId route = engine.add_route(hops);
        // A window with no post-repair launch still reports the repaired
        // deployment's single-flow FCT, as before.
        if (post_launches.empty()) post_launches.push_back(0.0);
        std::vector<FlowId> flows;
        flows.reserve(post_launches.size());
        for (const double at : post_launches) {
            flows.push_back(engine.add_flow(spec, route, at));
        }
        engine.run();
        post_fct = engine.result(flows.front()).fct_us;
    }
    report.post_fct_us = post_fct;

    if (sink != nullptr) {
        sink->counter("replay.flows").add(report.flows_total);
        sink->counter("replay.flows_lost").add(report.flows_lost);
        sink->counter("replay.packets_lost").add(report.packets_lost_before_repair);
    }
    return report;
}

}  // namespace hermes::sim
