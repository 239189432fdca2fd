#include "sim/shard.h"

#include <algorithm>

namespace hermes::sim {

namespace {

// Heap tie-break: (flow, hop, runt) packed so simultaneous events pop in one
// fixed order. The runt bit orders a flow's final short packet behind its
// full-packet train at equal timestamps (injection schedules both at the
// same instant).
std::uint64_t order_key(const BatchEvent& e, bool runt) noexcept {
    return (static_cast<std::uint64_t>(e.flow) << 18) |
           (static_cast<std::uint64_t>(e.hop & 0xffff) << 2) | (runt ? 1u : 0u);
}

bool is_runt(const BatchEvent& e, const FlowState& f) noexcept {
    return e.first == f.packets - 1;
}

}  // namespace

void Shard::schedule(const BatchEvent& event) {
    const std::uint32_t slot = pool_.alloc();
    pool_[slot] = event;
    // The runt bit only needs to order batches of the same flow at the same
    // hop; first==0 batches are the train, anything else the runt.
    heap_.push(EventKey{event.time_us, order_key(event, event.first != 0),
                        slot});
}

void Shard::run(const ShardEnv& env) {
    while (!heap_.empty()) {
        const EventKey key = heap_.pop();
        const BatchEvent event = pool_[key.payload];
        pool_.free(key.payload);
        ++events_;
        process(env, event);
    }
}

bool Shard::can_fastforward(const ShardEnv& env, const FlowState& flow,
                            std::uint32_t from_hop) noexcept {
    for (std::uint32_t h = from_hop; h < flow.route_len; ++h) {
        if (env.links[env.route_links[flow.route_offset + h]].pending_flows != 1) {
            return false;
        }
    }
    return true;
}

void Shard::process(const ShardEnv& env, const BatchEvent& event) {
    FlowState& flow = env.flows[event.flow];
    const bool runt = is_runt(event, flow);
    const std::int64_t wire = runt ? flow.last_wire : flow.full_wire;
    const double tx = static_cast<double>(wire) * 8.0 / env.bandwidth_denom_us;
    const double occupy = static_cast<double>(event.count) * tx;

    std::uint32_t hop = event.hop;
    double arrival = event.time_us;
    std::uint32_t inline_hops = 0;
    for (;;) {
        LinkState& link = env.links[env.route_links[flow.route_offset + hop]];
        const double start = std::max(arrival, link.free_at_us);
        link.free_at_us = start + occupy;
        const double depart = link.propagation_us + link.switch_latency_us;
        // The flow is fully past this link once its final packet departs.
        if (runt) --link.pending_flows;
        if (hop + 1 == flow.route_len) {
            const double delivered = link.free_at_us + depart;
            flow.received += event.count;
            if (delivered > flow.completion_us) flow.completion_us = delivered;
            if (runt && inline_hops > 0) flow.fastpath = true;
            return;
        }
        const double next_arrival = (start + tx) + depart;
        if (env.fastforward && event.first == 0 &&
            can_fastforward(env, flow, hop + 1)) {
            // No other flow can reach any remaining link before us: advance
            // the batch analytically instead of bouncing it through the
            // heap. Only the flow's leading batch (the train, or the sole
            // batch of a one-packet flow) may do this: pending_flows counts
            // flows, not batches, so a trailing runt would otherwise see
            // pending == 1 and advance through links its own train still
            // has queued events for, transmitting ahead of it.
            ++hop;
            arrival = next_arrival;
            ++inline_hops;
            continue;
        }
        schedule(BatchEvent{next_arrival, event.flow, hop + 1, event.first,
                            event.count});
        return;
    }
}

}  // namespace hermes::sim
