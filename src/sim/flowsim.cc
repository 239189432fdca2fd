#include "sim/flowsim.h"

#include <cmath>
#include <functional>
#include <stdexcept>

#include "core/objective.h"
#include "obs/obs.h"
#include "sim/engine.h"
#include "sim/events.h"

namespace hermes::sim {

int effective_payload(const FlowSpec& spec) {
    if (spec.payload_bytes_total < 0) {
        throw std::invalid_argument("effective_payload: negative payload");
    }
    if (spec.mtu_bytes <= 0) {
        throw std::invalid_argument("effective_payload: non-positive MTU");
    }
    if (spec.base_header_bytes < 0 || spec.overhead_bytes < 0) {
        throw std::invalid_argument(
            "effective_payload: negative header or overhead bytes");
    }
    if (spec.mtu_bytes <= spec.base_header_bytes) {
        throw std::invalid_argument(
            "effective_payload: MTU does not fit the base headers");
    }
    const int room = spec.mtu_bytes - spec.base_header_bytes - spec.overhead_bytes;
    if (room <= 0) {
        throw std::invalid_argument(
            "effective_payload: metadata overhead leaves no payload room in the MTU");
    }
    return room;
}

FlowResult simulate_flow(const std::vector<HopSpec>& hops, const FlowSpec& spec,
                         const SimConfig& config) {
    if (config.link_bandwidth_gbps <= 0.0) {
        throw std::invalid_argument("simulate_flow: non-positive bandwidth");
    }
    obs::Span span(config.sink, "flowsim.flow");
    EngineConfig engine_config;
    engine_config.link_bandwidth_gbps = config.link_bandwidth_gbps;
    Engine engine(engine_config);
    const RouteId route = engine.add_route(hops);
    const FlowId flow = engine.add_flow(spec, route);
    engine.run();
    const FlowResult result = engine.result(flow);
    if (config.sink != nullptr) {
        config.sink->counter("flowsim.packets").add(result.packets);
        config.sink->counter("flowsim.events").add(engine.stats().events);
    }
    return result;
}

FlowResult simulate_flow_reference(const std::vector<HopSpec>& hops,
                                   const FlowSpec& spec, const SimConfig& config) {
    if (config.link_bandwidth_gbps <= 0.0) {
        throw std::invalid_argument("simulate_flow: non-positive bandwidth");
    }
    obs::Span span(config.sink, "flowsim.flow");
    std::int64_t events = 0;
    FlowResult result;
    result.payload_per_packet = effective_payload(spec);
    result.packets = spec.payload_bytes_total == 0
                         ? 0
                         : (spec.payload_bytes_total + result.payload_per_packet - 1) /
                               result.payload_per_packet;
    if (result.packets == 0) return result;

    // Wire size of a full packet; the final packet may be shorter.
    const std::int64_t full_wire =
        result.payload_per_packet + spec.base_header_bytes + spec.overhead_bytes;
    const std::int64_t last_payload =
        spec.payload_bytes_total - (result.packets - 1) * result.payload_per_packet;
    const std::int64_t last_wire = last_payload + spec.base_header_bytes + spec.overhead_bytes;

    auto tx_time_us = [&](std::int64_t wire_bytes) {
        return static_cast<double>(wire_bytes) * 8.0 / (config.link_bandwidth_gbps * 1e3);
    };

    // Store-and-forward DES: hop h has a FIFO transmitter that frees at
    // free_at[h]; a packet finishing hop h is handed to hop h+1 after the
    // hop's propagation and the receiving node's processing latency.
    EventQueue queue;
    std::vector<double> free_at(hops.size(), 0.0);
    double completion_us = 0.0;
    std::int64_t received = 0;

    // One closure per (packet, hop) arrival.
    std::function<void(std::int64_t, std::size_t, double)> arrive =
        [&](std::int64_t packet, std::size_t hop, double at_us) {
            ++events;
            if (hop == hops.size()) {
                ++received;
                completion_us = at_us;
                return;
            }
            const std::int64_t wire = packet == result.packets - 1 ? last_wire : full_wire;
            const double start = std::max(at_us, free_at[hop]);
            const double done = start + tx_time_us(wire);
            free_at[hop] = done;
            const double delivered =
                done + hops[hop].propagation_us + hops[hop].switch_latency_us;
            queue.schedule(delivered,
                           [&arrive, packet, hop, delivered] {
                               arrive(packet, hop + 1, delivered);
                           });
        };

    // Sender emits back-to-back at line rate (hop 0's FIFO enforces pacing,
    // so all packets can be injected at t=0).
    for (std::int64_t p = 0; p < result.packets; ++p) {
        queue.schedule(0.0, [&arrive, p] { arrive(p, 0, 0.0); });
    }
    queue.run();

    if (received != result.packets) {
        throw std::logic_error("simulate_flow: packets lost in simulation");
    }
    result.fct_us = completion_us;
    result.goodput_gbps =
        static_cast<double>(spec.payload_bytes_total) * 8.0 / (result.fct_us * 1e3);
    if (config.sink != nullptr) {
        config.sink->counter("flowsim.packets").add(result.packets);
        config.sink->counter("flowsim.events").add(events);
    }
    return result;
}

std::vector<HopSpec> hops_from_path(const net::Network& net, const net::Path& path) {
    for (const net::SwitchId s : path.switches) {
        if (!net.switch_up(s)) {
            throw std::invalid_argument("hops_from_path: path visits a failed switch");
        }
    }
    std::vector<HopSpec> hops;
    for (std::size_t i = 1; i < path.switches.size(); ++i) {
        const auto latency = net.link_latency(path.switches[i - 1], path.switches[i]);
        if (!latency) {
            throw std::invalid_argument("hops_from_path: path uses a missing link");
        }
        hops.push_back(HopSpec{*latency, net.props(path.switches[i]).latency_us});
    }
    return hops;
}

namespace {

// A recorded route is only usable while every switch it visits is up and
// every link it crosses is live; failures must force a re-resolution rather
// than silently simulating traffic through dead hardware.
bool path_alive(const net::Network& net, const net::Path& path) {
    for (const net::SwitchId s : path.switches) {
        if (!net.switch_up(s)) return false;
    }
    for (std::size_t i = 1; i < path.switches.size(); ++i) {
        if (!net.link_latency(path.switches[i - 1], path.switches[i])) return false;
    }
    return true;
}

}  // namespace

std::vector<HopSpec> deployment_hops(const tdg::Tdg& t, const net::Network& net,
                                     const core::Deployment& d,
                                     net::PathOracle* oracle) {
    const std::vector<net::SwitchId> order = core::traversal_order(t, d);
    std::vector<HopSpec> hops;
    if (order.empty()) return hops;
    for (const net::SwitchId s : order) {
        if (!net.switch_up(s)) {
            throw std::runtime_error("deployment_hops: deployment occupies a failed switch");
        }
    }
    // Ingress hop into the first occupied switch.
    hops.push_back(HopSpec{0.0, net.props(order.front()).latency_us});
    for (std::size_t i = 1; i < order.size(); ++i) {
        const auto it = d.routes.find({order[i - 1], order[i]});
        net::Path path;
        if (it != d.routes.end() && path_alive(net, it->second)) {
            path = it->second;
        } else {
            // No recorded route, or the recorded route crosses failed
            // hardware: resolve a live shortest path instead.
            auto sp = oracle ? oracle->path(order[i - 1], order[i])
                             : net::shortest_path(net, order[i - 1], order[i]);
            if (!sp) {
                throw std::runtime_error("deployment_hops: traversal pair disconnected");
            }
            path = std::move(*sp);
        }
        const std::vector<HopSpec> leg = hops_from_path(net, path);
        hops.insert(hops.end(), leg.begin(), leg.end());
    }
    return hops;
}

}  // namespace hermes::sim
