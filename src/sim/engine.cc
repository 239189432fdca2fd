#include "sim/engine.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/obs.h"

namespace hermes::sim {

Engine::Engine(const EngineConfig& config) : config_(config) {
    if (config_.link_bandwidth_gbps <= 0.0) {
        throw std::invalid_argument("sim::Engine: non-positive bandwidth");
    }
}

LinkId Engine::add_link(double propagation_us, double switch_latency_us) {
    if (propagation_us < 0.0 || switch_latency_us < 0.0) {
        throw std::invalid_argument("sim::Engine: negative link latency");
    }
    LinkState link;
    link.propagation_us = propagation_us;
    link.switch_latency_us = switch_latency_us;
    links_.push_back(link);
    return static_cast<LinkId>(links_.size() - 1);
}

RouteId Engine::add_route(const std::vector<LinkId>& links) {
    if (links.size() > 0xffff) {
        throw std::invalid_argument("sim::Engine: route exceeds 65535 hops");
    }
    for (const LinkId l : links) {
        if (l >= links_.size()) {
            throw std::invalid_argument("sim::Engine: unknown link id in route");
        }
    }
    const auto offset = static_cast<std::uint32_t>(route_links_.size());
    route_links_.insert(route_links_.end(), links.begin(), links.end());
    routes_.emplace_back(offset, static_cast<std::uint32_t>(links.size()));
    return static_cast<RouteId>(routes_.size() - 1);
}

RouteId Engine::add_route(const std::vector<HopSpec>& hops) {
    std::vector<LinkId> links;
    links.reserve(hops.size());
    for (const HopSpec& hop : hops) {
        links.push_back(add_link(hop.propagation_us, hop.switch_latency_us));
    }
    return add_route(links);
}

FlowId Engine::add_flow(const FlowSpec& spec, RouteId route, double start_us) {
    if (ran_) throw std::logic_error("sim::Engine: add_flow after run()");
    if (route >= routes_.size()) {
        throw std::invalid_argument("sim::Engine: unknown route id");
    }
    FlowState flow;
    flow.payload_bytes_total = spec.payload_bytes_total;
    flow.payload_per_packet = effective_payload(spec);
    flow.packets = spec.payload_bytes_total == 0
                       ? 0
                       : (spec.payload_bytes_total + flow.payload_per_packet - 1) /
                             flow.payload_per_packet;
    flow.full_wire =
        flow.payload_per_packet + spec.base_header_bytes + spec.overhead_bytes;
    const std::int64_t last_payload =
        flow.packets == 0 ? 0
                          : spec.payload_bytes_total -
                                (flow.packets - 1) * flow.payload_per_packet;
    flow.last_wire = last_payload + spec.base_header_bytes + spec.overhead_bytes;
    flow.route_offset = routes_[route].first;
    flow.route_len = routes_[route].second;
    flow.start_us = start_us;
    flow.completion_us = start_us;
    for (std::uint32_t h = 0; h < flow.route_len; ++h) {
        ++links_[route_links_[flow.route_offset + h]].pending_flows;
    }
    stats_.packets += flow.packets;
    flows_.push_back(flow);
    return static_cast<FlowId>(flows_.size() - 1);
}

void Engine::fastpath_admission() {
    // Zero-packet flows never transmit: deliver them immediately and release
    // their admission claim on pending_flows, so a payload-free flow cannot
    // pin a link's contention count above the fast-forward threshold forever.
    const auto deliver_empty = [this](FlowState& flow) {
        flow.received = flow.packets;
        if (flow.packets == 0) {
            for (std::uint32_t h = 0; h < flow.route_len; ++h) {
                --links_[route_links_[flow.route_offset + h]].pending_flows;
            }
        }
    };
    if (!config_.enable_fastpath) {
        for (FlowId id = 0; id < flows_.size(); ++id) {
            FlowState& flow = flows_[id];
            if (flow.packets == 0 || flow.route_len == 0) {
                deliver_empty(flow);
                continue;
            }
            inject(id);
        }
        return;
    }

    // Time-serialized analytic admission. A flow does not need exclusive
    // links to be advanced without events — it only needs its use of every
    // link to be serialized against every other flow's use: flows processed
    // earlier must be fully past the link before this flow's first packet
    // can arrive, and flows processed later must not be able to reach the
    // link before this flow's last packet has left its transmitter. Both
    // halves come from processing flows in (start, id) order and keeping,
    // per link, a cursor over its occupant flows in that same order: when a
    // flow is admitted analytically, its criterion guarantees every
    // not-yet-processed occupant starts at or after the link's new free
    // instant, so the FIFO order the event loop would produce is exactly
    // "everything admitted so far, then everyone else" — and max(arrival,
    // free_at) reproduces it. A flow that fails the criterion is injected
    // into the event loop and permanently taints its links (its batches
    // reach them at times only the event loop knows), which bars later
    // analytic admissions there.
    const double denom = config_.link_bandwidth_gbps * 1e3;
    std::vector<FlowId> order(flows_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [this](FlowId a, FlowId b) {
        return flows_[a].start_us < flows_[b].start_us;
    });
    // CSR of each link's transmitting occupants in admission order. Each
    // occurrence also carries a lower bound on when that flow's first packet
    // can arrive at that link: its start plus the propagation and switch
    // latency of every upstream hop (transmission times only push the true
    // arrival later, so dropping them keeps the bound safe). `bound` is then
    // folded into a per-link suffix minimum, so one lookup at the cursor
    // bounds the earliest arrival of *every* not-yet-processed occupant.
    std::vector<std::uint32_t> offset(links_.size() + 1, 0);
    for (const FlowState& flow : flows_) {
        if (flow.packets == 0) continue;
        for (std::uint32_t h = 0; h < flow.route_len; ++h) {
            ++offset[route_links_[flow.route_offset + h] + 1];
        }
    }
    for (std::size_t l = 1; l < offset.size(); ++l) offset[l] += offset[l - 1];
    std::vector<FlowId> occupants(offset.back());
    std::vector<double> bound(offset.back());
    std::vector<std::uint32_t> cursor(offset.begin(), offset.end() - 1);
    for (const FlowId id : order) {
        const FlowState& flow = flows_[id];
        if (flow.packets == 0) continue;
        double earliest = flow.start_us;
        for (std::uint32_t h = 0; h < flow.route_len; ++h) {
            const LinkId l = route_links_[flow.route_offset + h];
            occupants[cursor[l]] = id;
            bound[cursor[l]++] = earliest;
            earliest += links_[l].propagation_us + links_[l].switch_latency_us;
        }
    }
    for (std::size_t l = 0; l < links_.size(); ++l) {
        for (std::uint32_t k = offset[l + 1]; k-- > offset[l] + 1;) {
            bound[k - 1] = std::min(bound[k - 1], bound[k]);
        }
    }
    std::copy(offset.begin(), offset.end() - 1, cursor.begin());

    std::vector<std::uint8_t> tainted(links_.size(), 0);
    std::vector<double> saved;      // free_at checkpoint for a rejected dry run
    std::vector<FlowId> rejected;   // injected after the pass, in id order
    for (const FlowId id : order) {
        FlowState& flow = flows_[id];
        if (flow.packets == 0 || flow.route_len == 0) {
            deliver_empty(flow);
            continue;
        }
        bool eligible = true;
        bool shared = false;
        for (std::uint32_t h = 0; h < flow.route_len; ++h) {
            const LinkId l = route_links_[flow.route_offset + h];
            while (cursor[l] < offset[l + 1] && occupants[cursor[l]] == id) {
                ++cursor[l];
            }
            if (tainted[l]) {
                eligible = false;
                shared = true;
            } else if (cursor[l] < offset[l + 1]) {
                shared = true;
            }
        }
        if (eligible) {
            saved.clear();
            for (std::uint32_t h = 0; h < flow.route_len; ++h) {
                saved.push_back(links_[route_links_[flow.route_offset + h]].free_at_us);
            }
            double completion = flow.start_us;
            if (shared) {
                // Batch recurrence — the full-packet train, then the runt —
                // mirroring Shard::process operation for operation. Other
                // flows (event-borne ones included) read the free_at values
                // this flow leaves behind, so they must be bit-identical to
                // what the event loop would have written.
                const auto advance = [&](std::int64_t count, std::int64_t wire) {
                    const double tx = static_cast<double>(wire) * 8.0 / denom;
                    const double occupy = static_cast<double>(count) * tx;
                    double arrival = flow.start_us;
                    for (std::uint32_t h = 0; h < flow.route_len; ++h) {
                        LinkState& link =
                            links_[route_links_[flow.route_offset + h]];
                        const double start = std::max(arrival, link.free_at_us);
                        link.free_at_us = start + occupy;
                        const double depart =
                            link.propagation_us + link.switch_latency_us;
                        if (h + 1 == flow.route_len) {
                            const double delivered = link.free_at_us + depart;
                            if (delivered > completion) completion = delivered;
                            return;
                        }
                        arrival = (start + tx) + depart;
                    }
                };
                if (flow.packets > 1) advance(flow.packets - 1, flow.full_wire);
                advance(1, flow.last_wire);
            } else {
                // Exclusive route: nobody ever reads these links again, so
                // use the exact per-packet store-and-forward recurrence in
                // its dependency order — packet p at hop h reads the arrival
                // from (p, h-1) and the transmitter time left by (p-1, h) —
                // keeping single-flow results bit-identical to the
                // per-packet reference (flowsim.h) as the adapter tests
                // assert.
                const double tx_full =
                    static_cast<double>(flow.full_wire) * 8.0 / denom;
                const double tx_last =
                    static_cast<double>(flow.last_wire) * 8.0 / denom;
                for (std::int64_t p = 0; p < flow.packets; ++p) {
                    const double tx = p == flow.packets - 1 ? tx_last : tx_full;
                    double at = flow.start_us;
                    for (std::uint32_t h = 0; h < flow.route_len; ++h) {
                        LinkState& link =
                            links_[route_links_[flow.route_offset + h]];
                        const double start = std::max(at, link.free_at_us);
                        const double done = start + tx;
                        link.free_at_us = done;
                        at = done + link.propagation_us + link.switch_latency_us;
                    }
                    completion = at;
                }
            }
            // Serialization criterion, per link: no not-yet-processed
            // occupant may be able to arrive at the link before the instant
            // this flow's last packet leaves its transmitter (its new
            // free_at). The suffix-min arrival bound at the cursor covers
            // all of them in one comparison.
            for (std::uint32_t h = 0; eligible && h < flow.route_len; ++h) {
                const LinkId l = route_links_[flow.route_offset + h];
                eligible = cursor[l] == offset[l + 1] ||
                           bound[cursor[l]] >= links_[l].free_at_us;
            }
            if (eligible) {
                for (std::uint32_t h = 0; h < flow.route_len; ++h) {
                    --links_[route_links_[flow.route_offset + h]].pending_flows;
                }
                flow.completion_us = completion;
                flow.received = flow.packets;
                flow.fastpath = true;
                if (shared) ++stats_.fastpath_serialized;
                continue;
            }
            for (std::uint32_t h = flow.route_len; h-- > 0;) {
                links_[route_links_[flow.route_offset + h]].free_at_us = saved[h];
            }
        }
        for (std::uint32_t h = 0; h < flow.route_len; ++h) {
            tainted[route_links_[flow.route_offset + h]] = 1;
        }
        rejected.push_back(id);
    }
    // Heap pop order is fully determined by (time, flow, hop, batch), so the
    // injection order cannot change results; id order keeps the event pool
    // filling exactly as it did before this pass existed.
    std::sort(rejected.begin(), rejected.end());
    for (const FlowId id : rejected) inject(id);
}

void Engine::inject(FlowId id) {
    const FlowState& flow = flows_[id];
    if (flow.packets > 1) {
        loop_.schedule(BatchEvent{flow.start_us, id, 0, 0, flow.packets - 1});
    }
    loop_.schedule(BatchEvent{flow.start_us, id, 0, flow.packets - 1, 1});
}

void Engine::run() {
    if (ran_) throw std::logic_error("sim::Engine: run() called twice");
    ran_ = true;
    obs::Sink* const sink = config_.sink;
    const std::int64_t wall_start = sink != nullptr ? obs::now_ns() : 0;

    fastpath_admission();
    const ShardEnv env{links_.data(), flows_.data(), route_links_.data(),
                       config_.link_bandwidth_gbps * 1e3, config_.enable_fastpath};
    const std::int64_t loop_start = sink != nullptr ? obs::now_ns() : 0;
    {
        obs::Span span(sink, "sim.event_loop");
        loop_.run(env);
    }
    const std::int64_t loop_ns = sink != nullptr ? obs::now_ns() - loop_start : 0;

    stats_.flows = static_cast<std::int64_t>(flows_.size());
    stats_.events = loop_.events();
    double horizon = 0.0;
    for (const FlowState& flow : flows_) {
        if (flow.received != flow.packets) {
            throw std::logic_error("sim::Engine: packets lost in simulation");
        }
        if (flow.fastpath) ++stats_.fastpath_flows;
        horizon = std::max(horizon, flow.completion_us);
    }
    stats_.horizon_us = horizon;

    if (sink != nullptr) {
        const std::int64_t wall_ns = obs::now_ns() - wall_start;
        sink->counter("sim.flows").add(stats_.flows);
        sink->counter("sim.events").add(stats_.events);
        sink->counter("sim.fastpath_flows").add(stats_.fastpath_flows);
        sink->counter("sim.fastpath_serialized").add(stats_.fastpath_serialized);
        obs::Histogram& fct =
            sink->histogram("sim.fct_us", obs::geometric_bounds(1.0, 4.0, 16));
        for (const FlowState& flow : flows_) {
            fct.observe(flow.completion_us - flow.start_us);
        }
        // The layered benchmark reads the time outside the loop under this
        // name.
        sink->counter("sim.shard0.idle_ns")
            .add(std::max<std::int64_t>(0, wall_ns - loop_ns));
    }
}

double Engine::completion_us(FlowId flow) const {
    if (!ran_) throw std::logic_error("sim::Engine: results before run()");
    return flows_[flow].completion_us;
}

FlowResult Engine::result(FlowId flow) const {
    if (!ran_) throw std::logic_error("sim::Engine: results before run()");
    const FlowState& state = flows_[flow];
    FlowResult result;
    result.packets = state.packets;
    result.payload_per_packet = state.payload_per_packet;
    if (state.packets == 0) return result;
    result.fct_us = state.completion_us - state.start_us;
    result.goodput_gbps = static_cast<double>(state.payload_bytes_total) * 8.0 /
                          (result.fct_us * 1e3);
    return result;
}

RouteId PathInterner::add_path(Engine& engine, const net::Network& net,
                               const net::Path& path) {
    std::vector<LinkId> links;
    links.reserve(path.switches.size());
    for (std::size_t i = 1; i < path.switches.size(); ++i) {
        const net::SwitchId a = path.switches[i - 1];
        const net::SwitchId b = path.switches[i];
        const std::uint64_t key =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
            static_cast<std::uint32_t>(b);
        const auto it = links_.find(key);
        if (it != links_.end()) {
            links.push_back(it->second);
            continue;
        }
        const auto latency = net.link_latency(a, b);
        if (!latency) {
            throw std::invalid_argument("PathInterner: path uses a missing link");
        }
        const LinkId id = engine.add_link(*latency, net.props(b).latency_us);
        links_.emplace(key, id);
        links.push_back(id);
    }
    return engine.add_route(links);
}

}  // namespace hermes::sim
