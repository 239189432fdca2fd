// Network-wide discrete-event traffic engine.
//
// Admits many concurrent flows, models per-link FIFO transmission contention
// between them, and runs them to completion on the caller's thread in two
// steps:
//
//  1. A flow-level fast path. At admission, flows are processed in start
//     order and a flow whose use of every route link is *time-serialized*
//     against every other flow's — earlier flows provably past the link
//     before it arrives, later flows provably unable to reach the link
//     before its last packet has left — is advanced analytically, running
//     the event loop's own batch recurrence (train then runt, the same
//     floating-point operations in the same order as Shard::process, so
//     timestamps and the link free-times left behind are bit-identical)
//     without creating a single event. Exclusive links are just the
//     degenerate case; shared links qualify whenever the sharing is
//     temporally disjoint. A flow that fails the criterion is injected and
//     permanently taints its links against later analytic admissions.
//
//  2. One event loop (shard.h) over a flat arena-allocated pool and a d-ary
//     heap: no per-event allocation, no closures. During the run, a batch
//     whose remaining links carry no other event-borne flow fast-forwards to
//     delivery in one step. Batched packetization (two batches per flow: the
//     full-packet train and the final short packet) makes back-to-back
//     line-rate trains O(1) events per hop.
//
// Determinism: events tie-break on (time, flow, hop, batch), so a run's
// results do not depend on the order flows were injected in, and the
// in-run fast-forward only fires when no competing event-borne flow exists.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/flowsim.h"
#include "sim/shard.h"

namespace hermes::sim {

using LinkId = std::uint32_t;
using RouteId = std::uint32_t;
using FlowId = std::uint32_t;

struct EngineConfig {
    double link_bandwidth_gbps = 100.0;  // shared line rate, as in SimConfig
    // Ignored: the engine runs on the caller's thread. Kept only because the
    // layered benchmark (layerbench/) still sets it; the next change to that
    // benchmark removes it.
    int threads = 1;
    // Disables both fast paths (admission-time analytic flows and in-run
    // batch fast-forwarding); every flow then travels the per-batch event
    // path. For tests and for measuring the fast path's worth.
    bool enable_fastpath = true;
    // Non-null: the run records sim.flows / sim.events / sim.fastpath_flows
    // / sim.fastpath_serialized counters, a sim.fct_us histogram, one
    // sim.event_loop span, and sim.shard0.idle_ns: the run's wall time
    // outside the event loop (admission and reporting).
    obs::Sink* sink = nullptr;
};

struct EngineStats {
    std::int64_t flows = 0;
    std::int64_t packets = 0;          // total packets across all flows
    std::int64_t events = 0;           // batch events popped from the heap
    std::int64_t fastpath_flows = 0;   // flows delivered analytically
    // Analytic admissions whose route shares at least one link with another
    // flow (time-serialized reuse, not exclusive ownership).
    std::int64_t fastpath_serialized = 0;
    // Always 0 and 1: there is one event loop and no window. Kept, like
    // EngineConfig::threads, only for the layered benchmark.
    std::int64_t window_syncs = 0;
    int shards = 1;
    double horizon_us = 0.0;           // latest delivery instant
};

class Engine {
public:
    explicit Engine(const EngineConfig& config = {});

    // A directed hop: the wire (propagation) plus the receiving node's
    // processing latency. Negative latencies throw std::invalid_argument.
    LinkId add_link(double propagation_us, double switch_latency_us);

    // A route is an ordered link sequence shared by any number of flows
    // (flows sharing a link contend for its FIFO transmitter). An empty
    // route delivers at injection time. Throws on unknown link ids or more
    // than 65535 hops (the heap tie-break packs the hop index).
    RouteId add_route(const std::vector<LinkId>& links);
    // Convenience: fresh private links, one per hop — the single-flow
    // adapter's shape, where each hop is its own transmitter.
    RouteId add_route(const std::vector<HopSpec>& hops);

    // Admits one flow: `spec`'s message is packetized exactly as
    // simulate_flow does (effective_payload validation included) and its
    // packets leave the source back-to-back at line rate from `start_us`.
    FlowId add_flow(const FlowSpec& spec, RouteId route, double start_us = 0.0);

    // Simulates every admitted flow to completion. Call once.
    void run();

    // Completed flow's result; fct_us is completion minus start.
    [[nodiscard]] FlowResult result(FlowId flow) const;
    [[nodiscard]] double completion_us(FlowId flow) const;

    [[nodiscard]] std::size_t flow_count() const noexcept { return flows_.size(); }
    [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }
    [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

private:
    void fastpath_admission();
    void inject(FlowId flow);

    EngineConfig config_;
    std::vector<LinkState> links_;
    std::vector<std::uint32_t> route_links_;  // flat route → link ids
    std::vector<std::pair<std::uint32_t, std::uint32_t>> routes_;  // offset, len
    std::vector<FlowState> flows_;
    Shard loop_;
    EngineStats stats_;
    bool ran_ = false;
};

// Interns network paths into shared engine links: two paths crossing the
// same directed (from, to) network link get the same engine link, so flows
// whose routes overlap contend for its transmitter. One interner per engine.
// Link latencies come from the network's live adjacency (dead links throw,
// as in hops_from_path).
class PathInterner {
public:
    RouteId add_path(Engine& engine, const net::Network& net, const net::Path& path);

private:
    std::unordered_map<std::uint64_t, LinkId> links_;  // (from << 32 | to)
};

}  // namespace hermes::sim
