// The traffic engine's event loop: the FIFO transmitter state of every link,
// an arena-pooled event heap, and the per-batch physics.
//
// One loop owns every link and runs on the caller's thread until its heap
// drains. The engine once split links into shards with a loop each, run in
// lockstep time windows; DESIGN.md §5h records why that was removed.
//
// Determinism: the heap key's tie-break packs (flow, hop, runt) — a total
// order over simultaneous events that is independent of injection order, so
// a run pops one fixed sequence and computes the same timestamps bit for
// bit.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/arena.h"
#include "sim/events.h"

namespace hermes::sim {

// Transmitter + topology state of one simulated link (a directed hop: the
// wire plus the receiving node's processing latency).
struct LinkState {
    double propagation_us = 0.0;
    double switch_latency_us = 0.0;
    double free_at_us = 0.0;         // FIFO transmitter frees at this instant
    std::uint32_t pending_flows = 0; // route occurrences not yet fully past
};

// Derived per-flow state (packetization precomputed at admission).
struct FlowState {
    std::int64_t packets = 0;
    std::int64_t payload_bytes_total = 0;
    std::int64_t full_wire = 0;        // wire bytes of a full packet
    std::int64_t last_wire = 0;        // wire bytes of the final packet
    int payload_per_packet = 0;
    std::uint32_t route_offset = 0;    // into the engine's flat link-id array
    std::uint32_t route_len = 0;
    double start_us = 0.0;
    double completion_us = 0.0;        // delivery of the last packet
    std::int64_t received = 0;
    bool fastpath = false;             // delivery was produced analytically
};

// A contiguous run of back-to-back packets of one flow arriving at one hop.
// Batching is what makes line-rate trains O(1) events per hop: a flow is at
// most two batches (the full packets and the final short packet), and a
// batch stays contiguous across same-bandwidth hops, so its transit of a
// link is one max() and two additions.
struct BatchEvent {
    double time_us = 0.0;     // arrival of the batch's first packet
    std::uint32_t flow = 0;
    std::uint32_t hop = 0;    // index into the flow's route
    std::int64_t first = 0;   // first packet ordinal
    std::int64_t count = 0;
};

// The engine state the loop reads and writes; the engine keeps the vectors
// behind these pointers fixed in size during run().
struct ShardEnv {
    LinkState* links = nullptr;
    FlowState* flows = nullptr;
    const std::uint32_t* route_links = nullptr;  // flat route → link ids
    double bandwidth_denom_us = 0.0;  // link_bandwidth_gbps * 1e3
    bool fastforward = true;          // in-run batch fast-forwarding enabled
};

class Shard {
public:
    // Enqueues a batch into the heap (pool-backed).
    void schedule(const BatchEvent& event);

    // Processes every pending event in (time, flow, hop, batch) order until
    // the heap drains, updating link and flow state.
    void run(const ShardEnv& env);

    [[nodiscard]] std::int64_t events() const noexcept { return events_; }

private:
    void process(const ShardEnv& env, const BatchEvent& event);
    // True when every link from `from_hop` to the end of the route carries
    // no other flow — the in-run fast-forward condition (safe: nothing can
    // arrive ahead of us on any of them).
    [[nodiscard]] static bool can_fastforward(const ShardEnv& env, const FlowState& flow,
                                              std::uint32_t from_hop) noexcept;

    EventHeap heap_;
    Arena<BatchEvent> pool_{4096};
    std::int64_t events_ = 0;
};

}  // namespace hermes::sim
