// Simulator tests: event queue semantics, flow packetization, FCT/goodput
// physics, the §II-B motivation rig, and the multi-flow engine (adapter
// equivalence, recorded WAN checksums, fast-path agreement, arena pools).
#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "net/topozoo.h"
#include "sim/arena.h"
#include "sim/engine.h"
#include "sim/events.h"
#include "sim/flowsim.h"
#include "sim/testbed.h"

namespace hermes::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(3.0, [&] { order.push_back(3); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(2.0, [&] { order.push_back(2); });
    const double last = q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(last, 3.0);
}

TEST(EventQueue, FifoAmongSimultaneous) {
    EventQueue q;
    std::vector<int> order;
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(1.0, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CallbacksMaySchedule) {
    EventQueue q;
    int fired = 0;
    q.schedule(1.0, [&] {
        ++fired;
        q.schedule(2.0, [&] { ++fired; });
    });
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, PastSchedulingRejected) {
    EventQueue q;
    q.schedule(5.0, [] {});
    q.run();
    EXPECT_THROW(q.schedule(1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunStepsLimits) {
    EventQueue q;
    int fired = 0;
    for (int i = 0; i < 5; ++i) q.schedule(i, [&] { ++fired; });
    EXPECT_EQ(q.run_steps(2), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.pending(), 3u);
}

// ---- Flow simulation ---------------------------------------------------------

TEST(FlowSim, EffectivePayloadShrinksWithOverhead) {
    FlowSpec spec;
    spec.mtu_bytes = 1500;
    spec.base_header_bytes = 40;
    spec.overhead_bytes = 0;
    EXPECT_EQ(effective_payload(spec), 1460);
    spec.overhead_bytes = 60;
    EXPECT_EQ(effective_payload(spec), 1400);
    spec.overhead_bytes = 1460;
    EXPECT_THROW((void)effective_payload(spec), std::invalid_argument);
}

TEST(FlowSim, SinglePacketSingleHopLatency) {
    // One 1000B-payload packet over one hop at 100 Gbps:
    // tx = 1040*8/1e11 s = 83.2ns = 0.0832us, plus 0.5us prop + 1us switch.
    FlowSpec spec;
    spec.payload_bytes_total = 1000;
    spec.mtu_bytes = 1500;
    const std::vector<HopSpec> hops{{0.5, 1.0}};
    const FlowResult r = simulate_flow(hops, spec);
    EXPECT_EQ(r.packets, 1);
    EXPECT_NEAR(r.fct_us, 0.0832 + 0.5 + 1.0, 1e-9);
}

TEST(FlowSim, PacketCountFromOverhead) {
    FlowSpec spec;
    spec.payload_bytes_total = 14600;  // 10 full packets at zero overhead
    const FlowResult zero = simulate_flow({{0.5, 1.0}}, spec);
    EXPECT_EQ(zero.packets, 10);
    spec.overhead_bytes = 146;  // payload 1314 -> ceil(14600/1314) = 12
    const FlowResult loaded = simulate_flow({{0.5, 1.0}}, spec);
    EXPECT_EQ(loaded.packets, 12);
    EXPECT_GT(loaded.fct_us, zero.fct_us);
    EXPECT_LT(loaded.goodput_gbps, zero.goodput_gbps);
}

TEST(FlowSim, PipeliningAcrossHops) {
    // N packets over H hops: FCT ~ N*tx + H*(tx + prop + switch) under
    // store-and-forward pipelining; check against closed form.
    FlowSpec spec;
    spec.payload_bytes_total = 1460 * 100;
    const std::vector<HopSpec> hops(5, HopSpec{0.5, 1.0});
    const FlowResult r = simulate_flow(hops, spec);
    const double tx = 1500.0 * 8.0 / 1e5;  // us at 100 Gbps
    const double expected = 99 * tx + 5 * (tx + 1.5);
    EXPECT_NEAR(r.fct_us, expected, 1e-6);
}

TEST(FlowSim, GoodputApproachesLineRateForLargeFlows) {
    FlowSpec spec;
    spec.payload_bytes_total = 1460 * 5000;
    const FlowResult r = simulate_flow({{0.5, 1.0}}, spec);
    // payload/wire ratio at zero overhead = 1460/1500 = 97.3% of 100 Gbps.
    EXPECT_NEAR(r.goodput_gbps, 100.0 * 1460.0 / 1500.0, 1.0);
}

TEST(FlowSim, ZeroPayloadZeroPackets) {
    FlowSpec spec;
    const FlowResult r = simulate_flow({{0.5, 1.0}}, spec);
    EXPECT_EQ(r.packets, 0);
    EXPECT_EQ(r.fct_us, 0.0);
}

TEST(FlowSim, ShortFinalPacket) {
    FlowSpec spec;
    spec.payload_bytes_total = 1500;  // 1460 + 40 remainder
    const FlowResult r = simulate_flow({{0.0, 0.0}}, spec);
    EXPECT_EQ(r.packets, 2);
    // Full 1500B wire packet followed by a 40+40=80B runt, back to back.
    const double expected = (1500.0 + 80.0) * 8.0 / 1e5;
    EXPECT_NEAR(r.fct_us, expected, 1e-9);
}

TEST(FlowSim, BandwidthValidation) {
    SimConfig config;
    config.link_bandwidth_gbps = 0.0;
    FlowSpec spec;
    spec.payload_bytes_total = 100;
    EXPECT_THROW((void)simulate_flow({{0, 0}}, spec, config), std::invalid_argument);
}

// ---- Motivation experiment (§II-B / Fig 2) ------------------------------------

TEST(Motivation, OverheadDegradesPerformanceMonotonically) {
    MotivationConfig config;
    config.packets = 2000;
    double last_fct = 0.0;
    double last_goodput_drop = -1.0;
    for (const int overhead : {28, 48, 68, 88, 108}) {
        const MotivationPoint p = run_motivation(config, 1500, overhead);
        EXPECT_GT(p.fct_increase, 0.0) << overhead;
        EXPECT_GT(p.goodput_decrease, 0.0) << overhead;
        EXPECT_GE(p.fct_increase, last_fct) << overhead;
        EXPECT_GE(p.goodput_decrease, last_goodput_drop) << overhead;
        last_fct = p.fct_increase;
        last_goodput_drop = p.goodput_decrease;
    }
}

TEST(Motivation, ZeroOverheadIsBaseline) {
    MotivationConfig config;
    config.packets = 500;
    const MotivationPoint p = run_motivation(config, 1024, 0);
    EXPECT_NEAR(p.fct_increase, 0.0, 1e-12);
    EXPECT_NEAR(p.goodput_decrease, 0.0, 1e-12);
}

TEST(Motivation, PaperBallparkAt48Bytes) {
    // §I cites ~25% FCT increase at 48B overhead for DCN-sized packets.
    MotivationConfig config;
    config.packets = 2000;
    const MotivationPoint p = run_motivation(config, 512, 48);
    EXPECT_GT(p.fct_increase, 0.05);
    EXPECT_LT(p.fct_increase, 0.40);
}

TEST(Motivation, Validation) {
    MotivationConfig config;
    EXPECT_THROW((void)run_motivation(config, 20, 0), std::invalid_argument);
    EXPECT_THROW((void)run_motivation(config, 512, -1), std::invalid_argument);
}

// ---- Arena + event heap -------------------------------------------------------

TEST(Arena, ReusesFreedSlotsLifo) {
    Arena<int> arena(4);
    const std::uint32_t a = arena.alloc();
    const std::uint32_t b = arena.alloc();
    arena[a] = 7;
    arena[b] = 9;
    arena.free(a);
    EXPECT_EQ(arena.alloc(), a);  // LIFO: the just-freed slot comes back first
    const ArenaStats& stats = arena.stats();
    EXPECT_EQ(stats.live, 2u);
    EXPECT_EQ(stats.peak_live, 2u);
    EXPECT_EQ(stats.allocations, 3u);
    EXPECT_EQ(stats.reuses, 1u);
    EXPECT_EQ(stats.blocks, 1u);
    for (int i = 0; i < 4; ++i) (void)arena.alloc();
    EXPECT_EQ(arena.stats().live, 6u);
    EXPECT_EQ(arena.stats().blocks, 2u);  // 6 slots over 4-slot blocks
    EXPECT_EQ(arena.stats().capacity, 8u);
}

TEST(EventHeap, PopsInTimeThenOrderKey) {
    EventHeap heap;
    heap.push(EventKey{2.0, 1, 0});
    heap.push(EventKey{1.0, 9, 1});
    heap.push(EventKey{1.0, 3, 2});
    heap.push(EventKey{0.5, 7, 3});
    std::vector<std::uint32_t> popped;
    while (!heap.empty()) popped.push_back(heap.pop().payload);
    EXPECT_EQ(popped, (std::vector<std::uint32_t>{3, 2, 1, 0}));
}

// ---- Multi-flow engine --------------------------------------------------------

// The engine's single-flow adapter must reproduce the retained reference
// simulator bit for bit across message shapes, hop counts, and bandwidths.
TEST(Engine, AdapterMatchesReferenceBitIdentical) {
    const std::vector<std::vector<HopSpec>> hop_sets{
        {{0.5, 1.0}},
        {{0.0, 0.0}},
        {{0.5, 1.0}, {2.0, 0.3}, {0.0, 0.0}, {1.5, 1.0}},
        std::vector<HopSpec>(5, HopSpec{0.5, 1.0}),
    };
    SimConfig config;
    for (const double gbps : {100.0, 10.0, 0.37}) {
        config.link_bandwidth_gbps = gbps;
        for (const std::int64_t payload : {std::int64_t{0}, std::int64_t{1},
                                           std::int64_t{1000}, std::int64_t{1500},
                                           std::int64_t{14600}, std::int64_t{146000}}) {
            for (const int overhead : {0, 60, 146}) {
                FlowSpec spec;
                spec.payload_bytes_total = payload;
                spec.overhead_bytes = overhead;
                for (const auto& hops : hop_sets) {
                    const FlowResult engine = simulate_flow(hops, spec, config);
                    const FlowResult reference =
                        simulate_flow_reference(hops, spec, config);
                    EXPECT_EQ(engine.packets, reference.packets);
                    EXPECT_EQ(engine.payload_per_packet, reference.payload_per_packet);
                    EXPECT_EQ(engine.fct_us, reference.fct_us)
                        << gbps << " " << payload << " " << overhead;
                    EXPECT_EQ(engine.goodput_gbps, reference.goodput_gbps);
                }
            }
        }
    }
}

// A contended-link hand check: two one-packet flows share a hop; the second
// launches mid-transmission and queues behind the first in the link FIFO.
TEST(Engine, ContendedLinkFifoHandCheck) {
    Engine engine;
    const RouteId route = engine.add_route(std::vector<HopSpec>{{0.5, 1.0}});
    FlowSpec spec;
    spec.payload_bytes_total = 1460;  // one full 1500B wire packet, tx = 0.12us
    const FlowId first = engine.add_flow(spec, route, 0.0);
    const FlowId second = engine.add_flow(spec, route, 0.05);
    engine.run();
    EXPECT_NEAR(engine.result(first).fct_us, 0.12 + 1.5, 1e-9);
    // Second flow waits for the transmitter: starts at 0.12, delivered at
    // 0.24 + 1.5, FCT measured from its own launch at 0.05.
    EXPECT_NEAR(engine.result(second).fct_us, 0.24 + 1.5 - 0.05, 1e-9);
}

// Heavy concurrent traffic over a Table III WAN: shortest-path routes
// between pseudorandom endpoint pairs, interned so overlapping paths
// contend. Used by the checksum and fast-path tests below.
std::vector<double> run_wan_traffic(bool fastpath, int flows) {
    const net::Network net = net::table3_topology(3);
    EngineConfig config;
    config.enable_fastpath = fastpath;
    Engine engine(config);
    PathInterner interner;
    std::mt19937 rng(0x5eed);
    const auto n = static_cast<net::SwitchId>(net.switch_count());
    std::vector<FlowId> ids;
    for (int i = 0; i < flows; ++i) {
        const auto a = static_cast<net::SwitchId>(rng() % n);
        auto b = static_cast<net::SwitchId>(rng() % n);
        if (b == a) b = (b + 1) % n;
        const auto path = net::shortest_path(net, a, b);
        if (!path.has_value()) {  // Table III graphs are connected
            throw std::runtime_error("run_wan_traffic: disconnected pair");
        }
        const RouteId route = interner.add_path(engine, net, *path);
        FlowSpec spec;
        spec.payload_bytes_total = 1460 * (1 + static_cast<int>(rng() % 64));
        spec.overhead_bytes = static_cast<int>(rng() % 120);
        ids.push_back(engine.add_flow(spec, route, 0.25 * i));
    }
    engine.run();
    std::vector<double> fct;
    fct.reserve(ids.size());
    for (const FlowId id : ids) fct.push_back(engine.result(id).fct_us);
    return fct;
}

// FNV-1a over the bit patterns of the FCTs, in flow order (the checksum
// layerbench records for its million-flow run).
std::uint64_t fct_checksum(const std::vector<double>& fct) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const double v : fct) {
        unsigned char bytes[sizeof v];
        std::memcpy(bytes, &v, sizeof v);
        for (const unsigned char b : bytes) {
            h ^= b;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

// The engine's results are pinned bit for bit: both paths must reproduce
// the checksums recorded before the sharded window engine was removed.
TEST(Engine, WanTrafficMatchesRecordedChecksums) {
    EXPECT_EQ(fct_checksum(run_wan_traffic(true, 160)), 0x2b419fa5c0c440acULL);
    EXPECT_EQ(fct_checksum(run_wan_traffic(false, 160)), 0x2b419fa5c0c440acULL);
}

// The fast paths are an optimization, not a model change: with contention
// forced on (shared WAN routes) and off (fastpath disabled) the FCTs agree
// to relative 1e-9.
TEST(Engine, FastPathAgreesWithSlowPath) {
    const std::vector<double> fast = run_wan_traffic(true, 80);
    const std::vector<double> slow = run_wan_traffic(false, 80);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
        EXPECT_NEAR(fast[i], slow[i], 1e-9 * std::max(1.0, slow[i])) << i;
    }
}

// A private route with a single flow must take the analytic fast path and
// still agree with the batch path bit for bit (identical FP operations).
TEST(Engine, FastPathHitsOnPrivateRoute) {
    for (const bool fastpath : {true, false}) {
        EngineConfig config;
        config.enable_fastpath = fastpath;
        Engine engine(config);
        const RouteId route =
            engine.add_route(std::vector<HopSpec>{{0.5, 1.0}, {2.0, 0.3}});
        FlowSpec spec;
        spec.payload_bytes_total = 14600;
        const FlowId flow = engine.add_flow(spec, route);
        engine.run();
        EXPECT_EQ(engine.stats().fastpath_flows, fastpath ? 1 : 0);
        EXPECT_EQ(engine.stats().events, fastpath ? 0 : 4);  // 2 batches x 2 hops
        EXPECT_NEAR(engine.result(flow).fct_us,
                    simulate_flow({{0.5, 1.0}, {2.0, 0.3}}, spec).fct_us, 1e-12);
    }
}

TEST(Engine, Validation) {
    EngineConfig bad;
    bad.link_bandwidth_gbps = 0.0;
    EXPECT_THROW(Engine{bad}, std::invalid_argument);
    Engine engine;
    EXPECT_THROW((void)engine.add_link(-1.0, 0.0), std::invalid_argument);
    EXPECT_THROW((void)engine.add_route(std::vector<LinkId>{42}),
                 std::invalid_argument);
    const RouteId route = engine.add_route(std::vector<HopSpec>{{0.5, 1.0}});
    EXPECT_THROW((void)engine.add_flow(FlowSpec{}, route + 1),
                 std::invalid_argument);
    engine.run();
    EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(FlowSim, EffectivePayloadValidatesDegenerateSpecs) {
    FlowSpec spec;
    spec.mtu_bytes = 0;  // would divide by a non-positive packet payload
    EXPECT_THROW((void)effective_payload(spec), std::invalid_argument);
    spec.mtu_bytes = -1500;
    EXPECT_THROW((void)effective_payload(spec), std::invalid_argument);
    spec.mtu_bytes = 40;  // MTU exactly the base headers: zero payload room
    spec.base_header_bytes = 40;
    EXPECT_THROW((void)effective_payload(spec), std::invalid_argument);
    spec.mtu_bytes = 30;  // MTU below the base headers
    EXPECT_THROW((void)effective_payload(spec), std::invalid_argument);
    spec.mtu_bytes = 1500;
    spec.base_header_bytes = -1;
    EXPECT_THROW((void)effective_payload(spec), std::invalid_argument);
    spec.base_header_bytes = 40;
    spec.overhead_bytes = -1;
    EXPECT_THROW((void)effective_payload(spec), std::invalid_argument);
    spec.overhead_bytes = 0;
    EXPECT_EQ(effective_payload(spec), 1460);
}

TEST(Testbed, LinearAllProgrammable) {
    const net::Network n = make_testbed();
    EXPECT_EQ(n.switch_count(), 3u);
    EXPECT_EQ(n.link_count(), 2u);
    EXPECT_EQ(n.programmable_switches().size(), 3u);
    EXPECT_TRUE(n.is_connected());
    TestbedConfig bad;
    bad.switch_count = 0;
    EXPECT_THROW((void)make_testbed(bad), std::invalid_argument);
}

}  // namespace
}  // namespace hermes::sim
