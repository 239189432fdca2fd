// Golden equivalence suite for the indexed Algorithm 2 rewrite.
//
// The production splitter/coalescer in core/greedy.h replaced the seed's
// edge-rescanning implementations with adjacency-indexed incremental ones;
// the seed code survives verbatim in core/greedy_reference.h. These tests
// pin the rewrite to the reference: identical segment output on seeded
// random TDGs across geometries, identical deployments from the
// oracle-backed anchor search, oracle answers identical to the free path
// functions, and a reused SegmentPacker packing every segment as a fresh
// whole-TDG pack does.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <stdexcept>

#include "core/greedy.h"
#include "core/greedy_reference.h"
#include "net/builders.h"
#include "net/path_oracle.h"
#include "net/topozoo.h"
#include "prog/synthetic.h"
#include "sim/testbed.h"
#include "tdg/analyzer.h"

namespace hermes::core {
namespace {

using tdg::DepType;
using tdg::NodeId;

// Random DAG with forward-only edges (node ids are a valid topological
// order), random per-MAT resources, and random metadata bytes per edge.
tdg::Tdg random_tdg(std::mt19937& rng, std::size_t node_count, double edge_prob) {
    tdg::Tdg t;
    std::uniform_real_distribution<double> resource(0.1, 1.2);
    std::uniform_int_distribution<int> bytes(1, 16);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (std::size_t v = 0; v < node_count; ++v) {
        const std::string name = "m" + std::to_string(v);
        t.add_node(tdg::Mat(name, {tdg::header_field("h_" + name, 2)},
                            {tdg::Action{"act", {tdg::metadata_field("md_" + name, 4)}}},
                            16, resource(rng)));
    }
    for (std::size_t a = 0; a < node_count; ++a) {
        for (std::size_t b = a + 1; b < node_count; ++b) {
            if (coin(rng) > edge_prob) continue;
            t.add_edge(static_cast<NodeId>(a), static_cast<NodeId>(b), DepType::kMatch);
            t.edges().back().metadata_bytes = bytes(rng);
        }
    }
    return t;
}

std::vector<NodeId> all_nodes(const tdg::Tdg& t) {
    std::vector<NodeId> nodes(t.node_count());
    for (NodeId v = 0; v < t.node_count(); ++v) nodes[v] = v;
    return nodes;
}

struct Geometry {
    int stages;
    double stage_capacity;
};
constexpr Geometry kGeometries[] = {{2, 1.0}, {4, 2.0}, {12, 4.0}, {20, 10.0}};

TEST(GreedyEquivalence, SplitTdgMatchesReferenceOnRandomTdgs) {
    std::mt19937 rng(0x5eed);
    for (int trial = 0; trial < 30; ++trial) {
        std::uniform_int_distribution<std::size_t> size(2, 60);
        const tdg::Tdg t = random_tdg(rng, size(rng), 0.15);
        for (const Geometry& g : kGeometries) {
            std::vector<std::vector<NodeId>> ours, theirs;
            bool our_throw = false, their_throw = false;
            try {
                ours = split_tdg(t, all_nodes(t), g.stages, g.stage_capacity);
            } catch (const std::runtime_error&) {
                our_throw = true;
            }
            try {
                theirs = reference::split_tdg(t, all_nodes(t), g.stages, g.stage_capacity);
            } catch (const std::runtime_error&) {
                their_throw = true;
            }
            ASSERT_EQ(our_throw, their_throw)
                << "trial " << trial << " stages=" << g.stages;
            if (!our_throw) {
                ASSERT_EQ(ours, theirs) << "trial " << trial << " stages=" << g.stages;
            }
        }
    }
}

TEST(GreedyEquivalence, SplitFirstFitMatchesReferenceOnRandomTdgs) {
    std::mt19937 rng(0xf00d);
    for (int trial = 0; trial < 30; ++trial) {
        std::uniform_int_distribution<std::size_t> size(2, 60);
        const tdg::Tdg t = random_tdg(rng, size(rng), 0.2);
        for (const Geometry& g : kGeometries) {
            std::vector<std::vector<NodeId>> ours, theirs;
            bool our_throw = false, their_throw = false;
            try {
                ours = split_tdg_first_fit(t, all_nodes(t), g.stages, g.stage_capacity);
            } catch (const std::runtime_error&) {
                our_throw = true;
            }
            try {
                theirs = reference::split_tdg_first_fit(t, all_nodes(t), g.stages,
                                                        g.stage_capacity);
            } catch (const std::runtime_error&) {
                their_throw = true;
            }
            ASSERT_EQ(our_throw, their_throw)
                << "trial " << trial << " stages=" << g.stages;
            if (!our_throw) {
                ASSERT_EQ(ours, theirs) << "trial " << trial << " stages=" << g.stages;
            }
        }
    }
}

TEST(GreedyEquivalence, CoalesceMatchesReferenceOnRandomTdgs) {
    std::mt19937 rng(0xc0a1);
    for (int trial = 0; trial < 30; ++trial) {
        std::uniform_int_distribution<std::size_t> size(4, 60);
        const tdg::Tdg t = random_tdg(rng, size(rng), 0.15);
        // Over-fragment with a tight geometry, coalesce against a roomier
        // one (as deploy_segments_on_chain does when switches are scarce).
        std::vector<std::vector<NodeId>> fragments;
        try {
            fragments = reference::split_tdg(t, all_nodes(t), 2, 1.0);
        } catch (const std::runtime_error&) {
            continue;  // a single MAT exceeded the tight stage
        }
        for (std::size_t target = 1; target <= fragments.size(); ++target) {
            const auto ours = coalesce_segments(t, fragments, target, 12, 4.0);
            const auto theirs = reference::coalesce_segments(t, fragments, target, 12, 4.0);
            ASSERT_EQ(ours, theirs) << "trial " << trial << " target=" << target;
        }
    }
}

TEST(GreedyEquivalence, PaperWorkloadSplitsMatchReference) {
    for (const int count : {5, 15, 30}) {
        const auto programs = prog::paper_workload(count, 0xbeef);
        std::vector<tdg::Tdg> tdgs;
        for (const auto& p : programs) tdgs.push_back(p.to_tdg());
        const tdg::Tdg merged = tdg::analyze_programs(std::move(tdgs));
        EXPECT_EQ(split_tdg(merged, all_nodes(merged), 12, 4.0),
                  reference::split_tdg(merged, all_nodes(merged), 12, 4.0));
        EXPECT_EQ(split_tdg_first_fit(merged, all_nodes(merged), 12, 4.0),
                  reference::split_tdg_first_fit(merged, all_nodes(merged), 12, 4.0));
    }
}

// assign_stages as it was before SegmentPacker::pack: a fresh packer
// offered the whole TDG's topological order filtered by membership.
std::optional<std::vector<int>> fresh_pack(const tdg::Tdg& t,
                                           const std::vector<NodeId>& segment,
                                           const Geometry& g) {
    std::vector<char> member(t.node_count(), 0);
    for (const NodeId v : segment) {
        if (v >= t.node_count()) throw std::out_of_range("fresh_pack: bad node id");
        if (member[v]) throw std::invalid_argument("fresh_pack: duplicate node");
        member[v] = 1;
    }
    SegmentPacker packer(t, g.stages, g.stage_capacity);
    for (const NodeId v : t.topological_order()) {
        if (member[v] && packer.place(v) < 0) return std::nullopt;
    }
    std::vector<int> stages(segment.size());
    for (std::size_t i = 0; i < segment.size(); ++i) stages[i] = packer.stage_of(segment[i]);
    return stages;
}

TEST(GreedyEquivalence, ReusedSegmentPackerMatchesFreshPackOnRandomSubsets) {
    std::mt19937 rng(0xbac4);
    std::size_t refused = 0, fitted = 0, threw = 0, after_failure = 0, outside_preds = 0;
    for (int trial = 0; trial < 3; ++trial) {
        std::uniform_int_distribution<std::size_t> size(8, 60);
        const tdg::Tdg t = random_tdg(rng, size(rng), 0.15);
        for (const Geometry& g : kGeometries) {
            SegmentPacker packer(t, g.stages, g.stage_capacity);
            bool last_failed = false;
            for (int round = 0; round < 200; ++round) {
                // A random subset, in random order, of random density.
                const double density = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
                std::bernoulli_distribution keep(density);
                std::vector<char> member(t.node_count(), 0);
                std::vector<NodeId> segment;
                for (NodeId v = 0; v < t.node_count(); ++v) {
                    if (keep(rng)) {
                        member[v] = 1;
                        segment.push_back(v);
                    }
                }
                std::shuffle(segment.begin(), segment.end(), rng);
                const std::string where = "trial " + std::to_string(trial) + " stages " +
                                          std::to_string(g.stages) + " round " +
                                          std::to_string(round);

                // Every 13th subset carries a repeated or an out-of-range id.
                if (round % 13 == 12) {
                    if (round % 2 == 0 && !segment.empty()) {
                        segment.push_back(segment.front());
                        EXPECT_THROW((void)packer.pack(segment), std::invalid_argument) << where;
                        EXPECT_THROW((void)fresh_pack(t, segment, g), std::invalid_argument);
                    } else {
                        segment.insert(segment.begin(), t.node_count() + 3);
                        EXPECT_THROW((void)packer.pack(segment), std::out_of_range) << where;
                        EXPECT_THROW((void)fresh_pack(t, segment, g), std::out_of_range);
                    }
                    ++threw;
                    last_failed = true;
                    continue;
                }

                const std::optional<std::vector<int>> expected = fresh_pack(t, segment, g);
                ASSERT_EQ(packer.pack(segment), expected) << where;
                double total = 0.0;
                for (const NodeId v : segment) total += t.node(v).resource_units();
                const bool aggregate = total <= g.stages * g.stage_capacity + 1e-9;
                ASSERT_EQ(packer.fits(segment), aggregate && expected.has_value()) << where;

                if (last_failed) ++after_failure;
                last_failed = !expected.has_value();
                ++(expected ? fitted : refused);
                for (const tdg::Edge& e : t.edges()) {
                    if (member[e.to] && !member[e.from]) {
                        ++outside_preds;
                        break;
                    }
                }
            }
        }
    }
    // The sequence covered refusals, throws, packs right after either, and
    // members whose predecessors lie outside the segment.
    EXPECT_GT(fitted, 0u);
    EXPECT_GT(refused, 0u);
    EXPECT_GT(threw, 0u);
    EXPECT_GT(after_failure, 0u);
    EXPECT_GT(outside_preds, 0u);
}

bool same_deployment(const GreedyResult& a, const GreedyResult& b) {
    if (a.anchor != b.anchor || a.segments != b.segments) return false;
    if (a.deployment.placements.size() != b.deployment.placements.size()) return false;
    for (std::size_t v = 0; v < a.deployment.placements.size(); ++v) {
        if (a.deployment.placements[v].sw != b.deployment.placements[v].sw ||
            a.deployment.placements[v].stage != b.deployment.placements[v].stage) {
            return false;
        }
    }
    if (a.deployment.routes.size() != b.deployment.routes.size()) return false;
    for (const auto& [key, path] : a.deployment.routes) {
        const auto it = b.deployment.routes.find(key);
        if (it == b.deployment.routes.end()) return false;
        if (it->second.switches != path.switches) return false;
    }
    return true;
}

TEST(GreedyEquivalence, FullPipelineMatchesReferenceOnTestbed) {
    const auto programs = prog::paper_workload(8, 0x1234);
    std::vector<tdg::Tdg> tdgs;
    for (const auto& p : programs) tdgs.push_back(p.to_tdg());
    const tdg::Tdg merged = tdg::analyze_programs(std::move(tdgs));
    const net::Network n = sim::make_testbed({});
    const GreedyResult ours = greedy_deploy(merged, n);
    const GreedyResult theirs = reference::greedy_deploy(merged, n);
    EXPECT_TRUE(same_deployment(ours, theirs));
}

TEST(GreedyEquivalence, AnchorSearchMatchesSeedPipelineOnWan) {
    const auto programs = prog::paper_workload(12, 0x777);
    std::vector<tdg::Tdg> tdgs;
    for (const auto& p : programs) tdgs.push_back(p.to_tdg());
    const tdg::Tdg merged = tdg::analyze_programs(std::move(tdgs));
    const net::Network n = net::table3_topology(3);

    // The cached search must match the uncached seed pipeline.
    net::PathOracle oracle(n);
    const GreedyResult base = greedy_deploy(merged, n, {}, &oracle);
    const GreedyResult seed = reference::greedy_deploy(merged, n);
    EXPECT_TRUE(same_deployment(base, seed));
}

TEST(GreedyEquivalence, OracleMatchesFreePathFunctions) {
    const net::Network n = net::table3_topology(5);
    net::PathOracle oracle(n);
    for (net::SwitchId src = 0; src < n.switch_count(); src += 3) {
        EXPECT_EQ(oracle.latencies(src), net::shortest_latencies(n, src));
        for (net::SwitchId dst = 0; dst < n.switch_count(); dst += 5) {
            const auto cached = oracle.path(src, dst);
            const auto direct = net::shortest_path(n, src, dst);
            ASSERT_EQ(cached.has_value(), direct.has_value());
            if (cached) {
                EXPECT_EQ(cached->switches, direct->switches);
                EXPECT_EQ(cached->latency_us, direct->latency_us);
                EXPECT_EQ(oracle.path_latency(src, dst), direct->latency_us);
            }
            // k slice-from-cache: ask for 4, then 2 (served from the cached
            // 4), then 6 (recompute) — all must equal the free function.
            for (const std::size_t k : {4u, 2u, 6u}) {
                const auto cached_k = oracle.k_paths(src, dst, k);
                const auto direct_k = net::k_shortest_paths(n, src, dst, k);
                ASSERT_EQ(cached_k.size(), direct_k.size());
                for (std::size_t i = 0; i < cached_k.size(); ++i) {
                    EXPECT_EQ(cached_k[i].switches, direct_k[i].switches);
                }
            }
        }
    }
    const auto stats = oracle.stats();
    EXPECT_GT(stats.tree_hits, 0u);
    EXPECT_GT(stats.k_hits, 0u);
}

}  // namespace
}  // namespace hermes::core
