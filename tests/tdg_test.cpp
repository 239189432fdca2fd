#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tdg/tdg.h"
#include "util/rng.h"

namespace hermes::tdg {
namespace {

Mat mat(const std::string& name, double resource = 0.1) {
    return Mat(name, {header_field("hdr." + name, 2)},
               {Action{"act_" + name, {metadata_field("meta." + name, 4)}}}, 16, resource);
}

Tdg diamond() {
    // a -> b, a -> c, b -> d, c -> d
    Tdg t;
    const NodeId a = t.add_node(mat("a"));
    const NodeId b = t.add_node(mat("b"));
    const NodeId c = t.add_node(mat("c"));
    const NodeId d = t.add_node(mat("d"));
    t.add_edge(a, b, DepType::kMatch);
    t.add_edge(a, c, DepType::kAction);
    t.add_edge(b, d, DepType::kMatch);
    t.add_edge(c, d, DepType::kSuccessor);
    return t;
}

TEST(Tdg, AddNodesAndEdges) {
    const Tdg t = diamond();
    EXPECT_EQ(t.node_count(), 4u);
    EXPECT_EQ(t.edge_count(), 4u);
    EXPECT_EQ(t.node(0).name(), "a");
}

TEST(Tdg, EdgeValidation) {
    Tdg t;
    const NodeId a = t.add_node(mat("a"));
    const NodeId b = t.add_node(mat("b"));
    EXPECT_THROW(t.add_edge(a, 9, DepType::kMatch), std::out_of_range);
    EXPECT_THROW(t.add_edge(a, a, DepType::kMatch), std::invalid_argument);
    t.add_edge(a, b, DepType::kMatch);
    EXPECT_THROW(t.add_edge(a, b, DepType::kAction), std::invalid_argument);
}

TEST(Tdg, FindEdge) {
    const Tdg t = diamond();
    const auto e = t.find_edge(0, 1);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->type, DepType::kMatch);
    EXPECT_FALSE(t.find_edge(1, 0).has_value());
    EXPECT_FALSE(t.find_edge(0, 3).has_value());
}

TEST(Tdg, SuccessorsPredecessors) {
    const Tdg t = diamond();
    EXPECT_EQ(t.successors(0), (std::vector<NodeId>{1, 2}));
    EXPECT_EQ(t.predecessors(3), (std::vector<NodeId>{1, 2}));
    EXPECT_TRUE(t.predecessors(0).empty());
    EXPECT_TRUE(t.successors(3).empty());
}

TEST(Tdg, TopologicalOrderRespectsEdges) {
    const Tdg t = diamond();
    const auto order = t.topological_order();
    ASSERT_EQ(order.size(), 4u);
    std::vector<std::size_t> pos(4);
    for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
    for (const Edge& e : t.edges()) EXPECT_LT(pos[e.from], pos[e.to]);
}

TEST(Tdg, TopologicalOrderDeterministic) {
    // Independent nodes come out in id order (min-heap tie-break).
    Tdg t;
    t.add_node(mat("x"));
    t.add_node(mat("y"));
    t.add_node(mat("z"));
    EXPECT_EQ(t.topological_order(), (std::vector<NodeId>{0, 1, 2}));
}

TEST(Tdg, CycleDetected) {
    Tdg t;
    const NodeId a = t.add_node(mat("a"));
    const NodeId b = t.add_node(mat("b"));
    const NodeId c = t.add_node(mat("c"));
    t.add_edge(a, b, DepType::kMatch);
    t.add_edge(b, c, DepType::kMatch);
    t.add_edge(c, a, DepType::kMatch);
    EXPECT_FALSE(t.is_dag());
    EXPECT_THROW((void)t.topological_order(), std::runtime_error);
}

TEST(Tdg, EmptyGraphIsDag) {
    const Tdg t;
    EXPECT_TRUE(t.is_dag());
    EXPECT_TRUE(t.topological_order().empty());
}

// The Kahn loop as first written: every pop rescans the whole edge list,
// O(V·E). The oracle for the edge-indexed topological_order().
std::vector<NodeId> rescanning_kahn(const Tdg& t) {
    std::vector<std::size_t> in_degree(t.node_count(), 0);
    for (const Edge& e : t.edges()) ++in_degree[e.to];
    std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
    for (NodeId v = 0; v < t.node_count(); ++v) {
        if (in_degree[v] == 0) ready.push(v);
    }
    std::vector<NodeId> order;
    while (!ready.empty()) {
        const NodeId v = ready.top();
        ready.pop();
        order.push_back(v);
        for (const Edge& e : t.edges()) {
            if (e.from == v && --in_degree[e.to] == 0) ready.push(e.to);
        }
    }
    if (order.size() != t.node_count()) throw std::runtime_error("cycle");
    return order;
}

// A seeded random DAG whose node ids are a shuffle of its ranks (edges run
// from lower to higher rank) and whose edges are inserted in shuffled order.
Tdg random_dag(util::SplitMix64& rng) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 60));
    std::vector<std::size_t> id_of_rank(n);
    for (std::size_t r = 0; r < n; ++r) id_of_rank[r] = r;
    rng.shuffle(id_of_rank);
    const double density = rng.uniform_real(0.0, 0.3);
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = a + 1; b < n; ++b) {
            if (rng.chance(density)) edges.emplace_back(id_of_rank[a], id_of_rank[b]);
        }
    }
    rng.shuffle(edges);
    Tdg t;
    for (std::size_t v = 0; v < n; ++v) t.add_node(mat("n" + std::to_string(v)));
    for (const auto& [from, to] : edges) t.add_edge(from, to, DepType::kMatch);
    return t;
}

TEST(Tdg, TopologicalOrderMatchesRescanningKahnOnRandomDags) {
    util::SplitMix64 rng(0x70D0);
    for (int instance = 0; instance < 500; ++instance) {
        Tdg t = random_dag(rng);
        ASSERT_EQ(t.topological_order(), rescanning_kahn(t)) << "instance " << instance;
        if (t.edge_count() == 0) continue;
        // The reverse of an existing edge closes a cycle: both must refuse.
        const Edge e = t.edges()[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(t.edge_count()) - 1))];
        t.add_edge(e.to, e.from, DepType::kMatch);
        EXPECT_THROW((void)rescanning_kahn(t), std::runtime_error);
        EXPECT_THROW((void)t.topological_order(), std::runtime_error) << "instance " << instance;
    }
}

TEST(Tdg, TotalResourceUnits) {
    Tdg t;
    t.add_node(mat("a", 0.25));
    t.add_node(mat("b", 0.5));
    EXPECT_DOUBLE_EQ(t.total_resource_units(), 0.75);
}

TEST(Tdg, TotalMetadataBytesAfterAnnotation) {
    Tdg t = diamond();
    t.edges()[0].metadata_bytes = 4;
    t.edges()[2].metadata_bytes = 6;
    EXPECT_EQ(t.total_metadata_bytes(), 10);
}

TEST(Tdg, NodeByName) {
    const Tdg t = diamond();
    EXPECT_EQ(t.node_by_name("c"), 2u);
    EXPECT_THROW((void)t.node_by_name("nope"), std::out_of_range);
}

TEST(Tdg, NodeByNameAmbiguous) {
    Tdg t;
    t.add_node(mat("dup"));
    t.add_node(mat("dup"));
    EXPECT_THROW((void)t.node_by_name("dup"), std::out_of_range);
}

TEST(Tdg, DepTypeNames) {
    EXPECT_STREQ(to_string(DepType::kMatch), "match");
    EXPECT_STREQ(to_string(DepType::kAction), "action");
    EXPECT_STREQ(to_string(DepType::kReverseMatch), "reverse-match");
    EXPECT_STREQ(to_string(DepType::kSuccessor), "successor");
}

}  // namespace
}  // namespace hermes::tdg
