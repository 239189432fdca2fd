#include <gtest/gtest.h>

#include "core/deployment.h"

namespace hermes::core {
namespace {

using tdg::DepType;
using tdg::NodeId;

tdg::Mat mat(const std::string& name, double resource) {
    return tdg::Mat(name, {tdg::header_field("h_" + name, 2)},
                    {tdg::Action{"a", {tdg::metadata_field("m_" + name, 4)}}}, 16,
                    resource);
}

// chain a->b->c->d with configurable resources
tdg::Tdg chain(const std::vector<double>& resources) {
    tdg::Tdg t;
    for (std::size_t i = 0; i < resources.size(); ++i) {
        t.add_node(mat("n" + std::to_string(i), resources[i]));
    }
    for (std::size_t i = 1; i < resources.size(); ++i) {
        t.add_edge(i - 1, i, DepType::kMatch);
    }
    return t;
}

TEST(Deployment, SwitchOfAndOccupied) {
    Deployment d;
    d.placements = {{2, 0}, {2, 1}, {5, 0}};
    EXPECT_EQ(d.switch_of(0), 2u);
    EXPECT_EQ(d.occupied_switches(), (std::vector<net::SwitchId>{2, 5}));
    EXPECT_THROW((void)d.switch_of(3), std::out_of_range);
}

TEST(Deployment, MatsOnSortsByStage) {
    Deployment d;
    d.placements = {{1, 3}, {1, 0}, {0, 0}, {1, 0}};
    EXPECT_EQ(d.mats_on(1), (std::vector<NodeId>{1, 3, 0}));
    EXPECT_EQ(d.mats_on(0), (std::vector<NodeId>{2}));
    EXPECT_TRUE(d.mats_on(9).empty());
}

TEST(StagePacker, FirstFit) {
    StagePacker p(3, 1.0);
    EXPECT_EQ(p.place(0.6, 0), 0);
    EXPECT_EQ(p.place(0.6, 0), 1);  // does not fit stage 0 anymore
    EXPECT_EQ(p.place(0.4, 0), 0);
    EXPECT_EQ(p.place(0.5, 2), 2);  // min_stage honored
    EXPECT_FALSE(p.place(0.7, 2).has_value());
    EXPECT_FALSE(p.place(1.5, 0).has_value());  // larger than a stage
    EXPECT_NEAR(p.remaining_total(), 3.0 - 2.1, 1e-9);
}

TEST(StagePacker, Validation) {
    EXPECT_THROW(StagePacker(0, 1.0), std::invalid_argument);
    StagePacker p(2, 1.0);
    EXPECT_THROW(p.commit(5, 0.1), std::out_of_range);
}

TEST(ChainFirstFit, FollowsPredecessorsAndReportsExhaustion) {
    // a -> b -> c, 0.6 units each, on a chain of two one-stage switches.
    const tdg::Tdg t = chain({0.6, 0.6, 0.6});
    const std::vector<net::SwitchId> switches{7, 3};
    std::vector<StagePacker> packers{StagePacker(1, 1.0), StagePacker(1, 1.0)};
    Deployment d;
    std::vector<bool> placed;
    EXPECT_FALSE(chain_first_fit(t, {0, 1, 2}, switches, packers, d, placed));
    EXPECT_EQ(d.placements[0].sw, 7u);
    EXPECT_EQ(d.placements[1].sw, 3u);  // after its predecessor's switch
    EXPECT_EQ(placed, (std::vector<bool>{true, true, false}));  // c found no slot
}

TEST(AssignStages, RespectsDependencies) {
    const tdg::Tdg t = chain({0.4, 0.4, 0.4});
    const auto stages = assign_stages(t, {0, 1, 2}, 4, 1.0);
    ASSERT_TRUE(stages.has_value());
    EXPECT_LT((*stages)[0], (*stages)[1]);
    EXPECT_LT((*stages)[1], (*stages)[2]);
}

TEST(AssignStages, PacksIndependentMatsIntoOneStage) {
    tdg::Tdg t;
    t.add_node(mat("a", 0.3));
    t.add_node(mat("b", 0.3));
    t.add_node(mat("c", 0.3));
    const auto stages = assign_stages(t, {0, 1, 2}, 4, 1.0);
    ASSERT_TRUE(stages.has_value());
    EXPECT_EQ((*stages)[0], 0);
    EXPECT_EQ((*stages)[1], 0);
    EXPECT_EQ((*stages)[2], 0);
}

TEST(AssignStages, SplitsWhenStageFull) {
    tdg::Tdg t;
    t.add_node(mat("a", 0.6));
    t.add_node(mat("b", 0.6));
    const auto stages = assign_stages(t, {0, 1}, 2, 1.0);
    ASSERT_TRUE(stages.has_value());
    EXPECT_NE((*stages)[0], (*stages)[1]);
}

TEST(AssignStages, FailsWhenDepthExceedsStages) {
    const tdg::Tdg t = chain({0.1, 0.1, 0.1});
    EXPECT_FALSE(assign_stages(t, {0, 1, 2}, 2, 1.0).has_value());
}

TEST(AssignStages, FailsWhenMatLargerThanStage) {
    const tdg::Tdg t = chain({1.5});
    EXPECT_FALSE(assign_stages(t, {0}, 4, 1.0).has_value());
}

TEST(AssignStages, SubsetIgnoresOutsidePredecessors) {
    // Only intra-segment edges constrain stage order.
    const tdg::Tdg t = chain({0.2, 0.2, 0.2});
    const auto stages = assign_stages(t, {2}, 1, 1.0);
    ASSERT_TRUE(stages.has_value());
    EXPECT_EQ((*stages)[0], 0);
}

TEST(AssignStages, Validation) {
    const tdg::Tdg t = chain({0.2});
    EXPECT_THROW((void)assign_stages(t, {0}, 0, 1.0), std::invalid_argument);
    EXPECT_THROW((void)assign_stages(t, {0, 0}, 2, 1.0), std::invalid_argument);
}

TEST(SegmentFits, AggregateAndPackingChecks) {
    const tdg::Tdg t = chain({0.6, 0.6, 0.6});
    EXPECT_TRUE(segment_fits(t, {0, 1, 2}, 3, 1.0));
    EXPECT_FALSE(segment_fits(t, {0, 1, 2}, 1, 1.0));  // depth 3 > 1 stage
    EXPECT_FALSE(segment_fits(t, {0, 1, 2}, 2, 0.7));  // 1.8 > 1.4 aggregate
}

TEST(SegmentFits, EmptySegmentFits) {
    const tdg::Tdg t = chain({0.5});
    EXPECT_TRUE(segment_fits(t, {}, 2, 1.0));
}

}  // namespace
}  // namespace hermes::core
