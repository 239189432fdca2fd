// Tests for the benchmark's own code: input generators, the percentile
// helper, and the metric list BENCHMARK.json promises.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <random>
#include <set>
#include <sstream>

#include "gen.h"
#include "net/topozoo.h"
#include "report.h"
#include "stats.h"
#include "util/json.h"

namespace layerbench {
namespace {

using namespace hermes;

struct Topology {
    std::size_t switches = 0;
    LinkList links;
};

Topology table3(int id) {
    const net::Network n = net::table3_topology(id);
    Topology t;
    t.switches = n.switch_count();
    for (const net::Link& l : n.links()) t.links.emplace_back(l.a, l.b);
    return t;
}

std::string joined(const std::vector<ChurnRequest>& script) {
    std::string out;
    for (const ChurnRequest& r : script) out += r.line + "\n";
    return out;
}

TEST(ChurnScript, SameSeedSameBytesOtherSeedOtherBytes) {
    const Topology t = table3(1);
    const std::string a = joined(churn_script(t.switches, t.links, 7, 1000, 64, 8));
    EXPECT_EQ(a, joined(churn_script(t.switches, t.links, 7, 1000, 64, 8)));
    EXPECT_NE(a, joined(churn_script(t.switches, t.links, 8, 1000, 64, 8)));
}

// Replays a script against the real topology, independently of the
// generator's own bookkeeping.
TEST(ChurnScript, OneFaultAtATimeNoBridgeNoUnknownTenant) {
    const Topology t = table3(1);
    for (const std::uint64_t seed : {0ULL, 1ULL, 2ULL, 99ULL, 123456789ULL}) {
        const std::vector<ChurnRequest> script =
            churn_script(t.switches, t.links, seed, 1000, 64, 8);
        ASSERT_GE(script.size(), 1000u);
        ASSERT_LT(script.size(), 1000u + 2 * 64);
        std::size_t mutations = 0;
        for (const ChurnRequest& r : script) mutations += r.op != ChurnOp::kQuery;
        EXPECT_EQ(mutations % 64, 8u);
        net::Network n = net::table3_topology(1);
        std::set<std::string> installed;
        int open = 0;
        std::size_t faults = 0;
        for (std::size_t i = 0; i < script.size(); ++i) {
            const util::Json r = util::parse_json(script[i].line).value();
            ASSERT_EQ(r.get("id").int_value(), static_cast<std::int64_t>(i + 1));
            const std::string op = r.get("op").string_value();
            if (op == "add_program") {
                EXPECT_TRUE(installed.insert(r.get("name").string_value()).second);
                EXPECT_LE(installed.size(), kMaxTenants);
            } else if (op == "remove_program") {
                EXPECT_EQ(installed.erase(r.get("name").string_value()), 1u)
                    << "seed " << seed << " removes an unknown tenant at " << i;
                EXPECT_FALSE(installed.empty());
            } else if (op == "inject_fault") {
                ++faults;
                EXPECT_EQ(open, 0) << "seed " << seed << " opens a second fault at " << i;
                ++open;
                const auto a = static_cast<net::SwitchId>(r.get("a").int_value());
                const auto b = static_cast<net::SwitchId>(r.get("b").int_value());
                ASSERT_TRUE(n.fail_link(a, b));
                // Still one connected component.
                std::vector<bool> seen(n.switch_count(), false);
                std::vector<net::SwitchId> stack{0};
                seen[0] = true;
                while (!stack.empty()) {
                    const net::SwitchId u = stack.back();
                    stack.pop_back();
                    for (const net::SwitchId w : n.neighbors(u)) {
                        if (!seen[w]) {
                            seen[w] = true;
                            stack.push_back(w);
                        }
                    }
                }
                EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool s) { return s; }))
                    << "seed " << seed << " takes down bridge " << a << "-" << b;
            } else if (op == "recover") {
                EXPECT_EQ(open, 1);
                --open;
                ASSERT_TRUE(n.recover_link(static_cast<net::SwitchId>(r.get("a").int_value()),
                                           static_cast<net::SwitchId>(r.get("b").int_value())));
            }
        }
        EXPECT_EQ(open, 0);
        EXPECT_EQ(script.back().op, ChurnOp::kQuery);
        // About a tenth of the requests are fault or recover requests.
        EXPECT_GT(2 * faults, script.size() / 20);
        EXPECT_LT(2 * faults, script.size() / 5);
    }
}

TEST(NonBridgeLinks, DropsBridgesAndParallelLinks) {
    // A triangle 0-1-2 with a tail 2-3 and a doubled edge 3-4.
    const LinkList links = {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 3}};
    const LinkList expected = {{0, 1}, {1, 2}, {2, 0}};
    EXPECT_EQ(non_bridge_links(5, links), expected);
}

TEST(FlowPlan, SameSeedSameBytesOtherSeedOtherBytes) {
    const std::string a = serialize(flow_plan(76, 3));
    EXPECT_EQ(a, serialize(flow_plan(76, 3)));
    EXPECT_NE(a, serialize(flow_plan(76, 4)));
    const FlowPlan plan = flow_plan(76, 3);
    EXPECT_EQ(plan.flows.size(), 1000000u);
    EXPECT_EQ(plan.shared_routes.size(), 512u);
}

TEST(Percentile, NearestRankAndTenBeyond) {
    std::vector<double> samples(1000);
    std::iota(samples.begin(), samples.end(), 1.0);  // 1..1000
    std::shuffle(samples.begin(), samples.end(), std::mt19937(5));
    EXPECT_EQ(percentile(samples, 50.0), 500.0);
    EXPECT_EQ(percentile(samples, 99.0), 990.0);
    EXPECT_EQ(percentile(samples, 100.0), 1000.0);
    EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
    EXPECT_EQ(samples_beyond(1000, 99.9), 1u);

    // 1000 samples support p99 (10 beyond) but not p99.9 (1 beyond).
    Tail tail = highest_supported_tail(samples);
    EXPECT_EQ(tail.p, 99.0);
    EXPECT_EQ(tail.value, 990.0);
    EXPECT_EQ(tail.beyond, 10u);

    // 999 samples leave only 9 beyond p99: the tail falls back to p90.
    samples.pop_back();
    tail = highest_supported_tail(samples);
    EXPECT_EQ(tail.p, 90.0);
    EXPECT_EQ(tail.beyond, 999u - 900u);

    // 10000 samples support p99.9 (10 beyond).
    std::vector<double> big(10000);
    std::iota(big.begin(), big.end(), 1.0);
    tail = highest_supported_tail(big);
    EXPECT_EQ(tail.p, 99.9);
    EXPECT_EQ(tail.value, 9990.0);

    // Too few samples for any rung.
    EXPECT_EQ(highest_supported_tail({1.0, 2.0, 3.0}).p, 0.0);
}

TEST(Median, OddAndEven) {
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(BenchmarkJson, PerLayerMetricsMatchTheTracedRuns) {
    std::ifstream in(LAYERBENCH_SOURCE_DIR "/../BENCHMARK.json");
    ASSERT_TRUE(in.good());
    std::stringstream text;
    text << in.rdbuf();
    const util::Json root = util::parse_json(text.str()).value();
    const util::JsonArray& per_layer = root.get("per_layer").array();
    const std::vector<LayerMetricSpec>& specs = layer_metric_specs();
    ASSERT_EQ(per_layer.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(per_layer[i].get("name").string_value(), specs[i].name);
        EXPECT_EQ(per_layer[i].get("unit").string_value(), specs[i].unit);
    }
}

}  // namespace
}  // namespace layerbench
