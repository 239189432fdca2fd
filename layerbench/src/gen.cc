#include "gen.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>

namespace layerbench {

namespace {

// True when the links other than links[skip] still connect a to b.
bool connected_without(std::size_t switch_count, const LinkList& links, std::size_t skip) {
    const auto [a, b] = links[skip];
    std::vector<std::vector<std::uint32_t>> adjacency(switch_count);
    for (std::size_t i = 0; i < links.size(); ++i) {
        if (i == skip) continue;
        adjacency[links[i].first].push_back(links[i].second);
        adjacency[links[i].second].push_back(links[i].first);
    }
    std::vector<bool> seen(switch_count, false);
    std::vector<std::uint32_t> stack{a};
    seen[a] = true;
    while (!stack.empty()) {
        const std::uint32_t u = stack.back();
        stack.pop_back();
        if (u == b) return true;
        for (const std::uint32_t w : adjacency[u]) {
            if (!seen[w]) {
                seen[w] = true;
                stack.push_back(w);
            }
        }
    }
    return false;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

LinkList non_bridge_links(std::size_t switch_count, const LinkList& links) {
    std::map<std::pair<std::uint32_t, std::uint32_t>, int> multiplicity;
    for (const auto& [a, b] : links) {
        if (a >= switch_count || b >= switch_count) {
            throw std::invalid_argument("link endpoint out of range");
        }
        ++multiplicity[{std::min(a, b), std::max(a, b)}];
    }
    LinkList out;
    for (std::size_t i = 0; i < links.size(); ++i) {
        const auto [a, b] = links[i];
        if (multiplicity[{std::min(a, b), std::max(a, b)}] != 1) continue;
        if (connected_without(switch_count, links, i)) out.push_back(links[i]);
    }
    return out;
}

std::vector<ChurnRequest> churn_script(std::size_t switch_count, const LinkList& links,
                                       std::uint64_t seed, std::size_t requests,
                                       std::size_t snapshot_interval, std::size_t tail_epochs) {
    if (requests < 4) throw std::invalid_argument("churn_script: at least 4 requests");
    if (snapshot_interval == 0) throw std::invalid_argument("churn_script: snapshot interval 0");
    const LinkList faultable = non_bridge_links(switch_count, links);

    Rng rng(seed ^ 0x636875726e5f7631ULL);
    std::vector<ChurnRequest> script;
    script.reserve(requests + snapshot_interval);
    std::size_t mutations = 0;
    std::vector<std::pair<std::string, std::size_t>> installed;  // name, pool index
    std::optional<std::pair<std::uint32_t, std::uint32_t>> open_fault;
    std::size_t next_tenant = 0;

    auto emit = [&](ChurnOp op, const std::string& fields) {
        std::string line = "{\"id\":" + std::to_string(script.size() + 1) + fields + "}";
        script.push_back({op, std::move(line)});
        if (op != ChurnOp::kQuery) ++mutations;
    };
    auto add = [&] {
        std::size_t program = 0;
        do {
            program = rng() % kProgramPool;
        } while (std::any_of(installed.begin(), installed.end(),
                             [&](const auto& t) { return t.second == program; }));
        std::string name = "t";
        name += std::to_string(next_tenant++);
        emit(ChurnOp::kAdd, ",\"op\":\"add_program\",\"name\":" + quoted(name) +
                                ",\"spec\":" +
                                quoted("synthetic:" + std::to_string(kPoolSeed) + ":" +
                                       std::to_string(program)));
        installed.emplace_back(name, program);
    };
    auto remove = [&] {
        const std::size_t pick = rng() % installed.size();
        emit(ChurnOp::kRemove,
             ",\"op\":\"remove_program\",\"name\":" + quoted(installed[pick].first));
        installed.erase(installed.begin() + static_cast<std::ptrdiff_t>(pick));
    };
    auto link_fields = [](const char* kind, std::pair<std::uint32_t, std::uint32_t> l) {
        return std::string(",\"kind\":\"") + kind + "\",\"a\":" + std::to_string(l.first) +
               ",\"b\":" + std::to_string(l.second);
    };
    auto recover = [&] {
        emit(ChurnOp::kRecover, ",\"op\":\"recover\"" + link_fields("link-up", *open_fault));
        open_fault.reset();
    };
    auto inject = [&] {
        open_fault = faultable[rng() % faultable.size()];
        emit(ChurnOp::kInjectFault,
             ",\"op\":\"inject_fault\"" + link_fields("link-down", *open_fault));
    };
    auto retarget = [&] { emit(ChurnOp::kRetarget, ",\"op\":\"retarget_traffic\""); };

    add();
    add();
    // Room for the closing mutation (recover or retarget) and the final
    // query; the closing mutation brings the epoch count to the target.
    while (script.size() + 2 < requests ||
           (mutations + 1) % snapshot_interval != tail_epochs % snapshot_interval) {
        const std::uint64_t roll = rng() % 100;
        if (roll < 45) {
            installed.size() < kMaxTenants ? add() : remove();
        } else if (roll < 65) {
            installed.size() > 1 ? remove() : add();
        } else if (roll < 72) {
            // 7% inject while healthy, 20% recover while faulted: about a
            // tenth of all requests are fault or recover requests.
            if (open_fault.has_value()) {
                recover();
            } else if (!faultable.empty()) {
                inject();
            } else {
                retarget();
            }
        } else if (roll < 85) {
            open_fault.has_value() ? recover() : retarget();
        } else if (roll < 93) {
            retarget();
        } else {
            emit(ChurnOp::kQuery, ",\"op\":\"query\"");
        }
    }
    if (open_fault.has_value()) {
        recover();
    } else {
        retarget();
    }
    emit(ChurnOp::kQuery, ",\"op\":\"query\"");
    return script;
}

FlowPlan flow_plan(std::size_t switch_count, std::uint64_t seed) {
    if (switch_count < 2) throw std::invalid_argument("flow_plan: need two switches");
    constexpr std::size_t kShared = 850000;
    constexpr std::size_t kGrouped = 100000;
    constexpr std::size_t kPrivate = 50000;
    constexpr std::size_t kRoutes = 512;
    Rng rng(seed ^ 0x666c6f77735f7631ULL);
    FlowPlan plan;
    while (plan.shared_routes.size() < kRoutes) {
        const auto a = static_cast<std::uint32_t>(rng() % switch_count);
        const auto b = static_cast<std::uint32_t>(rng() % switch_count);
        if (a != b) plan.shared_routes.emplace_back(a, b);
    }
    // Seeded offsets into the size patterns, so each seed also reshuffles
    // which flows are large.
    const std::uint64_t payload_offset = rng() % 61;
    const std::uint64_t overhead_offset = rng() % 96;

    // Flows per group-private route: a paced head the serialized admission
    // can prove disjoint, then a burst tail it must hand to the event loop.
    constexpr std::size_t kGroupFlows = 196;
    constexpr std::size_t kGroupHead = 156;

    plan.flows.reserve(kShared + kGrouped + kPrivate);
    for (std::size_t i = 0; i < kShared; ++i) {
        PlannedFlow f;
        f.regime = PlannedFlow::Regime::kShared;
        f.route = static_cast<std::uint32_t>(i % kRoutes);
        f.payload_bytes = 1460 * static_cast<std::int32_t>(1 + (i + payload_offset) % 61);
        f.overhead_bytes = static_cast<std::int32_t>((i + overhead_offset) % 96);
        f.start_us = static_cast<double>(i);
        plan.flows.push_back(f);
    }
    for (std::size_t i = 0; i < kGrouped; ++i) {
        const std::size_t g = i / kGroupFlows;
        const std::size_t j = i % kGroupFlows;
        PlannedFlow f;
        f.regime = PlannedFlow::Regime::kGrouped;
        f.route = static_cast<std::uint32_t>(g);
        f.payload_bytes = 1460 * static_cast<std::int32_t>(1 + (i + payload_offset) % 61);
        // 12 us pacing exceeds the largest flow's transmitter occupancy
        // (61 packets x 0.12 us), so the head of each train serializes.
        f.start_us = static_cast<double>(g) * 37.0 +
                     (j < kGroupHead ? static_cast<double>(j) * 12.0
                                     : static_cast<double>(kGroupHead) * 12.0 +
                                           static_cast<double>(j - kGroupHead) * 2.0);
        plan.flows.push_back(f);
    }
    for (std::size_t i = 0; i < kPrivate; ++i) {
        PlannedFlow f;
        f.regime = PlannedFlow::Regime::kPrivate;
        f.route = static_cast<std::uint32_t>(i);
        f.payload_bytes = 1460 * static_cast<std::int32_t>(1 + (i + payload_offset) % 13);
        f.start_us = static_cast<double>(i);
        plan.flows.push_back(f);
    }
    return plan;
}

std::string serialize(const FlowPlan& plan) {
    std::string out;
    auto put = [&out](const auto& value) {
        char bytes[sizeof value];
        std::memcpy(bytes, &value, sizeof value);
        out.append(bytes, sizeof value);
    };
    put(static_cast<std::uint64_t>(plan.shared_routes.size()));
    for (const auto& [a, b] : plan.shared_routes) {
        put(a);
        put(b);
    }
    put(static_cast<std::uint64_t>(plan.flows.size()));
    for (const PlannedFlow& f : plan.flows) {
        put(static_cast<std::uint8_t>(f.regime));
        put(f.route);
        put(f.payload_bytes);
        put(f.overhead_bytes);
        put(f.start_us);
    }
    return out;
}

}  // namespace layerbench
