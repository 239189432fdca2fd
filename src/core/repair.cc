#include "core/repair.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <optional>
#include <set>

#include "core/incremental.h"
#include "core/verifier.h"
#include "net/path_oracle.h"
#include "obs/obs.h"

namespace hermes::core {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::array<const char*, 9> kRungCounters = {
    "engine.rung.empty",   "engine.rung.intact",  "engine.rung.incremental",
    "engine.rung.retarget", "engine.rung.reroute", "engine.rung.replace",
    "engine.rung.greedy",  "engine.rung.milp",    "engine.rung.degraded"};

// Ordered switch pairs that exchange metadata under `placements`.
std::set<std::pair<net::SwitchId, net::SwitchId>> crossing_pairs(
    const tdg::Tdg& t, const std::vector<Placement>& placements) {
    std::set<std::pair<net::SwitchId, net::SwitchId>> pairs;
    for (const tdg::Edge& e : t.edges()) {
        const net::SwitchId u = placements[e.from].sw;
        const net::SwitchId v = placements[e.to].sw;
        if (u != v) pairs.insert({u, v});
    }
    return pairs;
}

// The delta rung's candidate: the surviving placements, the new suffix of
// `t` placed around them, and one route per pair that exchanges metadata.
// Counts into `rerouted` every recorded route (every route, when
// retargeting) that ends up on another path. nullopt when the suffix does
// not fit or some pair has no live path.
std::optional<Deployment> patch_in_place(const tdg::Tdg& t, const net::Network& net,
                                         net::PathOracle& oracle,
                                         const Deployment& previous,
                                         const std::vector<Placement>& surviving,
                                         bool retarget, std::int64_t& rerouted) {
    Deployment candidate;
    if (surviving.size() < t.node_count()) {
        Deployment existing;
        existing.placements = surviving;
        std::optional<Deployment> inc =
            incremental_deploy(t, surviving.size(), existing, net, &oracle);
        if (!inc.has_value()) return std::nullopt;
        candidate = std::move(*inc);
    } else {
        candidate.placements = surviving;
    }

    std::map<std::pair<net::SwitchId, net::SwitchId>, net::Path> routes;
    for (const auto& pair : crossing_pairs(t, candidate.placements)) {
        const auto it = candidate.routes.find(pair);
        const auto old_it = previous.routes.find(pair);
        const net::Path* keep = nullptr;
        if (!retarget) {
            if (it != candidate.routes.end() && route_alive(net, it->second)) {
                keep = &it->second;
            } else if (old_it != previous.routes.end() && route_alive(net, old_it->second)) {
                keep = &old_it->second;
            }
        }
        if (keep != nullptr) {
            routes[pair] = *keep;
            continue;
        }
        std::optional<net::Path> path = oracle.path(pair.first, pair.second);
        if (!path.has_value()) return std::nullopt;
        const bool recorded = old_it != previous.routes.end();
        const bool changed = !recorded || old_it->second.switches != path->switches;
        if (changed && (retarget || recorded)) ++rerouted;
        routes[pair] = std::move(*path);
    }
    candidate.routes = std::move(routes);
    return candidate;
}

}  // namespace

bool route_alive(const net::Network& net, const net::Path& path) {
    for (const net::SwitchId s : path.switches) {
        if (s >= net.switch_count() || !net.switch_up(s)) return false;
    }
    for (std::size_t i = 0; i + 1 < path.switches.size(); ++i) {
        if (!net.link_up(path.switches[i], path.switches[i + 1])) return false;
    }
    return true;
}

DamageReport classify_damage(const tdg::Tdg& t, const net::Network& net,
                             const Deployment& d) {
    (void)t;  // the placement vector is already node-indexed
    DamageReport report;
    for (tdg::NodeId a = 0; a < d.placements.size(); ++a) {
        const net::SwitchId sw = d.placements[a].sw;
        if (sw >= net.switch_count() || !net.switch_up(sw)) {
            report.stranded_mats.push_back(a);
        }
    }
    for (const auto& [pair, path] : d.routes) {
        if (!route_alive(net, path)) report.dead_routes.push_back(pair);
    }
    return report;
}

util::StatusOr<Redeployment> redeploy(const tdg::Tdg& t, const net::Network& net,
                                      const HermesOptions& options, bool allow_milp,
                                      const Deployment* previous,
                                      const std::vector<Placement>& surviving,
                                      bool retarget) {
    const auto start = Clock::now();
    obs::Sink* const sink = options.sink;
    auto bump = [sink](const char* counter, std::int64_t delta) {
        if (sink != nullptr) sink->counter(counter).add(delta);
    };
    for (const char* counter : kRungCounters) bump(counter, 0);
    bump("engine.moved_mats", 0);
    bump("engine.rerouted_pairs", 0);
    bump("engine.escalated", 0);
    bump("engine.degraded", 0);
    bump("engine.rejected_candidates", 0);

    Redeployment result;
    DeltaOutcome& outcome = result.outcome;
    auto finish = [&](Deployment d, const char* status, bool delta) {
        if (previous != nullptr) {
            for (std::size_t i = 0; i < surviving.size() && i < d.placements.size(); ++i) {
                if (d.placements[i].sw != surviving[i].sw) ++outcome.moved_mats;
            }
        }
        outcome.status = status;
        outcome.delta = delta;
        outcome.metrics = evaluate(t, net, d);
        outcome.solve_seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        result.deployment = std::move(d);
        bump((std::string("engine.rung.") + status).c_str(), 1);
        bump("engine.moved_mats", outcome.moved_mats);
        bump("engine.rerouted_pairs", outcome.rerouted_pairs);
        return util::StatusOr<Redeployment>(std::move(result));
    };

    if (t.node_count() == 0) return finish(Deployment{}, "empty", /*delta=*/true);

    // Every check below vets a candidate, not a served deployment: it keeps
    // the "verify" span, but a rejection ticks engine.rejected_candidates
    // instead of verify.violations, which counts only what is served.
    VerifyOptions verify_options;
    static_cast<CommonOptions&>(verify_options) = static_cast<const CommonOptions&>(options);
    verify_options.epsilon1 = options.epsilon1;
    verify_options.epsilon2 = options.epsilon2;
    verify_options.sink = nullptr;
    auto admissible = [&](const Deployment& d) {
        obs::Span span(sink, "verify");
        const bool ok = verify(t, net, d, verify_options).ok;
        if (!ok) bump("engine.rejected_candidates", 1);
        return ok;
    };

    // ---- Rung 1: patch the surviving placements in place. ----
    // A MAT stranded on a dead switch has to move: only the re-solve rungs
    // can do that.
    const auto stranded = [&net](const Placement& p) {
        return p.sw >= net.switch_count() || !net.switch_up(p.sw);
    };
    if (previous != nullptr) {
        obs::Span span(sink, "engine.delta");
        if (std::none_of(surviving.begin(), surviving.end(), stranded)) {
            std::optional<net::PathOracle> own_oracle;
            net::PathOracle& oracle =
                options.oracle != nullptr ? *options.oracle : own_oracle.emplace(net);
            std::int64_t rerouted = 0;
            std::optional<Deployment> candidate =
                patch_in_place(t, net, oracle, *previous, surviving, retarget, rerouted);
            if (candidate.has_value() && admissible(*candidate)) {
                outcome.rerouted_pairs = rerouted;
                const char* status = surviving.size() < t.node_count() ? "incremental"
                                     : retarget                         ? "retarget"
                                     : rerouted > 0                     ? "reroute"
                                                                        : "intact";
                return finish(std::move(*candidate), status, /*delta=*/true);
            }
        }
    }

    // ---- Rungs 2 and 3: re-solve the whole TDG. ----
    std::optional<Deployment> solved;
    const char* status = previous != nullptr ? "replace" : "greedy";
    {
        obs::Span span(sink, "engine.greedy");
        util::StatusOr<DeployOutcome> greedy = try_deploy_greedy(t, net, options);
        if (greedy.ok() && admissible(greedy.value().deployment)) {
            solved = std::move(greedy).value().deployment;
        }
    }
    if (!solved.has_value() && allow_milp) {
        obs::Span span(sink, "engine.milp");
        outcome.escalated = true;
        bump("engine.escalated", 1);
        util::StatusOr<DeployOutcome> exact = try_deploy_optimal(t, net, options);
        if (exact.ok() && admissible(exact.value().deployment)) {
            solved = std::move(exact).value().deployment;
            status = "milp";
        }
    }

    // ---- Deadline fallback: a cut-short ladder serves the truncated rung's
    // result, else the previous deployment if it still verifies on the same
    // TDG (no node added or removed). remaining_seconds() reads the token
    // without spending a poll of an after_polls() budget.
    outcome.degraded = options.deadline.remaining_seconds() <= 0.0;
    if (outcome.degraded) bump("engine.degraded", 1);
    if (solved.has_value()) return finish(std::move(*solved), status, /*delta=*/false);
    if (outcome.degraded && previous != nullptr && surviving.size() == t.node_count() &&
        previous->placements.size() == t.node_count() && admissible(*previous)) {
        return finish(*previous, "degraded", /*delta=*/true);
    }
    return util::Status::infeasible(
        "engine: no rung produced a verifiable deployment for this epoch");
}

}  // namespace hermes::core
