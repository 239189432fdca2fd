// The re-solve ladder (DESIGN.md §5g, §5j): the one rung list every caller
// climbs after a change. core::Engine runs it once per epoch on its union
// merge; `hermes_cli solve|replay --fault-script` runs it once per injected
// fault on the TDG it deployed.
//
// redeploy() starts at the cheapest rung and returns the first deployment
// that passes the verifier (constraints (6)-(9) and the epsilon bounds):
//
//   1. delta — when a previous deployment exists and every surviving
//      placement sits on a live switch: keep those placements, place any
//      added TDG suffix around them (incremental_deploy), keep each live
//      recorded route of a pair that still exchanges metadata, wire the
//      remaining pairs from the path oracle, and drop pairs that no longer
//      exchange metadata. Status incremental | retarget | reroute | intact.
//   2. greedy — Algorithm 2 over the whole TDG on the live topology (failed
//      elements are hidden by the network's live views). Status replace
//      when a previous deployment existed, greedy otherwise.
//   3. milp — only when the greedy rung failed to verify and escalation is
//      allowed: the exact re-solve, warm started from greedy. Status milp.
//
// Deadline: options.deadline bounds the whole ladder (the greedy anchor
// scan and the MILP poll it). If it has expired when the cold rungs return,
// the result is, in order: the truncated rung's verified deployment; else
// the previous deployment, if it covers the same TDG and still verifies
// (status degraded); else kInfeasible. DeltaOutcome::degraded marks both
// fallbacks. No rung throws.
//
// Observability (options.sink): one span per rung (engine.delta,
// engine.greedy, engine.milp), a "verify" span per candidate check, and the
// counters engine.rung.<status>, engine.moved_mats, engine.rerouted_pairs,
// engine.escalated, engine.degraded and engine.rejected_candidates (rung
// results the verifier turned down), all registered at 0 on every call so
// exported metrics carry them whichever rungs ran. The candidate checks do
// not add to verify.violations: a rejected candidate is never served.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/deployment.h"
#include "core/hermes.h"
#include "core/objective.h"
#include "util/status.h"

namespace hermes::core {

// What one climb of the ladder did.
struct DeltaOutcome {
    // "empty" | "intact" | "incremental" | "retarget" | "reroute" |
    // "replace" | "greedy" | "milp" | "degraded" — the rung that produced
    // the deployment.
    std::string status;
    // True when the surviving placements were kept in place; false when a
    // full re-solve produced a fresh deployment.
    bool delta = false;
    bool escalated = false;          // the MILP rung ran
    // The deadline cut the ladder short: the deployment is a truncated
    // rung's result, or the previous deployment (status "degraded").
    bool degraded = false;
    std::int64_t epoch = 0;          // engine epoch that produced this
    std::int64_t moved_mats = 0;     // surviving placements whose switch changed
    std::int64_t rerouted_pairs = 0; // recorded routes replaced by another path
    double solve_seconds = 0.0;
    DeploymentMetrics metrics;       // of the (verified) deployment
};

struct Redeployment {
    Deployment deployment;
    DeltaOutcome outcome;
};

// Climbs the ladder above for TDG `t` on the network's current up/down
// state. `previous` is the last verified deployment (null when there is
// none); `surviving` holds the placements that carry over, indexed by `t`'s
// node ids [0, surviving.size()) — the rest of `t` is new. `retarget`
// re-picks every route instead of keeping live ones. kInfeasible when no
// rung produced a verifiable deployment.
[[nodiscard]] util::StatusOr<Redeployment> redeploy(
    const tdg::Tdg& t, const net::Network& net, const HermesOptions& options,
    bool allow_milp, const Deployment* previous,
    const std::vector<Placement>& surviving, bool retarget);

// What the failures broke in a deployment.
struct DamageReport {
    // MATs placed on failed (or unknown) switches.
    std::vector<tdg::NodeId> stranded_mats;
    // Route pairs whose recorded path crosses a failed link or switch.
    std::vector<std::pair<net::SwitchId, net::SwitchId>> dead_routes;

    [[nodiscard]] bool intact() const noexcept {
        return stranded_mats.empty() && dead_routes.empty();
    }
};

// True when the recorded path is fully live: every switch up, every hop a
// live link.
[[nodiscard]] bool route_alive(const net::Network& net, const net::Path& path);

// Classifies `d` against the network's current up/down state. Pure
// inspection: touches no caches, never throws on damage.
[[nodiscard]] DamageReport classify_damage(const tdg::Tdg& t, const net::Network& net,
                                           const Deployment& d);

}  // namespace hermes::core
