// Incremental redeployment (extension; the paper deploys from scratch).
//
// Production networks add programs over time, and re-placing everything
// disturbs running traffic. This module extends an existing deployment with
// new programs without moving a single already-placed MAT: new MATs are
// packed into the residual stage capacity along the existing traversal chain
// (plus spare programmable switches appended after it) by the node-level
// chain_first_fit of core/deployment.h, respecting every dependency. If the
// combined TDG orders a *new* MAT before an *old* one, incremental placement
// is impossible and the caller should fall back to a full redeploy; a
// tdg::UnionFold extended by the new programs never does.
#pragma once

#include <optional>

#include "core/deployment.h"
#include "net/path_oracle.h"

namespace hermes::core {

// Places nodes [base_count, n) of `combined` around the fixed `existing`
// placements (which cover nodes [0, base_count)), and returns a deployment
// that covers every node of `combined`. Returns nullopt when a new MAT must
// precede an old one, or when the residual capacity cannot host the
// additions. Pass a shared net::PathOracle to reuse cached Dijkstra trees
// when wiring routes for newly crossing pairs.
[[nodiscard]] std::optional<Deployment> incremental_deploy(
    const tdg::Tdg& combined, std::size_t base_count, const Deployment& existing,
    const net::Network& net, net::PathOracle* oracle = nullptr);

}  // namespace hermes::core
