// Retained reference LP kernel: the original two-phase primal simplex on a
// dense Gauss-Jordan tableau, with warm starts re-established by per-column
// re-pivoting and repaired by dense dual simplex.
//
// This is the seed `solve_lp` kept verbatim (mirroring the core::reference
// pattern for Algorithm 2). It exists as an LP-level oracle:
// tests/simplex_equivalence_test.cpp asserts the production revised sparse
// kernel in milp/simplex.h agrees with it (status and objective within
// tolerance) on randomized LPs and seeded P#1 relaxations. No option routes
// production work through it.
//
// The exported Basis uses this kernel's own column space (structurals +
// slacks + artificials, with every finite upper bound materialized as an
// explicit row); it is only meaningful to feed back into this kernel. The
// revised kernel rejects it by signature and vice versa.
#pragma once

#include <cstdint>

#include "milp/model.h"
#include "milp/simplex.h"

namespace hermes::milp::reference {

// Solves the LP relaxation of `model` exactly like the seed solver did.
// Shares LpStatus/LpResult/Basis (and LpOptions — iteration_limit,
// time_limit_seconds and warm_basis; the rest is ignored) with the
// production kernel; the at_upper field of the exported basis stays
// empty (the dense form shifts every variable to its lower bound, so
// nonbasic-at-upper never occurs).
[[nodiscard]] LpResult solve_lp(const Model& model, const LpOptions& options = {});

}  // namespace hermes::milp::reference
