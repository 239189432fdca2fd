// Program analyzer (§IV, Algorithm 1).
//
// Fills every TDG edge's A(a,b) — the metadata bytes the upstream MAT must
// piggyback for the downstream MAT when the two land on different switches:
//   match dependency     A(a,b) = Σ size(f), f metadata in F^a_a
//   action dependency    A(a,b) = Σ size(f), f metadata in F^a_a ∪ F^a_b
//   reverse match        A(a,b) = 0 (pure ordering; nothing is delivered)
//   successor            A(a,b) = Σ size(f), f metadata in F^a_a
// Header fields already travel in the packet and cost nothing extra, so only
// metadata fields are counted (deduplicated by name).
#pragma once

#include <vector>

#include "tdg/tdg.h"

namespace hermes::obs {
class Sink;
}  // namespace hermes::obs

namespace hermes::tdg {

// A(a,b) for one ordered MAT pair under dependency type `type`.
[[nodiscard]] int edge_metadata_bytes(const Mat& a, const Mat& b, DepType type);

// TDG_ANALYSIS: annotate every edge of `t` in place.
void analyze(Tdg& t);

// Orders field conflicts that dependency inference cannot see: pairwise
// inference only runs within a program, so after merging, MATs from
// different programs may share written or matched fields without any
// ordering edge — and the merged pipeline's behaviour would depend on
// arbitrary scheduling. Taking MATs in topological order and fields in name
// order, each access is chained onto the field's last writer and the
// readers since that write, with the edge the paper's own taxonomy
// prescribes: writer -> writer action dependency, last writer -> reader
// match dependency, reader -> next writer reverse-match dependency — and
// only between two MATs not already ordered. This is one tdg::UnionFold
// step over all of `t` from an empty state (tdg/merge.h); it also annotates
// every edge. Returns the number of edges added.
std::size_t add_write_conflict_edges(Tdg& t);

// PROGRAM_ANALYZER: merge the program set into T_m and analyze it.
// Throws std::invalid_argument on an empty set. A non-null `sink` records
// one span per phase (analyzer.merge / analyzer.conflict_edges, which also
// annotates) and the merged TDG's size counters.
[[nodiscard]] Tdg analyze_programs(std::vector<Tdg> programs, obs::Sink* sink = nullptr);

}  // namespace hermes::tdg
