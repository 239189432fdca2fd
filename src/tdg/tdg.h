// Table dependency graph (TDG).
//
// A TDG is a DAG whose nodes are MATs and whose directed edges are typed MAT
// dependencies (Jose et al., NSDI'15; §IV of the paper). The analyzer
// annotates each edge with A(a,b) — the metadata bytes MAT a must deliver to
// MAT b when they are placed on different switches.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "tdg/mat.h"

namespace hermes::tdg {

using NodeId = std::size_t;

// Dependency types T(a,b) (§IV).
enum class DepType : std::uint8_t {
    kMatch,         // M: b matches a field modified by a
    kAction,        // A: a and b modify a common field
    kReverseMatch,  // R: b modifies a field matched by a (ordering only)
    kSuccessor,     // S: a's result gates whether b executes
};

[[nodiscard]] const char* to_string(DepType t) noexcept;

struct Edge {
    NodeId from = 0;
    NodeId to = 0;
    DepType type = DepType::kMatch;
    // A(a,b): metadata bytes carried from `from` to `to` when they are on
    // different switches. Filled by the analyzer (0 until analyzed; always 0
    // for reverse-match edges).
    int metadata_bytes = 0;
};

class Tdg {
public:
    Tdg() = default;

    // Adds a MAT and returns its node id (ids are dense indices).
    NodeId add_node(Mat mat);

    // Adds a typed dependency edge. Throws std::out_of_range on bad ids,
    // std::invalid_argument on self-loops or duplicate (from,to) edges.
    void add_edge(NodeId from, NodeId to, DepType type);

    // Appends `other`'s nodes, ids shifted by node_count(), and its edges as
    // they are (annotations included). Returns the shift. O(|other|): the
    // shifted edges cannot duplicate an existing one, so nothing is scanned.
    NodeId append(const Tdg& other);

    // Keeps the first `nodes` nodes and the first `edges` edges, which must
    // not touch a dropped node (true of any earlier size of an appended-to
    // graph). Throws std::out_of_range past the current size.
    void truncate(std::size_t nodes, std::size_t edges);

    [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
    [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }
    [[nodiscard]] const Mat& node(NodeId id) const;
    [[nodiscard]] Mat& node(NodeId id);
    [[nodiscard]] const std::vector<Edge>& edges() const noexcept { return edges_; }
    [[nodiscard]] std::vector<Edge>& edges() noexcept { return edges_; }

    // Edge between two specific nodes, if present.
    [[nodiscard]] std::optional<Edge> find_edge(NodeId from, NodeId to) const noexcept;

    [[nodiscard]] std::vector<NodeId> successors(NodeId id) const;
    [[nodiscard]] std::vector<NodeId> predecessors(NodeId id) const;

    // Kahn topological order; throws std::runtime_error if the graph has a
    // cycle (a TDG must be a DAG). Ties are broken by node id, so the order
    // is deterministic. O((V + E) log V): the successor lists are built once
    // per call, so callers on a hot path should still compute it once and
    // reuse it.
    [[nodiscard]] std::vector<NodeId> topological_order() const;

    [[nodiscard]] bool is_dag() const noexcept;

    // Sum of R(a) over all nodes — used by the heuristic's fit test.
    [[nodiscard]] double total_resource_units() const noexcept;

    // Sum of A(a,b) over all edges (after analysis).
    [[nodiscard]] std::int64_t total_metadata_bytes() const noexcept;

    // Node id by MAT name; throws std::out_of_range if absent or ambiguous
    // names exist (names are not required to be unique after merging).
    [[nodiscard]] NodeId node_by_name(const std::string& name) const;

private:
    std::vector<Mat> nodes_;
    std::vector<Edge> edges_;
};

}  // namespace hermes::tdg
