// SPEED-style TDG merging (§IV, Algorithm 1 lines 4-8).
//
// Different programs exhibit redundancy (e.g. every sketch computes hash
// indexes the same way). Merging unions the node/edge sets of two TDGs and
// then contracts *redundant* MATs — structurally identical tables — so the
// shared work is deployed once. Contractions that would create a cycle are
// skipped, keeping the merged TDG a DAG.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tdg/tdg.h"

namespace hermes::tdg {

// Union of two TDGs (no deduplication): t1, then t2 as by Tdg::append.
[[nodiscard]] Tdg graph_union(const Tdg& t1, const Tdg& t2);

// Contracts structurally redundant MATs in-place. Returns the number of
// nodes eliminated. Edges into/out of an eliminated node are redirected to
// its surviving twin; duplicate edges and would-be self-loops are dropped.
// `new_from` restricts the scan to pairs with at least one node id >=
// new_from — incremental merging only needs to compare fresh nodes against
// the (already deduplicated) prefix.
std::size_t deduplicate(Tdg& t, std::size_t new_from = 0);

// Merges two TDGs: union + deduplicate.
[[nodiscard]] Tdg merge(const Tdg& t1, const Tdg& t2);

// Merges a whole set of TDGs into the merged TDG T_m (pairwise, in order).
// Throws std::invalid_argument on an empty input set.
[[nodiscard]] Tdg merge_all(std::vector<Tdg> tdgs);

// The union merge (no deduplication) as a left fold over an ordered program
// list (DESIGN.md §5j). A step appends one program's TDG, chains only its
// field accesses onto the per-field state the prefix left — the conflict
// rule of add_write_conflict_edges, fed the program's own topological order
// — and annotates only the edges it added. It reads only the new program,
// its edges and the fields it touches; an earlier program's nodes, edges
// and state never change. So a fold extended one program at a time equals
// the same list folded from scratch, and each program keeps one contiguous
// id range.
class UnionFold {
public:
    UnionFold() = default;
    UnionFold(const UnionFold&) = delete;  // marks point into fields_
    UnionFold& operator=(const UnionFold&) = delete;
    UnionFold(UnionFold&&) = default;
    UnionFold& operator=(UnionFold&&) = default;

    // Folds `program` in as the next position; costs the program alone.
    void push(const Tdg& program);
    // Back to the state after the first `positions` pushes (no-op past them).
    void truncate(std::size_t positions);

    [[nodiscard]] const Tdg& graph() const noexcept { return graph_; }
    [[nodiscard]] Tdg release() && { return std::move(graph_); }
    [[nodiscard]] std::size_t size() const noexcept { return marks_.size(); }

private:
    struct FieldState {
        std::optional<NodeId> last_writer;
        std::vector<NodeId> readers;  // since last_writer
    };
    using Fields = std::map<std::string, FieldState, std::less<>>;
    // A position's start: the graph's size before its program, and each
    // field its step touched with the state it had before (nullopt: new).
    struct Mark {
        std::size_t nodes = 0;
        std::size_t edges = 0;
        std::vector<std::pair<Fields::iterator, std::optional<FieldState>>> undo;
    };

    [[nodiscard]] bool has_ancestor(NodeId v, NodeId u) const;
    void inherit(NodeId to, NodeId from);
    // The conflict chaining of one step; `order` is the new nodes'.
    void chain(const std::vector<NodeId>& order, Mark& mark);

    Tdg graph_;
    Fields fields_;
    // Node v's ancestors: bits [row_[v], row_[v + 1]), bit u set iff a path
    // u -> v exists. A row is as wide as the graph its step left.
    std::vector<std::size_t> row_{0};
    std::vector<std::uint64_t> bits_;
    std::vector<Mark> marks_;
};

}  // namespace hermes::tdg
