#include "tdg/merge.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "tdg/analyzer.h"

namespace hermes::tdg {

Tdg graph_union(const Tdg& t1, const Tdg& t2) {
    Tdg out = t1;
    out.append(t2);
    return out;
}

namespace {

// Rebuilds `t` with node `victim` contracted into `survivor`. Returns the
// candidate graph; the caller decides whether to keep it (DAG check).
Tdg contract(const Tdg& t, NodeId survivor, NodeId victim) {
    Tdg out;
    std::vector<NodeId> remap(t.node_count());
    NodeId next = 0;
    for (NodeId v = 0; v < t.node_count(); ++v) {
        if (v == victim) continue;
        remap[v] = next++;
        out.add_node(t.node(v));
    }
    remap[victim] = remap[survivor];
    for (const Edge& e : t.edges()) {
        const NodeId from = remap[e.from];
        const NodeId to = remap[e.to];
        if (from == to) continue;  // edge between the twins disappears
        if (out.find_edge(from, to)) continue;
        out.add_edge(from, to, e.type);
    }
    return out;
}

}  // namespace

std::size_t deduplicate(Tdg& t, std::size_t new_from) {
    std::size_t eliminated = 0;
    bool progress = true;
    while (progress) {
        progress = false;
        for (NodeId i = 0; i < t.node_count() && !progress; ++i) {
            // Only pairs touching the fresh suffix need scanning.
            const NodeId j_begin = std::max<NodeId>(i + 1, new_from);
            for (NodeId j = j_begin; j < t.node_count() && !progress; ++j) {
                if (!t.node(i).same_structure(t.node(j))) continue;
                Tdg candidate = contract(t, i, j);
                if (!candidate.is_dag()) continue;  // contraction would cycle
                t = std::move(candidate);
                ++eliminated;
                // Contraction renumbers the suffix; rescan it conservatively.
                if (new_from > 0) --new_from;
                progress = true;
            }
        }
    }
    return eliminated;
}

Tdg merge(const Tdg& t1, const Tdg& t2) {
    Tdg merged = graph_union(t1, t2);
    deduplicate(merged, t1.node_count());
    return merged;
}

Tdg merge_all(std::vector<Tdg> tdgs) {
    if (tdgs.empty()) throw std::invalid_argument("merge_all: empty program set");
    // Each incoming TDG is deduplicated internally first, appended in place
    // (copying only its own nodes), then only its nodes are compared against
    // the accumulated (already deduplicated) prefix — quadratic-in-total-size
    // scans happen once, not per merge.
    Tdg merged = std::move(tdgs.front());
    deduplicate(merged);
    for (std::size_t i = 1; i < tdgs.size(); ++i) {
        deduplicate(tdgs[i]);
        const std::size_t prefix = merged.append(tdgs[i]);
        deduplicate(merged, prefix);
    }
    return merged;
}

bool UnionFold::has_ancestor(NodeId v, NodeId u) const {
    const std::size_t word = row_[v] + u / 64;
    return word < row_[v + 1] && ((bits_[word] >> (u % 64)) & 1u) != 0;
}

// Row `to` |= row `from` ∪ {from}; `from`'s row is never the wider.
void UnionFold::inherit(NodeId to, NodeId from) {
    for (std::size_t w = 0; w < row_[from + 1] - row_[from]; ++w) {
        bits_[row_[to] + w] |= bits_[row_[from] + w];
    }
    bits_[row_[to] + from / 64] |= std::uint64_t{1} << (from % 64);
}

void UnionFold::push(const Tdg& program) {
    std::vector<NodeId> order = program.topological_order();  // throws before any change
    Mark mark{graph_.append(program), graph_.edge_count() - program.edge_count(), {}};
    for (NodeId& v : order) v += mark.nodes;
    chain(order, mark);
    for (std::size_t i = mark.edges; i < graph_.edge_count(); ++i) {
        Edge& e = graph_.edges()[i];
        e.metadata_bytes = edge_metadata_bytes(graph_.node(e.from), graph_.node(e.to), e.type);
    }
    marks_.push_back(std::move(mark));
}

void UnionFold::chain(const std::vector<NodeId>& order, Mark& mark) {
    const NodeId first = mark.nodes;
    const std::size_t n = graph_.node_count();
    // Ancestor rows of the new nodes from their own edges, taken in order so
    // a row is complete before it is inherited.
    for (NodeId v = first; v < n; ++v) row_.push_back(row_.back() + (n + 63) / 64);
    bits_.resize(row_.back(), 0);
    std::vector<std::vector<NodeId>> successors(n - first);
    for (std::size_t i = mark.edges; i < graph_.edge_count(); ++i) {
        successors[graph_.edges()[i].from - first].push_back(graph_.edges()[i].to);
    }
    for (const NodeId v : order) {
        for (const NodeId s : successors[v - first]) inherit(s, v);
    }

    // Every (field, node) access of the new nodes in order, then stably by
    // field name. The names view the nodes' own fields.
    struct Access {
        std::string_view field;
        NodeId node;
        bool writes;
        bool reads;
    };
    std::vector<Access> accesses;
    for (const NodeId v : order) {
        const auto own = static_cast<std::ptrdiff_t>(accesses.size());
        const auto touch = [&](const Field& f, bool writes) {
            const auto it = std::find_if(accesses.begin() + own, accesses.end(),
                                         [&](const Access& a) { return a.field == f.name; });
            if (it == accesses.end()) {
                accesses.push_back(Access{f.name, v, writes, !writes});
            } else {
                (writes ? it->writes : it->reads) = true;
            }
        };
        for (const Field& f : graph_.node(v).modified_fields()) touch(f, true);
        for (const Field& f : graph_.node(v).match_fields()) touch(f, false);
    }
    std::stable_sort(accesses.begin(), accesses.end(),
                     [](const Access& a, const Access& b) { return a.field < b.field; });

    // An edge runs from an earlier node of the order to a later, new one, so
    // only `b`'s side needs testing, and `b` and its descendants (all new)
    // inherit `a`'s ancestors. An unordered pair has no edge, so the
    // duplicate scan of Tdg::add_edge is skipped.
    auto order_pair = [&](NodeId a, NodeId b, DepType type) {
        if (has_ancestor(b, a)) return;
        graph_.edges().push_back(Edge{a, b, type, 0});
        for (NodeId y = first; y < n; ++y) {
            if (y == b || has_ancestor(y, b)) inherit(y, a);
        }
    };
    for (std::size_t i = 0; i < accesses.size();) {
        const std::string_view field = accesses[i].field;
        auto it = fields_.find(field);
        if (it == fields_.end()) {
            it = fields_.emplace(std::string(field), FieldState{}).first;
            mark.undo.emplace_back(it, std::nullopt);
        } else {
            mark.undo.emplace_back(it, it->second);
        }
        FieldState& state = it->second;
        for (; i < accesses.size() && accesses[i].field == field; ++i) {
            const Access& access = accesses[i];
            if (access.writes) {
                if (state.last_writer) {
                    order_pair(*state.last_writer, access.node, DepType::kAction);
                }
                for (const NodeId r : state.readers) {
                    order_pair(r, access.node, DepType::kReverseMatch);
                }
                state.last_writer = access.node;
                state.readers.clear();
            }
            if (access.reads && !access.writes) {
                if (state.last_writer) {
                    order_pair(*state.last_writer, access.node, DepType::kMatch);
                }
                state.readers.push_back(access.node);
            }
        }
    }
}

void UnionFold::truncate(std::size_t positions) {
    if (positions >= marks_.size()) return;
    graph_.truncate(marks_[positions].nodes, marks_[positions].edges);
    for (; marks_.size() > positions; marks_.pop_back()) {
        for (auto& [field, before] : marks_.back().undo) {
            if (before.has_value()) {
                field->second = std::move(*before);
            } else {
                fields_.erase(field);
            }
        }
    }
    row_.resize(graph_.node_count() + 1);
    bits_.resize(row_.back());
}

}  // namespace hermes::tdg
