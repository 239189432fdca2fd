#include "tdg/tdg.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace hermes::tdg {

const char* to_string(DepType t) noexcept {
    switch (t) {
        case DepType::kMatch: return "match";
        case DepType::kAction: return "action";
        case DepType::kReverseMatch: return "reverse-match";
        case DepType::kSuccessor: return "successor";
    }
    return "?";
}

NodeId Tdg::add_node(Mat mat) {
    nodes_.push_back(std::move(mat));
    return nodes_.size() - 1;
}

void Tdg::add_edge(NodeId from, NodeId to, DepType type) {
    if (from >= nodes_.size() || to >= nodes_.size()) {
        throw std::out_of_range("Tdg::add_edge: bad node id");
    }
    if (from == to) throw std::invalid_argument("Tdg::add_edge: self-loop");
    if (find_edge(from, to)) throw std::invalid_argument("Tdg::add_edge: duplicate edge");
    edges_.push_back(Edge{from, to, type, 0});
}

NodeId Tdg::append(const Tdg& other) {
    const NodeId shift = nodes_.size();
    nodes_.insert(nodes_.end(), other.nodes_.begin(), other.nodes_.end());
    for (Edge e : other.edges_) {
        e.from += shift;
        e.to += shift;
        edges_.push_back(e);
    }
    return shift;
}

void Tdg::truncate(std::size_t nodes, std::size_t edges) {
    if (nodes > nodes_.size() || edges > edges_.size()) throw std::out_of_range("Tdg::truncate");
    nodes_.erase(nodes_.begin() + static_cast<std::ptrdiff_t>(nodes), nodes_.end());
    edges_.resize(edges);
}

const Mat& Tdg::node(NodeId id) const {
    if (id >= nodes_.size()) throw std::out_of_range("Tdg::node: bad id");
    return nodes_[id];
}

Mat& Tdg::node(NodeId id) {
    if (id >= nodes_.size()) throw std::out_of_range("Tdg::node: bad id");
    return nodes_[id];
}

std::optional<Edge> Tdg::find_edge(NodeId from, NodeId to) const noexcept {
    for (const Edge& e : edges_) {
        if (e.from == from && e.to == to) return e;
    }
    return std::nullopt;
}

std::vector<NodeId> Tdg::successors(NodeId id) const {
    if (id >= nodes_.size()) throw std::out_of_range("Tdg::successors: bad id");
    std::vector<NodeId> out;
    for (const Edge& e : edges_) {
        if (e.from == id) out.push_back(e.to);
    }
    return out;
}

std::vector<NodeId> Tdg::predecessors(NodeId id) const {
    if (id >= nodes_.size()) throw std::out_of_range("Tdg::predecessors: bad id");
    std::vector<NodeId> out;
    for (const Edge& e : edges_) {
        if (e.to == id) out.push_back(e.from);
    }
    return out;
}

std::vector<NodeId> Tdg::topological_order() const {
    // Successor lists in edge order, laid out flat by a counting sort over
    // the edges, so each pop touches only its own out-edges: O((V + E) log V)
    // instead of an edge-list rescan per pop.
    const std::size_t n = nodes_.size();
    std::vector<std::size_t> in_degree(n, 0);
    std::vector<std::size_t> first(n + 1, 0);
    for (const Edge& e : edges_) {
        ++in_degree[e.to];
        ++first[e.from + 1];
    }
    for (std::size_t v = 0; v < n; ++v) first[v + 1] += first[v];
    std::vector<NodeId> successors(edges_.size());
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (const Edge& e : edges_) successors[next[e.from]++] = e.to;

    // Min-heap over node ids for deterministic tie-breaking.
    std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
    for (NodeId v = 0; v < n; ++v) {
        if (in_degree[v] == 0) ready.push(v);
    }
    std::vector<NodeId> order;
    order.reserve(n);
    while (!ready.empty()) {
        const NodeId v = ready.top();
        ready.pop();
        order.push_back(v);
        for (std::size_t k = first[v]; k < first[v + 1]; ++k) {
            if (--in_degree[successors[k]] == 0) ready.push(successors[k]);
        }
    }
    if (order.size() != n) {
        throw std::runtime_error("Tdg::topological_order: graph has a cycle");
    }
    return order;
}

bool Tdg::is_dag() const noexcept {
    try {
        (void)topological_order();
        return true;
    } catch (const std::runtime_error&) {
        return false;
    }
}

double Tdg::total_resource_units() const noexcept {
    double total = 0.0;
    for (const Mat& m : nodes_) total += m.resource_units();
    return total;
}

std::int64_t Tdg::total_metadata_bytes() const noexcept {
    std::int64_t total = 0;
    for (const Edge& e : edges_) total += e.metadata_bytes;
    return total;
}

NodeId Tdg::node_by_name(const std::string& name) const {
    std::optional<NodeId> found;
    for (NodeId v = 0; v < nodes_.size(); ++v) {
        if (nodes_[v].name() == name) {
            if (found) throw std::out_of_range("Tdg::node_by_name: ambiguous '" + name + "'");
            found = v;
        }
    }
    if (!found) throw std::out_of_range("Tdg::node_by_name: no node '" + name + "'");
    return *found;
}

}  // namespace hermes::tdg
