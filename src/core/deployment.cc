#include "core/deployment.h"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace hermes::core {

net::SwitchId Deployment::switch_of(tdg::NodeId a) const {
    if (a >= placements.size()) throw std::out_of_range("Deployment::switch_of: bad node");
    return placements[a].sw;
}

std::vector<net::SwitchId> Deployment::occupied_switches() const {
    std::set<net::SwitchId> s;
    for (const Placement& p : placements) s.insert(p.sw);
    return {s.begin(), s.end()};
}

std::vector<tdg::NodeId> Deployment::mats_on(net::SwitchId u) const {
    std::vector<tdg::NodeId> out;
    for (tdg::NodeId a = 0; a < placements.size(); ++a) {
        if (placements[a].sw == u) out.push_back(a);
    }
    std::sort(out.begin(), out.end(), [&](tdg::NodeId x, tdg::NodeId y) {
        if (placements[x].stage != placements[y].stage) {
            return placements[x].stage < placements[y].stage;
        }
        return x < y;
    });
    return out;
}

SegmentPacker::SegmentPacker(const tdg::Tdg& t, int stages, double stage_capacity)
    : t_(t),
      stages_(stages),
      stage_capacity_(stage_capacity),
      pred_first_(t.node_count() + 1, 0),
      preds_(t.edge_count()),
      stage_(t.node_count(), -1),
      load_(static_cast<std::size_t>(std::max(stages, 0)), 0.0) {
    for (const tdg::Edge& e : t.edges()) ++pred_first_[e.to + 1];
    for (std::size_t v = 0; v < t.node_count(); ++v) pred_first_[v + 1] += pred_first_[v];
    std::vector<std::size_t> next(pred_first_.begin(), pred_first_.end() - 1);
    for (const tdg::Edge& e : t.edges()) preds_[next[e.to]++] = e.from;
}

int SegmentPacker::place(tdg::NodeId v) {
    int earliest = 0;
    for (std::size_t k = pred_first_[v]; k < pred_first_[v + 1]; ++k) {
        const int p = stage_[preds_[k]];
        if (p >= 0) earliest = std::max(earliest, p + 1);
    }
    const double need = t_.node(v).resource_units();
    if (need > stage_capacity_) return -1;  // MAT larger than a stage
    for (int s = earliest; s < stages_; ++s) {
        double& load = load_[static_cast<std::size_t>(s)];
        if (load + need <= stage_capacity_ + 1e-9) {
            load += need;
            total_ += need;
            stage_[v] = s;
            packed_.push_back(v);
            return s;
        }
    }
    return -1;
}

bool SegmentPacker::add(tdg::NodeId v) {
    const double need = t_.node(v).resource_units();
    if (total_ + need > stages_ * stage_capacity_ + 1e-9) return false;
    return place(v) >= 0;
}

void SegmentPacker::clear() {
    for (const tdg::NodeId v : packed_) stage_[v] = -1;
    packed_.clear();
    std::fill(load_.begin(), load_.end(), 0.0);
    total_ = 0.0;
}

std::optional<std::vector<int>> assign_stages(const tdg::Tdg& t,
                                              const std::vector<tdg::NodeId>& segment,
                                              int stages, double stage_capacity) {
    if (stages <= 0 || stage_capacity <= 0.0) {
        throw std::invalid_argument("assign_stages: bad switch geometry");
    }
    const std::size_t n = t.node_count();
    std::vector<char> member(n, 0);
    for (const tdg::NodeId v : segment) {
        if (v >= n) throw std::out_of_range("assign_stages: bad node id");
        if (member[v]) {
            throw std::invalid_argument("assign_stages: duplicate nodes in segment");
        }
        member[v] = 1;
    }

    // Pack in global topological order restricted to the segment.
    SegmentPacker packer(t, stages, stage_capacity);
    for (const tdg::NodeId v : t.topological_order()) {
        if (member[v] && packer.place(v) < 0) return std::nullopt;
    }
    std::vector<int> result(segment.size());
    for (std::size_t i = 0; i < segment.size(); ++i) result[i] = packer.stage_of(segment[i]);
    return result;
}

namespace {

// Depth-first packing over nodes in topological order. Tries every stage
// >= the node's earliest admissible one, largest remaining capacity first is
// unnecessary — plain ascending order with capacity pruning suffices here.
bool pack_recursive(const tdg::Tdg& t, const std::vector<tdg::NodeId>& order,
                    const std::vector<std::vector<std::size_t>>& preds, std::size_t index,
                    int stages, double stage_capacity, std::vector<double>& load,
                    std::vector<int>& stage_of, std::size_t& budget) {
    if (index == order.size()) return true;
    if (budget == 0) return false;
    --budget;
    int earliest = 0;
    for (const std::size_t p : preds[index]) {
        earliest = std::max(earliest, stage_of[p] + 1);
    }
    const double need = t.node(order[index]).resource_units();
    for (int s = earliest; s < stages; ++s) {
        if (load[static_cast<std::size_t>(s)] + need > stage_capacity + 1e-9) continue;
        load[static_cast<std::size_t>(s)] += need;
        stage_of[index] = s;
        if (pack_recursive(t, order, preds, index + 1, stages, stage_capacity, load,
                           stage_of, budget)) {
            return true;
        }
        load[static_cast<std::size_t>(s)] -= need;
    }
    return false;
}

}  // namespace

std::optional<std::vector<int>> assign_stages_exact(const tdg::Tdg& t,
                                                    const std::vector<tdg::NodeId>& segment,
                                                    int stages, double stage_capacity,
                                                    std::size_t node_budget) {
    if (stages <= 0 || stage_capacity <= 0.0) {
        throw std::invalid_argument("assign_stages_exact: bad switch geometry");
    }
    const std::set<tdg::NodeId> members(segment.begin(), segment.end());
    if (members.size() != segment.size()) {
        throw std::invalid_argument("assign_stages_exact: duplicate nodes in segment");
    }
    std::vector<tdg::NodeId> order;
    for (const tdg::NodeId v : t.topological_order()) {
        if (members.count(v)) order.push_back(v);
    }
    std::map<tdg::NodeId, std::size_t> index_of;
    for (std::size_t i = 0; i < order.size(); ++i) index_of[order[i]] = i;
    std::vector<std::vector<std::size_t>> preds(order.size());
    for (const tdg::Edge& e : t.edges()) {
        if (members.count(e.from) && members.count(e.to)) {
            preds[index_of[e.to]].push_back(index_of[e.from]);
        }
    }
    std::vector<double> load(static_cast<std::size_t>(stages), 0.0);
    std::vector<int> stage_of(order.size(), 0);
    std::size_t budget = node_budget;
    if (!pack_recursive(t, order, preds, 0, stages, stage_capacity, load, stage_of,
                        budget)) {
        return std::nullopt;
    }
    std::vector<int> result(segment.size());
    for (std::size_t i = 0; i < segment.size(); ++i) {
        result[i] = stage_of[index_of[segment[i]]];
    }
    return result;
}

bool segment_fits(const tdg::Tdg& t, const std::vector<tdg::NodeId>& segment, int stages,
                  double stage_capacity) {
    double total = 0.0;
    for (const tdg::NodeId v : segment) total += t.node(v).resource_units();
    if (total > stages * stage_capacity + 1e-9) return false;
    return assign_stages(t, segment, stages, stage_capacity).has_value();
}

}  // namespace hermes::core
