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

namespace {

// t's in-edges as CSR: the predecessors of v are
// preds[first[v] .. first[v + 1]), in edge order. One pass over the edges.
void index_in_edges(const tdg::Tdg& t, std::vector<std::size_t>& first,
                    std::vector<tdg::NodeId>& preds) {
    first.assign(t.node_count() + 1, 0);
    preds.resize(t.edge_count());
    for (const tdg::Edge& e : t.edges()) ++first[e.to + 1];
    for (std::size_t v = 0; v < t.node_count(); ++v) first[v + 1] += first[v];
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (const tdg::Edge& e : t.edges()) preds[next[e.to]++] = e.from;
}

}  // namespace

StagePacker::StagePacker(int stages, double capacity)
    : load_(static_cast<std::size_t>(std::max(stages, 0)), 0.0), capacity_(capacity) {
    if (stages <= 0 || capacity <= 0.0) {
        throw std::invalid_argument("StagePacker: bad geometry");
    }
}

std::optional<int> StagePacker::find_slot(double resource, int min_stage) const {
    for (int s = std::max(min_stage, 0); s < stages(); ++s) {
        if (load_[static_cast<std::size_t>(s)] + resource <= capacity_ + 1e-9) return s;
    }
    return std::nullopt;
}

std::optional<int> StagePacker::place(double resource, int min_stage) {
    const auto slot = find_slot(resource, min_stage);
    if (slot) commit(*slot, resource);
    return slot;
}

void StagePacker::commit(int stage, double resource) {
    if (stage < 0 || stage >= stages()) throw std::out_of_range("StagePacker::commit");
    load_[static_cast<std::size_t>(stage)] += resource;
}

void StagePacker::clear() { std::fill(load_.begin(), load_.end(), 0.0); }

double StagePacker::remaining_total() const noexcept {
    double total = 0.0;
    for (const double l : load_) total += capacity_ - l;
    return total;
}

bool chain_first_fit(const tdg::Tdg& t, const std::vector<tdg::NodeId>& order,
                     const std::vector<net::SwitchId>& chain,
                     std::vector<StagePacker>& packers, Deployment& placements,
                     std::vector<bool>& placed, std::size_t start_hint) {
    if (packers.size() != chain.size()) {
        throw std::invalid_argument("chain_first_fit: packers/chain size mismatch");
    }
    if (placements.placements.size() != t.node_count()) {
        placements.placements.resize(t.node_count());
    }
    if (placed.size() != t.node_count()) placed.assign(t.node_count(), false);

    // Chain position per switch id, then per placed node; a switch off the
    // chain sits past its end, so nothing can follow it.
    std::vector<std::size_t> position;
    for (std::size_t k = 0; k < chain.size(); ++k) {
        if (chain[k] >= position.size()) position.resize(chain[k] + 1, chain.size());
        position[chain[k]] = k;
    }
    std::vector<std::size_t> chain_index(t.node_count(), 0);
    for (tdg::NodeId v = 0; v < t.node_count(); ++v) {
        if (!placed[v]) continue;
        const net::SwitchId sw = placements.placements[v].sw;
        chain_index[v] = sw < position.size() ? position[sw] : chain.size();
    }

    std::vector<std::size_t> pred_first;
    std::vector<tdg::NodeId> preds;
    index_in_edges(t, pred_first, preds);

    for (const tdg::NodeId v : order) {
        if (placed[v]) continue;
        // Earliest admissible chain position: after every placed predecessor.
        std::size_t first = start_hint;
        for (std::size_t i = pred_first[v]; i < pred_first[v + 1]; ++i) {
            if (placed[preds[i]]) first = std::max(first, chain_index[preds[i]]);
        }
        bool done = false;
        for (std::size_t k = first; k < chain.size() && !done; ++k) {
            int min_stage = 0;
            for (std::size_t i = pred_first[v]; i < pred_first[v + 1]; ++i) {
                const tdg::NodeId p = preds[i];
                if (placed[p] && chain_index[p] == k) {
                    min_stage = std::max(min_stage, placements.placements[p].stage + 1);
                }
            }
            const auto stage = packers[k].place(t.node(v).resource_units(), min_stage);
            if (!stage) continue;
            placements.placements[v] = Placement{chain[k], *stage};
            chain_index[v] = k;
            placed[v] = true;
            done = true;
        }
        if (!done) return false;
    }
    return true;
}

SegmentPacker::SegmentPacker(const tdg::Tdg& t, int stages, double stage_capacity)
    : t_(t), loads_(stages, stage_capacity), position_(t.node_count()),
      stage_(t.node_count(), -1) {
    const std::vector<tdg::NodeId> order = t.topological_order();
    for (std::size_t i = 0; i < order.size(); ++i) position_[order[i]] = i;
    index_in_edges(t, pred_first_, preds_);
}

void SegmentPacker::sort_topologically(std::vector<tdg::NodeId>& nodes) const {
    std::sort(nodes.begin(), nodes.end(), [&](tdg::NodeId a, tdg::NodeId b) {
        return position_[a] < position_[b];
    });
}

std::optional<std::vector<int>> SegmentPacker::pack(const std::vector<tdg::NodeId>& segment) {
    for (const tdg::NodeId v : segment) {
        if (v >= stage_.size()) throw std::out_of_range("SegmentPacker::pack: bad node id");
    }
    // Sorting by position offers the members in the order the whole-TDG
    // topological order filtered by membership would, and puts a repeated
    // id next to itself.
    order_.assign(segment.begin(), segment.end());
    sort_topologically(order_);
    if (std::adjacent_find(order_.begin(), order_.end()) != order_.end()) {
        throw std::invalid_argument("SegmentPacker::pack: duplicate nodes in segment");
    }
    bool packed = true;
    for (const tdg::NodeId v : order_) {
        if (place(v) < 0) {
            packed = false;
            break;
        }
    }
    std::optional<std::vector<int>> result;
    if (packed) {
        result.emplace(segment.size());
        for (std::size_t i = 0; i < segment.size(); ++i) (*result)[i] = stage_[segment[i]];
    }
    clear();
    return result;
}

bool SegmentPacker::fits(const std::vector<tdg::NodeId>& segment) {
    double total = 0.0;
    for (const tdg::NodeId v : segment) total += t_.node(v).resource_units();
    if (total > loads_.stages() * loads_.capacity() + 1e-9) return false;
    return pack(segment).has_value();
}

int SegmentPacker::place(tdg::NodeId v) {
    int earliest = 0;
    for (std::size_t k = pred_first_[v]; k < pred_first_[v + 1]; ++k) {
        const int p = stage_[preds_[k]];
        if (p >= 0) earliest = std::max(earliest, p + 1);
    }
    const double need = t_.node(v).resource_units();
    const std::optional<int> s = loads_.place(need, earliest);
    if (!s) return -1;
    total_ += need;
    stage_[v] = *s;
    packed_.push_back(v);
    return *s;
}

bool SegmentPacker::add(tdg::NodeId v) {
    const double need = t_.node(v).resource_units();
    if (total_ + need > loads_.stages() * loads_.capacity() + 1e-9) return false;
    return place(v) >= 0;
}

void SegmentPacker::clear() {
    for (const tdg::NodeId v : packed_) stage_[v] = -1;
    packed_.clear();
    loads_.clear();
    total_ = 0.0;
}

std::optional<std::vector<int>> assign_stages(const tdg::Tdg& t,
                                              const std::vector<tdg::NodeId>& segment,
                                              int stages, double stage_capacity) {
    return SegmentPacker(t, stages, stage_capacity).pack(segment);
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
    return SegmentPacker(t, stages, stage_capacity).fits(segment);
}

}  // namespace hermes::core
