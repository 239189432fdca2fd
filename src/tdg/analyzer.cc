#include "tdg/analyzer.h"

#include "obs/obs.h"
#include "tdg/field.h"
#include "tdg/merge.h"

namespace hermes::tdg {

int edge_metadata_bytes(const Mat& a, const Mat& b, DepType type) {
    switch (type) {
        case DepType::kMatch:
        case DepType::kSuccessor:
            return metadata_bytes(a.modified_fields());
        case DepType::kAction: {
            std::vector<Field> fields = a.modified_fields();
            fields.insert(fields.end(), b.modified_fields().begin(),
                          b.modified_fields().end());
            return metadata_bytes(fields);  // deduplicates by name
        }
        case DepType::kReverseMatch:
            return 0;
    }
    return 0;
}

void analyze(Tdg& t) {
    for (Edge& e : t.edges()) {
        e.metadata_bytes = edge_metadata_bytes(t.node(e.from), t.node(e.to), e.type);
    }
}

std::size_t add_write_conflict_edges(Tdg& t) {
    UnionFold fold;
    fold.push(t);
    const std::size_t added = fold.graph().edge_count() - t.edge_count();
    t = std::move(fold).release();
    return added;
}

Tdg analyze_programs(std::vector<Tdg> programs, obs::Sink* sink) {
    Tdg merged = [&] {
        obs::Span span(sink, "analyzer.merge");
        return merge_all(std::move(programs));
    }();
    std::size_t conflict_edges = 0;
    {
        obs::Span span(sink, "analyzer.conflict_edges");
        conflict_edges = add_write_conflict_edges(merged);  // annotates every edge too
    }
    if (sink) {
        sink->counter("analyzer.nodes").add(static_cast<std::int64_t>(merged.node_count()));
        sink->counter("analyzer.edges").add(static_cast<std::int64_t>(merged.edges().size()));
        sink->counter("analyzer.conflict_edges").add(static_cast<std::int64_t>(conflict_edges));
    }
    return merged;
}

}  // namespace hermes::tdg
