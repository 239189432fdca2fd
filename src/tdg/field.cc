#include "tdg/field.h"

#include <algorithm>
#include <stdexcept>

namespace hermes::tdg {

namespace {
Field make(std::string name, FieldKind kind, int size_bytes) {
    if (name.empty()) throw std::invalid_argument("field: empty name");
    if (size_bytes <= 0) throw std::invalid_argument("field: non-positive size");
    return Field{std::move(name), kind, size_bytes};
}
}  // namespace

Field header_field(std::string name, int size_bytes) {
    return make(std::move(name), FieldKind::kHeader, size_bytes);
}

Field metadata_field(std::string name, int size_bytes) {
    return make(std::move(name), FieldKind::kMetadata, size_bytes);
}

namespace common_metadata {
Field switch_identifier() { return metadata_field("meta.switch_id", 4); }
Field queue_lengths() { return metadata_field("meta.queue_lengths", 6); }
Field timestamps() { return metadata_field("meta.timestamps", 12); }
Field counter_index() { return metadata_field("meta.counter_index", 4); }
}  // namespace common_metadata

int metadata_bytes(const std::vector<Field>& fields) {
    // Field lists are a MAT's few writes: a scan of the earlier entries
    // dedups without allocating.
    int total = 0;
    for (auto f = fields.begin(); f != fields.end(); ++f) {
        if (!f->is_metadata()) continue;
        const bool seen = std::any_of(fields.begin(), f, [&](const Field& earlier) {
            return earlier.is_metadata() && earlier.name == f->name;
        });
        if (!seen) total += f->size_bytes;
    }
    return total;
}

}  // namespace hermes::tdg
