#include "core/journal.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fault/crash.h"
#include "util/crc.h"

namespace hermes::core {

namespace {

constexpr char kMagic[8] = {'H', 'E', 'R', 'M', 'E', 'S', 'J', '1'};
constexpr std::size_t kMagicSize = sizeof kMagic;
constexpr std::size_t kHeaderSize = 8;  // u32 length + u32 crc32c
// A journal payload is one epoch batch or one snapshot — megabytes at the
// very most. A length beyond this is a corrupt header, not a huge record.
constexpr std::uint32_t kMaxRecordBytes = 256u * 1024u * 1024u;

std::string errno_message(const char* what, const std::string& path) {
    return std::string(what) + " '" + path + "': " + std::strerror(errno);
}

util::Status write_all(int fd, const char* data, std::size_t size,
                       const std::string& path) {
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR) continue;
            return util::Status::io(errno_message("journal: write", path));
        }
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return {};
}

void put_u32_le(char* out, std::uint32_t v) {
    out[0] = static_cast<char>(v & 0xFFu);
    out[1] = static_cast<char>((v >> 8) & 0xFFu);
    out[2] = static_cast<char>((v >> 16) & 0xFFu);
    out[3] = static_cast<char>((v >> 24) & 0xFFu);
}

std::uint32_t get_u32_le(const char* in) {
    const auto* p = reinterpret_cast<const unsigned char*>(in);
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

// Best-effort parent-directory fsync so the rename in rotate() is durable.
// Failure is not fatal: the data file itself is already synced.
void sync_parent_dir(const std::string& path) {
    std::string dir = ".";
    if (const std::size_t slash = path.rfind('/'); slash != std::string::npos) {
        dir = slash == 0 ? "/" : path.substr(0, slash);
    }
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return;
    (void)::fsync(fd);
    (void)::close(fd);
}

}  // namespace

const char* to_string(Durability d) noexcept {
    switch (d) {
        case Durability::kNone: return "none";
        case Durability::kBatch: return "batch";
        case Durability::kEpoch: return "epoch";
    }
    return "batch";
}

std::optional<Durability> parse_durability(std::string_view text) noexcept {
    if (text == "none") return Durability::kNone;
    if (text == "batch") return Durability::kBatch;
    if (text == "epoch") return Durability::kEpoch;
    return std::nullopt;
}

util::StatusOr<Journal::ScanResult> Journal::scan(const std::string& path) {
    ScanResult result;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (errno == ENOENT) return result;  // fresh start, not an error
        return util::Status::io(errno_message("journal: open", path));
    }
    std::string data;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR) continue;
            const util::Status status =
                util::Status::io(errno_message("journal: read", path));
            (void)::close(fd);
            return status;
        }
        if (n == 0) break;
        data.append(buf, static_cast<std::size_t>(n));
    }
    (void)::close(fd);

    if (data.size() < kMagicSize) {
        // A crash during creation can leave a partial magic; recovery treats
        // it as an empty journal and open() rewrites it from scratch.
        result.torn_bytes = data.size();
        return result;
    }
    if (std::memcmp(data.data(), kMagic, kMagicSize) != 0) {
        return util::Status::io("journal: '" + path +
                                "' exists but is not a hermes journal (bad magic)");
    }
    result.found = true;

    std::size_t offset = kMagicSize;
    while (offset + kHeaderSize <= data.size()) {
        const std::uint32_t length = get_u32_le(data.data() + offset);
        const std::uint32_t crc = get_u32_le(data.data() + offset + 4);
        if (length > kMaxRecordBytes) break;                   // corrupt header
        if (offset + kHeaderSize + length > data.size()) break;  // torn payload
        const std::string_view payload(data.data() + offset + kHeaderSize, length);
        if (util::crc32c(payload) != crc) break;  // torn or corrupted write
        util::StatusOr<util::Json> parsed = util::parse_json(payload);
        if (!parsed.ok()) break;  // CRC of garbage that happened to match
        result.records.push_back(std::move(parsed).value());
        offset += kHeaderSize + length;
    }
    result.valid_bytes = offset;
    result.torn_bytes = data.size() - offset;
    return result;
}

util::StatusOr<Journal> Journal::open(std::string path, JournalOptions options) {
    util::StatusOr<ScanResult> scanned = scan(path);
    if (!scanned.ok()) return scanned.status();

    const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_APPEND, 0644);
    if (fd < 0) return util::Status::io(errno_message("journal: open", path));

    Journal journal(std::move(path), options, fd);
    const ScanResult& s = scanned.value();
    if (!s.found) {
        // Fresh (or torn-at-creation) file: start from a clean magic.
        if (::ftruncate(fd, 0) != 0) {
            return util::Status::io(errno_message("journal: truncate", journal.path_));
        }
        util::Status w = write_all(fd, kMagic, kMagicSize, journal.path_);
        if (!w.ok()) return w;
        if (options.durability != Durability::kNone) {
            util::Status synced = journal.sync_now();
            if (!synced.ok()) return synced;
        }
    } else if (s.torn_bytes > 0) {
        // Drop the torn tail so new appends extend valid history.
        if (::ftruncate(fd, static_cast<off_t>(s.valid_bytes)) != 0) {
            return util::Status::io(errno_message("journal: truncate", journal.path_));
        }
        if (options.sink != nullptr) {
            options.sink->counter("journal.truncated_tails").add(1);
            options.sink->counter("journal.truncated_bytes")
                .add(static_cast<std::int64_t>(s.torn_bytes));
        }
    }
    return journal;
}

Journal::Journal(Journal&& other) noexcept
    : path_(std::move(other.path_)),
      options_(other.options_),
      fd_(std::exchange(other.fd_, -1)),
      records_since_rotate_(other.records_since_rotate_),
      unsynced_records_(other.unsynced_records_) {}

Journal& Journal::operator=(Journal&& other) noexcept {
    if (this != &other) {
        if (fd_ >= 0) (void)::close(fd_);
        path_ = std::move(other.path_);
        options_ = other.options_;
        fd_ = std::exchange(other.fd_, -1);
        records_since_rotate_ = other.records_since_rotate_;
        unsynced_records_ = other.unsynced_records_;
    }
    return *this;
}

Journal::~Journal() {
    if (fd_ >= 0) (void)::close(fd_);
}

util::Status Journal::sync_now() {
    const auto start = std::chrono::steady_clock::now();
    if (::fsync(fd_) != 0) {
        return util::Status::io(errno_message("journal: fsync", path_));
    }
    unsynced_records_ = 0;
    if (options_.sink != nullptr) {
        const double us =
            std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                      start)
                .count();
        options_.sink->counter("journal.fsyncs").add(1);
        options_.sink
            ->histogram("journal.fsync_us", obs::geometric_bounds(1.0, 2.0, 24))
            .observe(us);
    }
    return {};
}

util::Status Journal::append(const util::Json& payload) {
    if (fd_ < 0) return util::Status::io("journal: append on a moved-from journal");
    const std::string body = payload.dump();
    if (body.size() > kMaxRecordBytes) {
        return util::Status::resource_exhausted("journal: record exceeds " +
                                                std::to_string(kMaxRecordBytes) +
                                                " bytes");
    }
    char header[kHeaderSize];
    put_u32_le(header, static_cast<std::uint32_t>(body.size()));
    put_u32_le(header + 4, util::crc32c(body));

    util::Status w = write_all(fd_, header, kHeaderSize, path_);
    if (!w.ok()) return w;
    fault::crash_point("journal.append.header");

    // Two-part payload write so the torn-record crash point sits between
    // bytes of one record, exactly where a real power cut can land.
    const std::size_t half = body.size() / 2;
    w = write_all(fd_, body.data(), half, path_);
    if (!w.ok()) return w;
    fault::crash_point("journal.append.payload");
    w = write_all(fd_, body.data() + half, body.size() - half, path_);
    if (!w.ok()) return w;
    fault::crash_point("journal.append.pre_sync");

    ++records_since_rotate_;
    ++unsynced_records_;
    if (options_.sink != nullptr) options_.sink->counter("journal.appends").add(1);

    switch (options_.durability) {
        case Durability::kNone:
            break;
        case Durability::kBatch:
            if (unsynced_records_ >= std::max<std::int64_t>(1, options_.batch_interval)) {
                return sync_now();
            }
            break;
        case Durability::kEpoch:
            return sync_now();
    }
    return {};
}

util::Status Journal::rotate(const util::Json& snapshot) {
    if (fd_ < 0) return util::Status::io("journal: rotate on a moved-from journal");
    const std::string body = snapshot.dump();
    const std::string tmp_path = path_ + ".tmp";

    const int tmp = ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (tmp < 0) return util::Status::io(errno_message("journal: open", tmp_path));
    char header[kHeaderSize];
    put_u32_le(header, static_cast<std::uint32_t>(body.size()));
    put_u32_le(header + 4, util::crc32c(body));
    util::Status w = write_all(tmp, kMagic, kMagicSize, tmp_path);
    if (w.ok()) w = write_all(tmp, header, kHeaderSize, tmp_path);
    if (w.ok()) w = write_all(tmp, body.data(), body.size(), tmp_path);
    if (w.ok() && ::fsync(tmp) != 0) {
        w = util::Status::io(errno_message("journal: fsync", tmp_path));
    }
    (void)::close(tmp);
    if (!w.ok()) {
        (void)::unlink(tmp_path.c_str());
        return w;
    }
    fault::crash_point("journal.snapshot.tmp");

    if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
        const util::Status status =
            util::Status::io(errno_message("journal: rename", tmp_path));
        (void)::unlink(tmp_path.c_str());
        return status;
    }
    fault::crash_point("journal.snapshot.renamed");
    sync_parent_dir(path_);

    // The old fd points at the unlinked previous log; switch to the new one.
    const int fd = ::open(path_.c_str(), O_RDWR | O_APPEND, 0644);
    if (fd < 0) return util::Status::io(errno_message("journal: reopen", path_));
    (void)::close(fd_);
    fd_ = fd;
    records_since_rotate_ = 0;
    unsynced_records_ = 0;
    if (options_.sink != nullptr) options_.sink->counter("journal.rotates").add(1);
    return {};
}

util::Status Journal::sync() {
    if (fd_ < 0) return util::Status::io("journal: sync on a moved-from journal");
    if (options_.durability == Durability::kNone || unsynced_records_ == 0) return {};
    return sync_now();
}

// ---- JSON codecs ---------------------------------------------------------

namespace {

const char* to_string(tdg::MatchKind k) noexcept {
    switch (k) {
        case tdg::MatchKind::kExact: return "exact";
        case tdg::MatchKind::kLpm: return "lpm";
        case tdg::MatchKind::kTernary: return "ternary";
        case tdg::MatchKind::kRange: return "range";
    }
    return "exact";
}

std::optional<tdg::MatchKind> parse_match_kind(std::string_view text) noexcept {
    if (text == "exact") return tdg::MatchKind::kExact;
    if (text == "lpm") return tdg::MatchKind::kLpm;
    if (text == "ternary") return tdg::MatchKind::kTernary;
    if (text == "range") return tdg::MatchKind::kRange;
    return std::nullopt;
}

std::optional<tdg::DepType> parse_dep_type(std::string_view text) noexcept {
    for (const tdg::DepType t :
         {tdg::DepType::kMatch, tdg::DepType::kAction, tdg::DepType::kReverseMatch,
          tdg::DepType::kSuccessor}) {
        if (text == tdg::to_string(t)) return t;
    }
    return std::nullopt;
}

util::Json field_to_json(const tdg::Field& f) {
    util::JsonObject o;
    o.emplace_back("name", f.name);
    // GCC 12 misreads the inlined vector growth below as an out-of-bounds
    // std::pair store (-Warray-bounds); GCC 13 does not.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif
    o.emplace_back("kind", f.kind == tdg::FieldKind::kMetadata ? "metadata" : "header");
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic pop
#endif
    o.emplace_back("size_bytes", f.size_bytes);
    return util::Json(std::move(o));
}

util::StatusOr<tdg::Field> field_from_json(const util::Json& j) {
    if (!j.is_object() || !j.get("name").is_string() || !j.get("kind").is_string() ||
        !j.get("size_bytes").is_int()) {
        return util::Status::invalid("journal: malformed field");
    }
    tdg::Field f;
    f.name = j.get("name").string_value();
    const std::string& kind = j.get("kind").string_value();
    if (kind == "metadata") {
        f.kind = tdg::FieldKind::kMetadata;
    } else if (kind == "header") {
        f.kind = tdg::FieldKind::kHeader;
    } else {
        return util::Status::invalid("journal: unknown field kind '" + kind + "'");
    }
    f.size_bytes = static_cast<int>(j.get("size_bytes").int_value());
    return f;
}

util::Json mat_to_json(const tdg::Mat& m) {
    util::JsonObject o;
    o.emplace_back("name", m.name());
    util::JsonArray match_fields;
    for (const tdg::Field& f : m.match_fields()) match_fields.push_back(field_to_json(f));
    o.emplace_back("match_fields", std::move(match_fields));
    util::JsonArray actions;
    for (const tdg::Action& a : m.actions()) {
        util::JsonObject ao;
        ao.emplace_back("name", a.name);
        util::JsonArray writes;
        for (const tdg::Field& f : a.writes) writes.push_back(field_to_json(f));
        ao.emplace_back("writes", std::move(writes));
        actions.push_back(util::Json(std::move(ao)));
    }
    o.emplace_back("actions", std::move(actions));
    o.emplace_back("rule_capacity", m.rule_capacity());
    o.emplace_back("resource_units", m.resource_units());
    o.emplace_back("match_kind", to_string(m.match_kind()));
    util::JsonArray rules;
    for (const tdg::Rule& r : m.rules()) {
        util::JsonObject ro;
        ro.emplace_back("match_key", r.match_key);
        ro.emplace_back("action", r.action_index);
        rules.push_back(util::Json(std::move(ro)));
    }
    o.emplace_back("rules", std::move(rules));
    return util::Json(std::move(o));
}

util::StatusOr<tdg::Mat> mat_from_json(const util::Json& j) {
    if (!j.is_object() || !j.get("name").is_string() ||
        !j.get("match_fields").is_array() || !j.get("actions").is_array() ||
        !j.get("rule_capacity").is_int() || !j.get("resource_units").is_number() ||
        !j.get("match_kind").is_string()) {
        return util::Status::invalid("journal: malformed mat");
    }
    std::vector<tdg::Field> match_fields;
    for (const util::Json& fj : j.get("match_fields").array()) {
        util::StatusOr<tdg::Field> f = field_from_json(fj);
        if (!f.ok()) return f.status();
        match_fields.push_back(std::move(f).value());
    }
    std::vector<tdg::Action> actions;
    for (const util::Json& aj : j.get("actions").array()) {
        if (!aj.is_object() || !aj.get("name").is_string() ||
            !aj.get("writes").is_array()) {
            return util::Status::invalid("journal: malformed action");
        }
        tdg::Action a;
        a.name = aj.get("name").string_value();
        for (const util::Json& fj : aj.get("writes").array()) {
            util::StatusOr<tdg::Field> f = field_from_json(fj);
            if (!f.ok()) return f.status();
            a.writes.push_back(std::move(f).value());
        }
        actions.push_back(std::move(a));
    }
    const std::optional<tdg::MatchKind> kind =
        parse_match_kind(j.get("match_kind").string_value());
    if (!kind.has_value()) {
        return util::Status::invalid("journal: unknown match kind '" +
                                     j.get("match_kind").string_value() + "'");
    }
    try {
        tdg::Mat mat(j.get("name").string_value(), std::move(match_fields),
                     std::move(actions), j.get("rule_capacity").int_value(),
                     j.get("resource_units").double_value(), *kind);
        for (const util::Json& rj : j.get("rules").array()) {
            if (!rj.is_object() || !rj.get("match_key").is_string() ||
                !rj.get("action").is_int()) {
                return util::Status::invalid("journal: malformed rule");
            }
            mat.add_rule(tdg::Rule{
                rj.get("match_key").string_value(),
                static_cast<std::size_t>(rj.get("action").int_value())});
        }
        return mat;
    } catch (const std::exception& e) {
        return util::Status::invalid(std::string("journal: mat rejected: ") + e.what());
    }
}

}  // namespace

util::Json program_to_json(const prog::Program& program) {
    util::JsonObject o;
    o.emplace_back("name", program.name());
    util::JsonArray mats;
    for (const tdg::Mat& m : program.mats()) mats.push_back(mat_to_json(m));
    o.emplace_back("mats", std::move(mats));
    util::JsonArray gates;
    for (const auto& [up, down] : program.gates()) {
        gates.push_back(util::Json(util::JsonArray{util::Json(up), util::Json(down)}));
    }
    o.emplace_back("gates", std::move(gates));
    util::JsonArray edges;
    for (const prog::Program::ExplicitEdge& e : program.explicit_edges()) {
        util::JsonObject eo;
        eo.emplace_back("from", e.from);
        eo.emplace_back("to", e.to);
        eo.emplace_back("type", tdg::to_string(e.type));
        edges.push_back(util::Json(std::move(eo)));
    }
    o.emplace_back("explicit_edges", std::move(edges));
    return util::Json(std::move(o));
}

util::StatusOr<prog::Program> program_from_json(const util::Json& j) {
    if (!j.is_object() || !j.get("name").is_string() || !j.get("mats").is_array()) {
        return util::Status::invalid("journal: malformed program");
    }
    try {
        prog::Program program(j.get("name").string_value());
        for (const util::Json& mj : j.get("mats").array()) {
            util::StatusOr<tdg::Mat> mat = mat_from_json(mj);
            if (!mat.ok()) return mat.status();
            program.add_mat(std::move(mat).value());
        }
        for (const util::Json& gj : j.get("gates").array()) {
            if (!gj.is_array() || gj.array().size() != 2 ||
                !gj.array()[0].is_int() || !gj.array()[1].is_int()) {
                return util::Status::invalid("journal: malformed gate");
            }
            program.add_gate(static_cast<std::size_t>(gj.array()[0].int_value()),
                             static_cast<std::size_t>(gj.array()[1].int_value()));
        }
        for (const util::Json& ej : j.get("explicit_edges").array()) {
            if (!ej.is_object() || !ej.get("from").is_int() || !ej.get("to").is_int() ||
                !ej.get("type").is_string()) {
                return util::Status::invalid("journal: malformed explicit edge");
            }
            const std::optional<tdg::DepType> type =
                parse_dep_type(ej.get("type").string_value());
            if (!type.has_value()) {
                return util::Status::invalid("journal: unknown dependency type '" +
                                             ej.get("type").string_value() + "'");
            }
            program.add_explicit_edge(
                static_cast<std::size_t>(ej.get("from").int_value()),
                static_cast<std::size_t>(ej.get("to").int_value()), *type);
        }
        return program;
    } catch (const std::exception& e) {
        return util::Status::invalid(std::string("journal: program rejected: ") +
                                     e.what());
    }
}

util::Json deployment_to_json(const Deployment& d) {
    util::JsonObject o;
    util::JsonArray placements;
    for (const Placement& p : d.placements) {
        placements.push_back(
            util::Json(util::JsonArray{util::Json(p.sw), util::Json(p.stage)}));
    }
    o.emplace_back("placements", std::move(placements));
    util::JsonArray routes;
    for (const auto& [pair, path] : d.routes) {
        util::JsonObject ro;
        ro.emplace_back("from", pair.first);
        ro.emplace_back("to", pair.second);
        util::JsonArray switches;
        for (const net::SwitchId sw : path.switches) switches.push_back(util::Json(sw));
        ro.emplace_back("switches", std::move(switches));
        // util::Json round-trips doubles exactly, so the recovered route
        // latency is bit-identical — fingerprints depend on this.
        ro.emplace_back("latency_us", path.latency_us);
        routes.push_back(util::Json(std::move(ro)));
    }
    // Same GCC 12 -Warray-bounds false positive as in field_to_json.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif
    o.emplace_back("routes", std::move(routes));
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic pop
#endif
    return util::Json(std::move(o));
}

util::StatusOr<Deployment> deployment_from_json(const util::Json& j) {
    if (!j.is_object() || !j.get("placements").is_array() ||
        !j.get("routes").is_array()) {
        return util::Status::invalid("journal: malformed deployment");
    }
    Deployment d;
    for (const util::Json& pj : j.get("placements").array()) {
        if (!pj.is_array() || pj.array().size() != 2 || !pj.array()[0].is_int() ||
            !pj.array()[1].is_int()) {
            return util::Status::invalid("journal: malformed placement");
        }
        d.placements.push_back(
            Placement{static_cast<net::SwitchId>(pj.array()[0].int_value()),
                      static_cast<int>(pj.array()[1].int_value())});
    }
    for (const util::Json& rj : j.get("routes").array()) {
        if (!rj.is_object() || !rj.get("from").is_int() || !rj.get("to").is_int() ||
            !rj.get("switches").is_array() || !rj.get("latency_us").is_number()) {
            return util::Status::invalid("journal: malformed route");
        }
        net::Path path;
        for (const util::Json& sj : rj.get("switches").array()) {
            if (!sj.is_int()) return util::Status::invalid("journal: malformed route hop");
            path.switches.push_back(static_cast<net::SwitchId>(sj.int_value()));
        }
        path.latency_us = rj.get("latency_us").double_value();
        d.routes.emplace(
            std::make_pair(static_cast<net::SwitchId>(rj.get("from").int_value()),
                           static_cast<net::SwitchId>(rj.get("to").int_value())),
            std::move(path));
    }
    return d;
}

}  // namespace hermes::core
