#include "serve_main.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <iostream>
#include <optional>
#include <set>

#include "cli_common.h"
#include "core/engine.h"
#include "core/serve.h"
#include "util/rng.h"
#include "util/strings.h"

namespace hermes::cli {

namespace {

struct ServeFlags {
    std::string topology;
    double eps1 = std::numeric_limits<double>::infinity();
    std::int64_t eps2 = std::numeric_limits<std::int64_t>::max();
    int threads = 1;
    std::uint64_t seed = 1;
    double epoch_deadline = 0.0;
    double time_limit = 30.0;  // MILP escalation budget
    bool allow_milp = false;
    int listen_port = -1;       // -1 = stdio mode
    int max_connections = 0;    // 0 = accept until killed
    std::string emit_churn;     // "<events>[:seed]"; empty = serve
    // Durability (empty journal = no persistence; see core/journal.h).
    std::string journal;
    core::Durability durability = core::Durability::kBatch;
    std::int64_t snapshot_interval = 64;
    // Overload protection (0 disables a cap).
    std::size_t max_request_bytes = 1u << 20;
    std::size_t max_epoch_ops = 1024;
    ExportOptions exports;
};

int flag_error(const util::Status& status) {
    std::cerr << "error: " << status.to_string() << "\n";
    return 2;
}

util::StatusOr<ServeFlags> parse_serve_flags(const std::vector<std::string>& args) {
    ServeFlags flags;
    FlagParser parser(args);
    auto value = [&]() { return parser.value(); };
    while (parser.next()) {
        const std::string& flag = parser.flag();
        util::StatusOr<std::string> v = std::string{};
        if (flag == "--allow-milp") {
            if (parser.has_inline_value()) {
                return util::Status::invalid("--allow-milp takes no value");
            }
            flags.allow_milp = true;
            continue;
        }
        v = value();
        if (!v.ok()) return v.status();
        try {
            if (flag == "--topology") {
                flags.topology = v.value();
            } else if (flag == "--eps1") {
                flags.eps1 = util::parse_double(v.value());
            } else if (flag == "--eps2") {
                flags.eps2 = util::parse_int(v.value());
            } else if (flag == "--threads") {
                flags.threads = static_cast<int>(util::parse_int(v.value()));
            } else if (flag == "--seed") {
                flags.seed = static_cast<std::uint64_t>(util::parse_int(v.value()));
            } else if (flag == "--epoch-deadline" || flag == "--repair-deadline") {
                // --repair-deadline is the paper-facing spelling: the budget
                // after which an epoch's ladder stops climbing and degrades.
                flags.epoch_deadline = util::parse_double(v.value());
            } else if (flag == "--journal") {
                flags.journal = v.value();
            } else if (flag == "--durability") {
                const std::optional<core::Durability> d =
                    core::parse_durability(v.value());
                if (!d.has_value()) {
                    return util::Status::invalid(
                        "--durability takes none|batch|epoch, got '" + v.value() + "'");
                }
                flags.durability = *d;
            } else if (flag == "--snapshot-interval") {
                flags.snapshot_interval = util::parse_int(v.value());
            } else if (flag == "--max-request-bytes") {
                flags.max_request_bytes =
                    static_cast<std::size_t>(util::parse_int(v.value()));
            } else if (flag == "--max-epoch-ops") {
                flags.max_epoch_ops =
                    static_cast<std::size_t>(util::parse_int(v.value()));
            } else if (flag == "--time-limit") {
                flags.time_limit = util::parse_double(v.value());
            } else if (flag == "--listen") {
                flags.listen_port = static_cast<int>(util::parse_int(v.value()));
            } else if (flag == "--max-connections") {
                flags.max_connections = static_cast<int>(util::parse_int(v.value()));
            } else if (flag == "--emit-churn") {
                flags.emit_churn = v.value();
            } else if (flag == "--trace-out") {
                flags.exports.trace_out = v.value();
            } else if (flag == "--metrics-out") {
                flags.exports.metrics_out = v.value();
            } else {
                return util::Status::invalid("unknown option '" + flag + "'");
            }
        } catch (const std::invalid_argument& ex) {
            return util::Status::invalid(ex.what());
        }
    }
    if (flags.topology.empty()) {
        return util::Status::invalid("--topology is required (serve)");
    }
    return flags;
}

// True when removing link (a, b) disconnects the live component containing
// a: BFS from a over live adjacency, pretending the link is down.
bool is_bridge(net::Network& net, net::SwitchId a, net::SwitchId b) {
    if (!net.fail_link(a, b)) return true;  // unknown/already down: leave it be
    std::vector<bool> seen(net.switch_count(), false);
    std::deque<net::SwitchId> queue{a};
    seen[a] = true;
    bool found = false;
    while (!queue.empty() && !found) {
        const net::SwitchId u = queue.front();
        queue.pop_front();
        for (const net::SwitchId w : net.neighbors(u)) {
            if (seen[w]) continue;
            seen[w] = true;
            if (w == b) found = true;
            queue.push_back(w);
        }
    }
    net.recover_link(a, b);
    return !found;
}

// Deterministic churn-script generator: prints one JSON request per line.
// The script is conservative by construction — link failures only, one open
// failure at a time, never a bridge — so every epoch of a replay stays
// verifier-clean (the point of the CI smoke job that pipes this back in).
int emit_churn(const ServeFlags& flags, net::Network network) {
    const auto parts = util::split(flags.emit_churn, ':');
    std::size_t events = 0;
    std::uint64_t seed = flags.seed;
    try {
        events = static_cast<std::size_t>(util::parse_int(parts.empty() ? "" : parts[0]));
        if (parts.size() > 1) {
            seed = static_cast<std::uint64_t>(util::parse_int(parts[1]));
        }
    } catch (const std::invalid_argument&) {
        return flag_error(util::Status::invalid("--emit-churn <events>[:seed]"));
    }

    util::SplitMix64 rng(seed);
    std::vector<std::string> installed;
    std::optional<std::pair<net::SwitchId, net::SwitchId>> open_failure;
    constexpr std::size_t kMaxTenants = 10;
    std::int64_t next_tenant = 0;
    std::int64_t id = 0;

    auto emit = [&](util::Json request) {
        request.set("id", ++id);
        std::cout << request.dump() << "\n";
    };
    auto add_tenant = [&] {
        util::Json r{util::JsonObject{}};
        const std::string name = "t" + std::to_string(next_tenant);
        r.set("op", "add_program");
        r.set("name", name);
        r.set("spec", "synthetic:" + std::to_string(seed) + ":" +
                          std::to_string(next_tenant));
        ++next_tenant;
        installed.push_back(name);
        emit(std::move(r));
    };
    auto remove_tenant = [&] {
        const std::size_t pick = rng() % installed.size();
        util::Json r{util::JsonObject{}};
        r.set("op", "remove_program");
        r.set("name", installed[pick]);
        installed.erase(installed.begin() + static_cast<std::ptrdiff_t>(pick));
        emit(std::move(r));
    };
    auto recover_failure = [&] {
        util::Json r{util::JsonObject{}};
        r.set("op", "recover");
        r.set("kind", "link-up");
        r.set("a", open_failure->first);
        r.set("b", open_failure->second);
        open_failure.reset();
        emit(std::move(r));
    };

    // Seed the session with a couple of tenants so early faults have a
    // deployment to disturb.
    add_tenant();
    add_tenant();
    for (std::size_t i = 2; i < events; ++i) {
        const std::uint64_t roll = rng() % 100;
        if (roll < 45) {
            if (installed.size() < kMaxTenants) {
                add_tenant();
            } else {
                remove_tenant();
            }
        } else if (roll < 65) {
            if (installed.size() > 1) {
                remove_tenant();
            } else {
                add_tenant();
            }
        } else if (roll < 75) {
            if (open_failure.has_value()) {
                recover_failure();
                continue;
            }
            // Pick a random non-bridge live link; skip the event if the
            // sampled candidates are all bridges.
            const auto& links = network.links();
            bool placed = false;
            for (int attempt = 0; attempt < 8 && !placed; ++attempt) {
                const net::Link& link = links[rng() % links.size()];
                if (!network.link_up(link.a, link.b) ||
                    is_bridge(network, link.a, link.b)) {
                    continue;
                }
                (void)network.fail_link(link.a, link.b);
                open_failure = {link.a, link.b};
                util::Json r{util::JsonObject{}};
                r.set("op", "inject_fault");
                r.set("kind", "link-down");
                r.set("a", link.a);
                r.set("b", link.b);
                emit(std::move(r));
                placed = true;
            }
            if (!placed) {
                util::Json r{util::JsonObject{}};
                r.set("op", "query");
                emit(std::move(r));
            }
        } else if (roll < 85) {
            if (open_failure.has_value()) {
                (void)network.recover_link(open_failure->first, open_failure->second);
                recover_failure();
            } else {
                util::Json r{util::JsonObject{}};
                r.set("op", "retarget_traffic");
                emit(std::move(r));
            }
        } else if (roll < 93) {
            util::Json r{util::JsonObject{}};
            r.set("op", "retarget_traffic");
            emit(std::move(r));
        } else {
            util::Json r{util::JsonObject{}};
            r.set("op", "query");
            emit(std::move(r));
        }
    }
    if (open_failure.has_value()) {
        (void)network.recover_link(open_failure->first, open_failure->second);
        recover_failure();
    }
    util::Json final_query{util::JsonObject{}};
    final_query.set("op", "query");
    emit(std::move(final_query));
    return 0;
}

// Assembles '\n'-terminated request lines from a byte stream while
// enforcing the request byte cap: a line that exceeds the cap before its
// terminator arrives stops being buffered — the rest of it is counted and
// discarded, and exactly one oversized rejection is emitted once the
// terminator (or EOF) shows up. This is the fix for the historical
// unbounded std::getline: an abusive or broken client streaming a gigabyte
// without a newline no longer grows daemon memory past the cap.
class LineAssembler {
public:
    LineAssembler(core::ServeSession& session, std::size_t max_bytes)
        : session_(session), max_bytes_(max_bytes) {}

    void feed(std::string_view data, std::string& out) {
        while (!data.empty()) {
            const std::size_t nl = data.find('\n');
            const std::string_view chunk =
                data.substr(0, nl == std::string_view::npos ? data.size() : nl);
            if (dropped_ > 0 ||
                (max_bytes_ > 0 && line_.size() + chunk.size() > max_bytes_)) {
                dropped_ += chunk.size();
            } else {
                line_.append(chunk);
            }
            if (nl == std::string_view::npos) return;  // terminator not here yet
            dispatch(out);
            data.remove_prefix(nl + 1);
        }
    }

    // EOF: handle a final unterminated line, if any.
    void finish(std::string& out) {
        if (dropped_ > 0 || !line_.empty()) dispatch(out);
    }

private:
    void dispatch(std::string& out) {
        if (dropped_ > 0) {
            session_.reject_oversized(line_.size() + dropped_, out);
        } else {
            session_.handle_line(line_, out);
        }
        line_.clear();
        dropped_ = 0;
    }

    core::ServeSession& session_;
    std::size_t max_bytes_;
    std::string line_;
    std::size_t dropped_ = 0;  // bytes of the current oversized line discarded
};

void stdio_loop(core::ServeSession& session) {
    LineAssembler assembler(session, session.options().max_request_bytes);
    std::string out;
    char chunk[1 << 16];
    for (;;) {
        const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (n == 0) break;
        assembler.feed(std::string_view(chunk, static_cast<std::size_t>(n)), out);
        // Flush the staged epoch at the read boundary — a burst of pipelined
        // requests arrives in one read and coalesces into one epoch, a lone
        // interactive request answers immediately.
        session.flush(out);
        if (!out.empty()) {
            std::cout << out;
            std::cout.flush();
            out.clear();
        }
    }
    assembler.finish(out);
    session.flush(out);
    if (!out.empty()) {
        std::cout << out;
        std::cout.flush();
    }
}

int tcp_loop(core::Engine& engine, const core::ServeOptions& serve_options,
             const ServeFlags& flags) {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0) {
        std::cerr << "error: socket: " << std::strerror(errno) << "\n";
        return 1;
    }
    const int one = 1;
    ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(flags.listen_port));
    if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
        ::listen(listener, 8) < 0) {
        std::cerr << "error: bind/listen 127.0.0.1:" << flags.listen_port << ": "
                  << std::strerror(errno) << "\n";
        ::close(listener);
        return 1;
    }
    socklen_t addr_len = sizeof(addr);
    ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len);
    std::cerr << "hermes_serve: listening on 127.0.0.1:" << ntohs(addr.sin_port)
              << "\n";

    int served = 0;
    while (flags.max_connections == 0 || served < flags.max_connections) {
        const int conn = ::accept(listener, nullptr, nullptr);
        if (conn < 0) break;
        // One session per connection: staged epochs are per-client, the
        // engine (and its incumbent) is shared across connections.
        core::ServeSession session(engine, serve_options);
        LineAssembler assembler(session, serve_options.max_request_bytes);
        std::string out;
        char chunk[4096];
        for (;;) {
            const ssize_t n = ::recv(conn, chunk, sizeof(chunk), 0);
            if (n <= 0) break;
            assembler.feed(std::string_view(chunk, static_cast<std::size_t>(n)), out);
            // Everything received so far is handled: this recv boundary is
            // the epoch boundary.
            session.flush(out);
            std::size_t sent = 0;
            while (sent < out.size()) {
                const ssize_t w = ::send(conn, out.data() + sent, out.size() - sent, 0);
                if (w <= 0) break;
                sent += static_cast<std::size_t>(w);
            }
            out.clear();
        }
        assembler.finish(out);
        session.flush(out);
        if (!out.empty()) {
            (void)::send(conn, out.data(), out.size(), 0);
        }
        ::close(conn);
        ++served;
    }
    ::close(listener);
    return 0;
}

}  // namespace

int run_serve(const std::vector<std::string>& args) {
    util::StatusOr<ServeFlags> parsed = parse_serve_flags(args);
    if (!parsed.ok()) return flag_error(parsed.status());
    const ServeFlags& flags = parsed.value();

    util::StatusOr<net::Network> network = parse_topology_spec(flags.topology);
    if (!network.ok()) return flag_error(network.status());

    if (!flags.emit_churn.empty()) {
        return emit_churn(flags, std::move(network).value());
    }

    std::optional<obs::Sink> sink_storage;
    obs::Sink* const sink = make_sink(flags.exports, sink_storage);

    core::EngineOptions engine_options;
    engine_options.threads = flags.threads;
    engine_options.seed = flags.seed;
    engine_options.sink = sink;
    engine_options.epsilon1 = flags.eps1;
    engine_options.epsilon2 = flags.eps2;
    engine_options.epoch_deadline_seconds = flags.epoch_deadline;
    engine_options.allow_milp = flags.allow_milp;
    engine_options.milp.time_limit_seconds = flags.time_limit;
    engine_options.milp.threads = flags.threads;
    core::Engine engine(std::move(network).value(), engine_options);

    if (!flags.journal.empty()) {
        core::JournalOptions journal_options;
        journal_options.durability = flags.durability;
        journal_options.snapshot_interval = flags.snapshot_interval;
        journal_options.sink = sink;
        util::StatusOr<core::Engine::RecoveryReport> recovered =
            engine.recover(flags.journal, journal_options);
        if (!recovered.ok()) return flag_error(recovered.status());
        const core::Engine::RecoveryReport& report = recovered.value();
        if (report.journal_found) {
            std::cerr << "hermes_serve: recovered journal " << flags.journal
                      << " (snapshot epoch " << report.snapshot_epoch << ", replayed "
                      << report.replayed_epochs << " epochs, " << report.failed_replays
                      << " failed, " << report.truncated_bytes
                      << " torn bytes dropped) at epoch " << report.epoch << "\n";
        }
    }

    core::ServeOptions serve_options;
    serve_options.sink = sink;
    serve_options.max_request_bytes = flags.max_request_bytes;
    serve_options.max_epoch_ops = flags.max_epoch_ops;
    serve_options.resolver = [](std::string_view spec) {
        return parse_serve_program_spec(std::string(spec));
    };

    int rc = 0;
    if (flags.listen_port >= 0) {
        rc = tcp_loop(engine, serve_options, flags);
    } else {
        core::ServeSession session(engine, serve_options);
        stdio_loop(session);
    }
    if (sink != nullptr) {
        const util::Status status = write_exports(*sink, flags.exports);
        if (!status.ok()) {
            std::cerr << "error: " << status.to_string() << "\n";
            return 1;
        }
    }
    return rc;
}

}  // namespace hermes::cli
