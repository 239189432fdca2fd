// serve-churn: a seeded churn script against hermes_serve over a stdio pipe,
// one client, closed loop, one request in flight.
//
// The daemon runs `--topology table3:1 --journal <file> --snapshot-interval
// 256` with every other flag at its default. Closed loop keeps the epoch
// sequence identical from run to run, so rung counts and amax_bytes repeat
// exactly; pipelined requests would coalesce into epochs that depend on
// timing.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>

#include "core/engine.h"
#include "core/journal.h"
#include "core/serve.h"
#include "core/verifier.h"
#include "gen.h"
#include "net/topozoo.h"
#include "obs/obs.h"
#include "stats.h"
#include "util/json.h"
#include "workloads.h"

extern char** environ;

namespace layerbench {

namespace {

using namespace hermes;
namespace fs = std::filesystem;

constexpr int kTopologyId = 1;  // --topology table3:1
// A timed run plays sub-scripts one after another until --seconds have
// passed (at least one), so how many fit follows the speed of the disk under
// the journal rather than stretching the run. A traced run plays one per
// started kSecondsPerScript of --seconds whatever the disk does: its table
// compares traced and untraced replays whose rotation fsyncs vary, and more
// sub-scripts average that out. Sub-scripts have their own seeds, so a run
// averages over several independent tenant histories.
constexpr std::size_t kScriptRequests = 1000;
constexpr double kSecondsPerScript = 6.0;
// Epochs between snapshot rotations (the daemon's default is 64), and the
// epochs every restart replays past the last snapshot. A rotation waits on
// two fsyncs, whose cost on a shared disk moved by half within minutes; at
// 64 the rotations were 1.4% of requests, so p99 sat among them and followed
// the disk (IQR/median up to 0.27 over ten seeds). At 256 they are 0.35%,
// and p99 sits among the `replace` fallbacks, which are compute-bound.
constexpr std::size_t kSnapshotInterval = 256;
constexpr std::size_t kTailEpochs = 8;
constexpr int kRestarts = 5;  // set-up samples per sub-script
constexpr int kResponseTimeoutMs = 60000;

// hermes_serve on a pair of pipes. The destructor kills and reaps it.
class Daemon {
public:
    Daemon(const std::string& bin, const std::string& journal, const std::string& log) {
        int in[2];
        int out[2];
        if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0) {
            throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
        }
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, in[0], STDIN_FILENO);
        posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
        posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND, 0644);
        const std::string topology = "table3:" + std::to_string(kTopologyId);
        std::vector<std::string> args = {bin, "--topology", topology, "--journal", journal,
                                         "--snapshot-interval",
                                         std::to_string(kSnapshotInterval)};
        std::vector<char*> argv;
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(in[0]);
        ::close(out[1]);
        to_ = in[1];
        from_ = out[0];
        if (rc != 0) {
            pid_ = -1;
            close_pipes();
            throw std::runtime_error("cannot start " + bin + ": " + std::strerror(rc));
        }
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;
    ~Daemon() {
        if (pid_ > 0) (void)kill9();
        close_pipes();
    }

    // Writes one request line and reads its response line.
    std::string request(const std::string& line) {
        std::string data = line + "\n";
        std::size_t sent = 0;
        while (sent < data.size()) {
            const ssize_t n = ::write(to_, data.data() + sent, data.size() - sent);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) throw std::runtime_error("hermes_serve closed its input");
            sent += static_cast<std::size_t>(n);
        }
        for (;;) {
            const std::size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                std::string response = buffer_.substr(0, nl);
                buffer_.erase(0, nl + 1);
                return response;
            }
            pollfd p{from_, POLLIN, 0};
            const int ready = ::poll(&p, 1, kResponseTimeoutMs);
            if (ready < 0 && errno == EINTR) continue;
            if (ready <= 0) throw std::runtime_error("hermes_serve did not answer in time");
            char chunk[1 << 14];
            const ssize_t n = ::read(from_, chunk, sizeof chunk);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) throw std::runtime_error("hermes_serve exited mid-request");
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    // kill -9, reap, and return the daemon's peak resident set in MiB.
    double kill9() {
        ::kill(pid_, SIGKILL);
        int status = 0;
        rusage usage{};
        while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
        }
        pid_ = -1;
        return static_cast<double>(usage.ru_maxrss) / 1024.0;
    }

private:
    void close_pipes() {
        if (to_ >= 0) ::close(to_);
        if (from_ >= 0) ::close(from_);
        to_ = from_ = -1;
    }

    pid_t pid_ = -1;
    int to_ = -1;
    int from_ = -1;
    std::string buffer_;
};

// What a response says, for comparing the daemon with the in-process replay.
struct Answer {
    bool ok = false;
    std::string status;        // mutation: the rung; query: "query"
    std::int64_t amax = 0;     // mutation: metrics.a_max_bytes
    double solve_s = 0.0;      // mutation: solve_seconds
    std::int64_t fingerprint = 0;  // query
    bool operator==(const Answer& o) const {
        return ok == o.ok && status == o.status && amax == o.amax &&
               fingerprint == o.fingerprint;
    }
};

Answer read_answer(const std::string& line, std::size_t expected_id) {
    Answer a;
    const util::StatusOr<util::Json> parsed = util::parse_json(line);
    if (!parsed.ok()) return a;
    const util::Json& root = parsed.value();
    const util::Json& result = root.get("result");
    a.ok = root.get("ok").bool_value() &&
           root.get("id").int_value() == static_cast<std::int64_t>(expected_id);
    if (result.has("fingerprint")) {
        a.status = "query";
        a.fingerprint = result.get("fingerprint").int_value();
    } else {
        a.status = result.get("status").string_value();
        a.amax = result.get("metrics").get("a_max_bytes").int_value();
        a.solve_s = result.get("solve_seconds").double_value();
    }
    return a;
}

using Script = std::vector<ChurnRequest>;

// Writes back what earlier passes left dirty on the journal's filesystem, so
// that their writeback does not land in the next pass's fsyncs.
void write_back(const std::string& dir) {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd >= 0) {
        (void)::syncfs(fd);
        ::close(fd);
    }
}

struct WirePass {
    std::vector<double> latency_us;  // per request
    std::vector<Answer> answers;
    std::int64_t final_fingerprint = 0;
    double peak_rss_mb = 0.0;
};

// Runs `script` against a daemon on a fresh journal at `journal`, then
// kill -9s it after the last response, leaving the journal as it was.
WirePass wire_pass(const RunArgs& args, const Script& script, const std::string& journal,
                   Outcome& outcome) {
    fs::remove(journal);
    fs::remove(journal + ".tmp");
    write_back(args.work_dir);
    WirePass pass;
    Daemon daemon(args.serve_bin, journal, (fs::path(args.work_dir) / "daemon.log").string());
    for (std::size_t i = 0; i < script.size(); ++i) {
        outcome.attempt();
        const auto start = Clock::now();
        const std::string response = daemon.request(script[i].line);
        pass.latency_us.push_back(us_since(start));
        Answer answer = read_answer(response, i + 1);
        if (!answer.ok) outcome.fail("request " + std::to_string(i + 1) + " answered " + response);
        if (answer.status == "query") pass.final_fingerprint = answer.fingerprint;
        pass.answers.push_back(std::move(answer));
    }
    pass.peak_rss_mb = daemon.kill9();
    return pass;
}

// Restarts a daemon on copies of a killed daemon's journal, timing each from
// spawn to its first answered query, which must show `fingerprint`.
std::vector<double> restart_times(const RunArgs& args, const std::string& killed,
                                  std::int64_t fingerprint, Outcome& outcome) {
    const std::string journal = (fs::path(args.work_dir) / "restart.journal").string();
    std::vector<double> times;
    for (int r = 0; r < kRestarts; ++r) {
        // Every restart recovers the same on-disk state.
        fs::remove(journal + ".tmp");
        fs::copy_file(killed, journal, fs::copy_options::overwrite_existing);
        // The copy is the benchmark's doing: its writeback must not land in
        // the restarted daemon's fsyncs.
        write_back(args.work_dir);
        outcome.attempt();
        const auto start = Clock::now();
        Daemon daemon(args.serve_bin, journal, (fs::path(args.work_dir) / "daemon.log").string());
        const std::string response = daemon.request("{\"id\":1,\"op\":\"query\"}");
        times.push_back(seconds_since(start));
        const Answer answer = read_answer(response, 1);
        if (!answer.ok || answer.fingerprint != fingerprint) {
            outcome.fail("restart " + std::to_string(r + 1) + " answered " + response +
                         ", expected fingerprint " + std::to_string(fingerprint));
        }
    }
    return times;
}

core::EngineOptions daemon_engine_options(obs::Sink* sink) {
    // hermes_serve's defaults (tools/serve_main.cc).
    core::EngineOptions o;
    o.threads = 1;
    o.seed = 1;
    o.milp.time_limit_seconds = 30.0;
    o.milp.threads = 1;
    o.sink = sink;
    return o;
}

core::JournalOptions journal_options(obs::Sink* sink) {
    core::JournalOptions o;  // batch durability, as the daemon's default
    o.snapshot_interval = static_cast<std::int64_t>(kSnapshotInterval);
    o.sink = sink;
    return o;
}

// The script through an in-process ServeSession, timing each request's
// handling; with a journal when `journal` is non-empty.
struct Replay {
    std::vector<Answer> answers;
    std::vector<double> handling_us;
    std::uint32_t fingerprint = 0;
};

// Starts journaling at `journal`, which must not hold an earlier log.
void fresh_journal(core::Engine& engine, const std::string& journal, obs::Sink* sink) {
    fs::remove(journal);
    fs::remove(journal + ".tmp");
    write_back(fs::path(journal).parent_path().string());
    (void)engine.recover(journal, journal_options(sink)).value();
}

Replay session_replay(const Script& script, const std::string& journal) {
    core::Engine engine(net::table3_topology(kTopologyId), daemon_engine_options(nullptr));
    if (!journal.empty()) fresh_journal(engine, journal, nullptr);
    core::ServeSession session(engine);
    Replay replay;
    std::string out;
    for (std::size_t i = 0; i < script.size(); ++i) {
        out.clear();
        const auto start = Clock::now();
        session.handle_line(script[i].line, out);
        session.flush(out);
        replay.handling_us.push_back(us_since(start));
        if (!out.empty() && out.back() == '\n') out.pop_back();
        replay.answers.push_back(read_answer(out, i + 1));
    }
    replay.fingerprint = engine.fingerprint();
    return replay;
}

void compare(const std::vector<Answer>& wire, const std::vector<Answer>& replay,
             const std::string& what, Outcome& outcome) {
    std::int64_t differ = 0;
    for (std::size_t i = 0; i < wire.size() && i < replay.size(); ++i) {
        differ += !(wire[i] == replay[i]);
    }
    if (differ > 0 || wire.size() != replay.size()) {
        outcome.fail(std::to_string(differ) + " responses differ between the daemon and " + what,
                     std::max<std::int64_t>(1, differ));
    }
}

double mean_amax(const std::vector<Answer>& answers) {
    double total = 0.0;
    std::size_t n = 0;
    for (const Answer& a : answers) {
        if (a.status == "query") continue;
        total += static_cast<double>(a.amax);
        ++n;
    }
    return n > 0 ? total / static_cast<double>(n) : 0.0;
}

// A run's sub-scripts, drawn one at a time from its seed: the k-th is the
// same however many the run plays.
class Scripts {
public:
    explicit Scripts(std::uint64_t seed) : seeds_(seed) {
        const net::Network topology = net::table3_topology(kTopologyId);
        switches_ = topology.switch_count();
        for (const net::Link& l : topology.links()) links_.emplace_back(l.a, l.b);
    }

    Script next() {
        Script script = churn_script(switches_, links_, seeds_(), kScriptRequests,
                                     kSnapshotInterval, kTailEpochs);
        for (const ChurnRequest& r : script) ++mix_[r.op];
        requests_ += script.size();
        ++played_;
        return script;
    }

    // The request mix of every sub-script drawn so far.
    void print_mix(std::ostream& os) const {
        const auto n = [&](ChurnOp op) {
            const auto it = mix_.find(op);
            return it == mix_.end() ? std::size_t{0} : it->second;
        };
        os << "script: " << played_ << " sub-scripts, " << requests_ << " requests: "
           << n(ChurnOp::kAdd) << " add, " << n(ChurnOp::kRemove) << " remove, "
           << n(ChurnOp::kRetarget) << " retarget, " << n(ChurnOp::kInjectFault) << " fault, "
           << n(ChurnOp::kRecover) << " recover, " << n(ChurnOp::kQuery) << " query\n";
    }

private:
    Rng seeds_;
    std::size_t switches_ = 0;
    LinkList links_;
    std::map<ChurnOp, std::size_t> mix_;
    std::size_t requests_ = 0;
    std::size_t played_ = 0;
};

// ---- traced run ------------------------------------------------------------

// One request of the traced replay, microseconds per piece.
struct Step {
    bool mutation = false;
    std::string status;  // the epoch's rung (mutations)
    double parse = 0.0, spec = 0.0, apply = 0.0, resolve = 0.0, format = 0.0, verify = 0.0;
    bool rotated = false;  // journal.rotates ticked during the epoch
    [[nodiscard]] double handled() const { return parse + spec + apply + format; }
};

// parse_request -> Engine::apply -> delta_outcome_json / format_ok, with the
// engine's sink on and the journal enabled through Engine::recover.
std::vector<Step> traced_replay(const Script& script, const std::string& journal,
                                obs::Sink& sink, std::vector<Answer>& answers, Outcome& outcome) {
    core::Engine engine(net::table3_topology(kTopologyId), daemon_engine_options(&sink));
    fresh_journal(engine, journal, &sink);
    obs::Counter& rotates = sink.counter("journal.rotates");
    std::vector<Step> steps;
    for (std::size_t i = 0; i < script.size(); ++i) {
        outcome.attempt();
        Step step;
        auto start = Clock::now();
        util::StatusOr<core::ServeRequest> parsed = core::parse_request(script[i].line);
        step.parse = us_since(start);
        if (!parsed.ok()) throw std::runtime_error("unparsable request " + script[i].line);
        const core::ServeRequest& request = parsed.value();
        std::string response;

        if (request.op == "query") {
            // The fields ServeSession's query answer carries.
            start = Clock::now();
            util::Json result{util::JsonObject{}};
            result.set("epoch", engine.epoch());
            util::JsonArray names;
            for (std::string& name : engine.program_names()) names.emplace_back(std::move(name));
            result.set("programs", std::move(names));
            result.set("nodes", engine.merged().node_count());
            result.set("incumbent", engine.has_incumbent());
            result.set("fingerprint", static_cast<std::int64_t>(engine.fingerprint()));
            result.set("journaling", engine.journaling());
            util::Json metrics{util::JsonObject{}};
            metrics.set("a_max_bytes", engine.metrics().max_pair_metadata_bytes);
            metrics.set("inflight_bytes", engine.metrics().max_inflight_metadata_bytes);
            metrics.set("latency_us", engine.metrics().route_latency_us);
            metrics.set("switches", engine.metrics().occupied_switches);
            result.set("metrics", std::move(metrics));
            util::Json network{util::JsonObject{}};
            network.set("switches", engine.network().switch_count());
            network.set("live_links", engine.network().live_link_count());
            result.set("network", std::move(network));
            response = core::format_ok(request.id, std::move(result));
            step.format = us_since(start);
        } else {
            step.mutation = true;
            core::Engine::Mutation m;
            if (request.op == "add_program") {
                start = Clock::now();
                util::StatusOr<prog::Program> program = core::resolve_program_spec(request.spec);
                if (!program.ok()) throw std::runtime_error("bad spec " + request.spec);
                m.kind = core::Engine::Mutation::Kind::kAddProgram;
                m.program = std::move(program).value();
                m.program->set_name(request.name);
                step.spec = us_since(start);
            } else if (request.op == "remove_program") {
                m.kind = core::Engine::Mutation::Kind::kRemoveProgram;
                m.name = request.name;
            } else if (request.op == "retarget_traffic") {
                m.kind = core::Engine::Mutation::Kind::kRetarget;
            } else {
                m.kind = core::Engine::Mutation::Kind::kFault;
                m.fault = request.fault;
            }
            std::vector<core::Engine::Mutation> batch;
            batch.push_back(std::move(m));
            const std::int64_t rotates_before = rotates.value();
            start = Clock::now();
            util::StatusOr<core::DeltaOutcome> applied = engine.apply(std::move(batch));
            step.apply = us_since(start);
            step.rotated = rotates.value() != rotates_before;
            if (!applied.ok()) {
                throw std::runtime_error("in-process epoch " + std::to_string(i + 1) +
                                         " failed: " + applied.status().to_string());
            }
            const core::DeltaOutcome& o = applied.value();
            step.status = o.status;
            step.resolve = o.solve_seconds * 1e6;

            start = Clock::now();
            util::Json result = core::delta_outcome_json(o, 1);
            result.set("op", request.op);
            response = core::format_ok(request.id, std::move(result));
            step.format = us_since(start);

            // Beside the path: re-verify what was served.
            start = Clock::now();
            const bool verified =
                engine.has_incumbent() &&
                core::verify(engine.merged(), engine.network(), engine.incumbent()).ok;
            step.verify = us_since(start);
            if (!verified) {
                outcome.fail("served deployment of request " + std::to_string(i + 1) +
                             " does not verify");
            }
        }
        answers.push_back(read_answer(response, i + 1));
        steps.push_back(std::move(step));
    }
    return steps;
}

void run_traced(const RunArgs& args, Outcome& outcome) {
    const fs::path dir(args.work_dir);
    obs::Sink sink;
    std::vector<double> wire_latency;     // untraced, on the wire
    std::vector<Answer> wire_answers;
    std::vector<double> untraced_handling;  // untraced, in-process
    std::vector<Step> steps;                // traced, in-process
    std::vector<double> scan_us, recover_us, replayed;
    Scripts scripts(args.seed);
    const auto played = static_cast<std::size_t>(std::ceil(args.seconds / kSecondsPerScript));
    for (std::size_t k = 0; k < played; ++k) {
        const Script script = scripts.next();
        // Untraced: the wire. Then the same script in-process, untraced
        // through a ServeSession and traced piece by piece, in alternating
        // order so that neither always runs first.
        const WirePass wire = wire_pass(args, script, (dir / "wire.journal").string(), outcome);
        const std::string journal = (dir / "traced.journal").string();
        Replay untraced;
        std::vector<Answer> traced_answers;
        std::vector<Step> traced;
        const auto run_untraced = [&] {
            untraced = session_replay(script, (dir / "untraced.journal").string());
        };
        const auto run_pieces = [&] {
            traced = traced_replay(script, journal, sink, traced_answers, outcome);
        };
        if (k % 2 == 0) {
            run_untraced();
            run_pieces();
        } else {
            run_pieces();
            run_untraced();
        }
        compare(wire.answers, untraced.answers, "the untraced in-process replay", outcome);
        compare(wire.answers, traced_answers, "the traced in-process replay", outcome);

        // Restart from what the traced replay left on disk.
        auto start = Clock::now();
        const auto scanned = core::Journal::scan(journal);
        scan_us.push_back(us_since(start));
        if (!scanned.ok()) outcome.fail("journal scan: " + scanned.status().to_string());
        core::Engine engine(net::table3_topology(kTopologyId), daemon_engine_options(nullptr));
        start = Clock::now();
        const auto report = engine.recover(journal, journal_options(nullptr));
        recover_us.push_back(us_since(start));
        outcome.attempt();
        if (!report.ok() ||
            static_cast<std::int64_t>(engine.fingerprint()) != wire.final_fingerprint) {
            outcome.fail("in-process recovery does not reproduce the final fingerprint");
        } else {
            replayed.push_back(static_cast<double>(report.value().replayed_epochs));
        }

        wire_latency.insert(wire_latency.end(), wire.latency_us.begin(), wire.latency_us.end());
        wire_answers.insert(wire_answers.end(), wire.answers.begin(), wire.answers.end());
        untraced_handling.insert(untraced_handling.end(), untraced.handling_us.begin(),
                                 untraced.handling_us.end());
        steps.insert(steps.end(), traced.begin(), traced.end());
    }

    scripts.print_mix(std::cout);

    LayerMetrics layers;
    layers.set("amax_bytes", mean_amax(wire_answers));
    layers.set("recover.scan_us", median(scan_us));
    layers.set("recover.total_us", median(recover_us));
    layers.set("recover.replayed_epochs", median(replayed));

    std::map<std::string, std::int64_t> c;
    for (const auto& counter : sink.counters()) c[counter.name] = counter.value;
    const auto count = [&](const char* name) { return static_cast<double>(c[name]); };
    const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

    // Per request and per piece.
    std::vector<double> outside_resolve, pipe, parse, spec, format, verify, resolve,
        pre_resolve, rotate_epoch, greedy;
    std::map<std::string, std::vector<double>> rung_apply;
    std::map<std::string, double> rung_resolve;
    double wire_total = 0.0;
    double traced_total = 0.0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const Step& s = steps[i];
        wire_total += wire_latency[i];
        traced_total += s.handled();
        pipe.push_back(wire_latency[i] - untraced_handling[i]);
        parse.push_back(s.parse);
        format.push_back(s.format);
        if (!s.mutation) continue;
        if (s.spec > 0.0) spec.push_back(s.spec);
        outside_resolve.push_back(wire_latency[i] - wire_answers[i].solve_s * 1e6);
        verify.push_back(s.verify);
        resolve.push_back(s.resolve);
        pre_resolve.push_back(s.apply - s.resolve);
        rung_apply[s.status].push_back(s.apply);
        rung_resolve[s.status] += s.resolve;
        if (s.rotated) rotate_epoch.push_back(s.apply);
    }
    for (const obs::TraceEvent& e : sink.events()) {
        if (std::strcmp(e.name, "deploy_greedy") == 0) {
            greedy.push_back(static_cast<double>(e.end_ns - e.start_ns) / 1e3);
        }
    }

    layers.set("serve.outside_resolve_us", median(outside_resolve));
    layers.set("serve.parse_us", median(parse));
    layers.set("serve.spec_us", median(spec));
    layers.set("serve.format_us", median(format));
    layers.set("serve.pipe_us", median(pipe));
    const std::vector<std::string> rungs = {"intact", "incremental", "retarget",
                                            "reroute", "replace", "greedy"};
    double surviving = 0.0;  // epochs whose placements survived into the epoch
    for (const auto& [status, v] : rung_apply) {
        if (std::find(rungs.begin(), rungs.end(), status) == rungs.end()) {
            std::cout << "note: " << v.size() << " epochs ended on rung '" << status << "'\n";
        }
        if (status != "greedy" && status != "empty") surviving += static_cast<double>(v.size());
    }
    for (const std::string& rung : rungs) {
        const std::vector<double>& v = rung_apply[rung];
        layers.set("engine.rung." + rung + "_us", median(v));
        layers.set("engine.rung." + rung + "_n", static_cast<double>(v.size()));
    }
    layers.set("engine.resolve_us", median(resolve));
    layers.set("engine.pre_resolve_us", median(pre_resolve));
    layers.set("engine.delta_fallback_ratio",
               ratio(static_cast<double>(rung_apply["replace"].size()), surviving));
    layers.set("engine.delta_fallback_base", surviving);
    const double merges =
        count("engine.merge_hits") + count("engine.merge_extends") + count("engine.merge_misses");
    layers.set("engine.merge_hit_ratio", ratio(count("engine.merge_hits"), merges));
    layers.set("engine.merge_lookups", merges);
    layers.set("journal.rotate_epoch_us", median(rotate_epoch));
    layers.set("journal.rotate_epoch_n", static_cast<double>(rotate_epoch.size()));
    // Bucketed estimates: the journal records fsync time in a histogram.
    obs::Histogram& fsync =
        sink.histogram("journal.fsync_us", obs::geometric_bounds(1.0, 2.0, 24));
    layers.set("journal.fsync_p50_us", fsync.quantile(0.50));
    layers.set("journal.fsync_p99_us", fsync.quantile(0.99));
    layers.set("journal.appends", count("journal.appends"));
    layers.set("journal.fsyncs", count("journal.fsyncs"));
    layers.set("journal.rotates", count("journal.rotates"));
    layers.set("verify_us", median(verify));
    layers.set("greedy.deploy_us", median(greedy));
    layers.set("greedy.segments", count("greedy.segments"));
    layers.set("greedy.anchors_tried", count("greedy.anchors_tried"));
    const double trees = count("oracle.tree_hits") + count("oracle.tree_misses");
    const double kpaths = count("oracle.k_hits") + count("oracle.k_misses");
    layers.set("oracle.tree_hit_ratio", ratio(count("oracle.tree_hits"), trees));
    layers.set("oracle.tree_lookups", trees);
    layers.set("oracle.k_hit_ratio", ratio(count("oracle.k_hits"), kpaths));
    layers.set("oracle.k_lookups", kpaths);

    // The table: wire time split into transport and the traced pieces.
    const double untraced_total = sum(untraced_handling);
    std::vector<LayerRow> rows = {
        {"wire transport (pipe)", wire_total - untraced_total,
         "wire latency minus untraced in-process handling"},
        {"serve parse_request", sum(parse), std::to_string(parse.size()) + " calls"},
        {"serve program spec", sum(spec), std::to_string(spec.size()) + " adds"},
        {"engine pre-resolve", sum(pre_resolve),
         "apply minus solve_seconds: validation, journal append + fsync, to_tdg, faults, " +
             std::to_string(rotate_epoch.size()) + " snapshot rotations"},
    };
    for (const auto& [rung, v] : rung_apply) {
        if (v.empty()) continue;
        rows.push_back({"engine resolve: " + rung, rung_resolve[rung],
                        std::to_string(v.size()) + " epochs"});
    }
    rows.push_back({"serve format", sum(format), "delta_outcome_json + format_ok"});
    rows.push_back({"verifier", sum(verify), "re-verify of each served deployment", true});

    const Reconciliation r = print_layer_table(std::cout, args.workload, "wire time", wire_total,
                                               rows, traced_total, untraced_total);
    layers.set("report.unattributed_frac", r.unattributed_frac);
    layers.set("report.tracing_overhead_frac", r.overhead_frac);
    layers.add_to(outcome);
}

}  // namespace

void run_serve_churn(const RunArgs& args, Outcome& outcome) {
    ::signal(SIGPIPE, SIG_IGN);  // a dead daemon must surface as an error, not kill us
    if (args.trace) {
        run_traced(args, outcome);
        return;
    }

    // Each sub-script: its wire pass, then restarts on its killed journal,
    // then the in-process replay the daemon must agree with.
    const fs::path dir(args.work_dir);
    const std::string journal = (dir / "wire.journal").string();
    Scripts scripts(args.seed);
    std::vector<double> restart_s;
    std::vector<double> latency_ms;
    std::vector<Answer> answers;
    double peak_rss_mb = 0.0;
    const auto run_start = Clock::now();
    for (std::size_t k = 0; k == 0 || seconds_since(run_start) < args.seconds; ++k) {
        const Script script = scripts.next();
        const WirePass pass = wire_pass(args, script, journal, outcome);
        std::cout << "sub-script " << k + 1 << ": " << sum(pass.latency_us) / 1e6
                  << " s on the wire, fingerprint " << pass.final_fingerprint << "\n";
        const std::vector<double> times =
            restart_times(args, journal, pass.final_fingerprint, outcome);
        restart_s.insert(restart_s.end(), times.begin(), times.end());
        for (const double us : pass.latency_us) latency_ms.push_back(us / 1000.0);
        answers.insert(answers.end(), pass.answers.begin(), pass.answers.end());
        peak_rss_mb = std::max(peak_rss_mb, pass.peak_rss_mb);

        const Replay replay = session_replay(script, "");
        outcome.attempt();
        if (static_cast<std::int64_t>(replay.fingerprint) != pass.final_fingerprint) {
            outcome.fail("final fingerprint " + std::to_string(pass.final_fingerprint) +
                         " differs from the in-process replay's " +
                         std::to_string(replay.fingerprint));
        }
        compare(pass.answers, replay.answers, "the in-process replay", outcome);
    }
    scripts.print_mix(std::cout);
    std::cout << "restarts: " << restart_s.size() << ", median " << median(restart_s) << " s\n";

    std::map<std::string, std::size_t> rungs;
    for (const Answer& a : answers) ++rungs[a.status];
    std::cout << "rungs:";
    for (const auto& [status, n] : rungs) std::cout << " " << status << "=" << n;
    std::cout << "\n";

    const Tail tail = highest_supported_tail(latency_ms);
    const std::size_t beyond99 = samples_beyond(latency_ms.size(), 99.0);
    std::cout << "latency: n " << latency_ms.size() << ", p99 has " << beyond99
              << " samples beyond it; highest supported tail p" << tail.p << " = " << tail.value
              << " ms\n";
    if (beyond99 < kMinBeyond) throw std::logic_error("script too short for a p99");
    std::cout << "mean A_max " << mean_amax(answers) << " bytes\n";
    outcome.metric("p50_ms", percentile(latency_ms, 50.0), "ms");
    outcome.metric("p99_ms", percentile(latency_ms, 99.0), "ms");
    outcome.metric("setup_s", median(restart_s), "s");
    outcome.metric("peak_rss_mb", peak_rss_mb, "MiB");
}

}  // namespace layerbench
