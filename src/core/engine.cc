#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "core/verifier.h"
#include "fault/crash.h"
#include "fault/injector.h"
#include "obs/obs.h"
#include "util/crc.h"

namespace hermes::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// One epoch op as journaled ({"op": ...}); inverse below. These live here —
// not in journal.h — because Mutation is the engine's own type.
util::Json mutation_to_json(const Engine::Mutation& m) {
    util::JsonObject o;
    switch (m.kind) {
        case Engine::Mutation::Kind::kAddProgram:
            o.emplace_back("op", "add_program");
            o.emplace_back("program", program_to_json(*m.program));
            break;
        case Engine::Mutation::Kind::kRemoveProgram:
            o.emplace_back("op", "remove_program");
            o.emplace_back("name", m.name);
            break;
        case Engine::Mutation::Kind::kRetarget:
            o.emplace_back("op", "retarget");
            break;
        case Engine::Mutation::Kind::kFault:
            o.emplace_back("op", "fault");
            o.emplace_back("kind", fault::to_string(m.fault.kind));
            o.emplace_back("a", m.fault.a);
            o.emplace_back("b", m.fault.b);
            o.emplace_back("at_us", m.fault.at_us);
            break;
    }
    return util::Json(std::move(o));
}

util::StatusOr<Engine::Mutation> mutation_from_json(const util::Json& j) {
    if (!j.is_object() || !j.get("op").is_string()) {
        return util::Status::invalid("journal: malformed epoch op");
    }
    const std::string& op = j.get("op").string_value();
    Engine::Mutation m;
    if (op == "add_program") {
        util::StatusOr<prog::Program> program = program_from_json(j.get("program"));
        if (!program.ok()) return program.status();
        m.kind = Engine::Mutation::Kind::kAddProgram;
        m.program = std::move(program).value();
    } else if (op == "remove_program") {
        if (!j.get("name").is_string()) {
            return util::Status::invalid("journal: remove_program without a name");
        }
        m.kind = Engine::Mutation::Kind::kRemoveProgram;
        m.name = j.get("name").string_value();
    } else if (op == "retarget") {
        m.kind = Engine::Mutation::Kind::kRetarget;
    } else if (op == "fault") {
        const std::optional<fault::FaultKind> kind =
            fault::parse_fault_kind(j.get("kind").string_value());
        if (!kind.has_value()) {
            return util::Status::invalid("journal: unknown fault kind");
        }
        m.kind = Engine::Mutation::Kind::kFault;
        m.fault.kind = *kind;
        m.fault.a = static_cast<net::SwitchId>(j.get("a").int_value());
        m.fault.b = static_cast<net::SwitchId>(j.get("b").int_value());
        m.fault.at_us = j.get("at_us").double_value();
    } else {
        return util::Status::invalid("journal: unknown epoch op '" + op + "'");
    }
    return m;
}

// The incumbent's metrics as snapshots and fingerprints record them.
util::Json metrics_to_json(const DeploymentMetrics& metrics) {
    return util::JsonObject{{"max_pair_metadata_bytes", metrics.max_pair_metadata_bytes},
                            {"max_inflight_metadata_bytes", metrics.max_inflight_metadata_bytes},
                            {"route_latency_us", metrics.route_latency_us},
                            {"occupied_switches", metrics.occupied_switches},
                            {"total_resource_units", metrics.total_resource_units}};
}

}  // namespace

Engine::Engine(net::Network network, EngineOptions options)
    : network_(std::move(network)), options_(std::move(options)), oracle_(network_) {}

void Engine::bump(const char* counter, std::int64_t delta) const {
    if (options_.sink != nullptr) options_.sink->counter(counter).add(delta);
}

std::vector<std::string> Engine::program_names() const {
    std::vector<std::string> names;
    names.reserve(programs_.size());
    for (const auto& p : programs_) names.push_back(p->program.name());
    return names;
}

HermesOptions Engine::hermes_options(const Deadline& deadline) {
    HermesOptions h;
    static_cast<CommonOptions&>(h) = static_cast<const CommonOptions&>(options_);
    h.deadline = deadline;
    h.epsilon1 = options_.epsilon1;
    h.epsilon2 = options_.epsilon2;
    h.oracle = &oracle_;
    h.milp = options_.milp;
    h.milp.threads = options_.resolved_threads();
    h.segment_level_milp = merged().node_count() > 40;
    return h;
}

void Engine::refold(std::size_t position) {
    fold_.truncate(position);
    for (std::size_t i = fold_.size(); i < programs_.size(); ++i) fold_.push(programs_[i]->tdg);
}

util::StatusOr<DeltaOutcome> Engine::add_program(prog::Program program) {
    std::vector<Mutation> batch(1);
    batch[0].kind = Mutation::Kind::kAddProgram;
    batch[0].program = std::move(program);
    return apply(std::move(batch));
}

util::StatusOr<DeltaOutcome> Engine::remove_program(const std::string& name) {
    std::vector<Mutation> batch(1);
    batch[0].kind = Mutation::Kind::kRemoveProgram;
    batch[0].name = name;
    return apply(std::move(batch));
}

util::StatusOr<DeltaOutcome> Engine::retarget_traffic() {
    std::vector<Mutation> batch(1);
    batch[0].kind = Mutation::Kind::kRetarget;
    return apply(std::move(batch));
}

util::StatusOr<DeltaOutcome> Engine::apply_fault(const fault::FaultEvent& e) {
    std::vector<Mutation> batch(1);
    batch[0].kind = Mutation::Kind::kFault;
    batch[0].fault = e;
    return apply(std::move(batch));
}

util::StatusOr<DeltaOutcome> Engine::apply(std::vector<Mutation> batch) {
    obs::Span span(options_.sink, "engine.epoch");
    bump("engine.epochs");

    // ---- Validate the whole batch before touching any state. ----
    std::vector<std::string> working = program_names();
    bool want_retarget = false;
    bool have_fault = false;
    for (const Mutation& m : batch) {
        switch (m.kind) {
            case Mutation::Kind::kAddProgram: {
                if (!m.program.has_value() || m.program->name().empty()) {
                    return util::Status::invalid("add_program: program with a name required");
                }
                const std::string& name = m.program->name();
                if (name.find('\n') != std::string::npos) {
                    return util::Status::invalid("add_program: name must not contain newlines");
                }
                if (std::find(working.begin(), working.end(), name) != working.end()) {
                    return util::Status::invalid("add_program: duplicate program '" + name +
                                                 "'");
                }
                working.push_back(name);
                break;
            }
            case Mutation::Kind::kRemoveProgram: {
                const auto it = std::find(working.begin(), working.end(), m.name);
                if (it == working.end()) {
                    return util::Status::invalid("remove_program: unknown program '" +
                                                 m.name + "'");
                }
                working.erase(it);
                break;
            }
            case Mutation::Kind::kRetarget:
                want_retarget = true;
                break;
            case Mutation::Kind::kFault: {
                const std::size_t n = network_.switch_count();
                if (m.fault.a >= n || (m.fault.is_link() && m.fault.b >= n)) {
                    return util::Status::invalid("fault: switch id out of range");
                }
                have_fault = true;
                break;
            }
        }
    }

    // ---- Write-ahead: the epoch must be durable before any state mutates.
    // A crash after this append replays the batch on recovery; a crash
    // during it leaves a torn record the recovery scan truncates — either
    // way the journal and the state agree.
    if (journal_.has_value() && !replaying_) {
        util::JsonObject record;
        record.emplace_back("type", "epoch");
        record.emplace_back("epoch", epoch_ + 1);
        util::JsonArray ops;
        for (const Mutation& m : batch) ops.push_back(mutation_to_json(m));
        record.emplace_back("ops", std::move(ops));
        const util::Status appended = journal_->append(util::Json(std::move(record)));
        if (!appended.ok()) {
            // Refuse to mutate state the log could not replay.
            bump("journal.append_failures");
            return appended;
        }
        fault::crash_point("engine.apply.journaled");
    }

    // ---- Apply program-set changes (rolled back on failure below). ----
    // The merge is refolded from the first removed position on: every
    // program before it survives in place.
    std::vector<bool> survived(programs_.size(), true);
    for (const Mutation& m : batch) {
        if (m.kind != Mutation::Kind::kRemoveProgram) continue;
        for (std::size_t i = 0; i < programs_.size(); ++i) {
            if (survived[i] && programs_[i]->program.name() == m.name) {
                survived[i] = false;
                break;
            }
        }
    }
    const std::size_t unchanged = static_cast<std::size_t>(
        std::find(survived.begin(), survived.end(), false) - survived.begin());
    ProgramList next;
    for (std::size_t i = 0; i < programs_.size(); ++i) {
        if (survived[i]) next.push_back(programs_[i]);
    }
    for (Mutation& m : batch) {
        if (m.kind != Mutation::Kind::kAddProgram) continue;
        tdg::Tdg program_tdg = m.program->to_tdg();
        next.push_back(std::make_shared<const ProgramEntry>(
            ProgramEntry{std::move(*m.program), std::move(program_tdg)}));
    }

    // Remap the incumbent's placements onto the next merge's id space: a
    // surviving program's nodes shift down by the node counts of the removed
    // programs that preceded it; additions have no placements yet.
    std::vector<Placement> preserved;
    if (incumbent_ok_) {
        std::size_t old_offset = 0;
        for (std::size_t i = 0; i < programs_.size(); ++i) {
            const std::size_t count = programs_[i]->tdg.node_count();
            if (survived[i]) {
                for (std::size_t k = 0; k < count; ++k) {
                    preserved.push_back(incumbent_.placements[old_offset + k]);
                }
            }
            old_offset += count;
        }
    }

    ProgramList programs_before = std::exchange(programs_, std::move(next));

    // ---- Apply fault events through the injector (oracle kept in sync). ----
    if (have_fault) {
        fault::Injector injector(network_, &oracle_, options_.sink);
        for (const Mutation& m : batch) {
            if (m.kind == Mutation::Kind::kFault) (void)injector.apply(m.fault);
        }
    }

    Deadline deadline = options_.deadline;
    if (!deadline.active() && options_.epoch_deadline_seconds > 0.0) {
        deadline = Deadline::after(options_.epoch_deadline_seconds);
    }

    // ---- One climb of the re-solve ladder covers the whole batch. ----
    const auto start = Clock::now();
    ++epoch_;
    refold(unchanged);
    util::StatusOr<Redeployment> resolved =
        redeploy(merged(), network_, hermes_options(deadline), options_.allow_milp,
                 incumbent_ok_ ? &incumbent_ : nullptr, preserved, want_retarget);
    if (!resolved.ok()) {
        // Program changes roll back; faults are physical and stay. The old
        // incumbent survives only if it still verifies on the (possibly
        // mutated) topology against the restored merge.
        programs_ = std::move(programs_before);
        refold(unchanged);
        if (incumbent_ok_ && have_fault) {
            VerifyOptions vo;
            vo.epsilon1 = options_.epsilon1;
            vo.epsilon2 = options_.epsilon2;
            incumbent_ok_ =
                !programs_.empty() && verify(merged(), network_, incumbent_, vo).ok;
        }
        bump("engine.failed_epochs");
    } else {
        incumbent_ = std::move(resolved.value().deployment);
        metrics_ = resolved.value().outcome.metrics;
        incumbent_ok_ = true;
        resolved.value().outcome.epoch = epoch_;
        resolved.value().outcome.solve_seconds = seconds_since(start);
    }
    fault::crash_point("engine.apply.resolved");
    if (journal_.has_value() && !replaying_ && journal_->should_rotate()) {
        const util::Status rotated = journal_->rotate(snapshot_json());
        if (!rotated.ok()) bump("journal.rotate_failures");
    }
    if (!resolved.ok()) return resolved.status();
    return std::move(resolved.value().outcome);
}

util::Status Engine::enable_journal(const std::string& path, JournalOptions options) {
    if (journal_.has_value()) {
        return util::Status::invalid("engine: journal already enabled");
    }
    if (options.sink == nullptr) options.sink = options_.sink;
    util::StatusOr<Journal> journal = Journal::open(path, options);
    if (!journal.ok()) return journal.status();
    journal_ = std::move(journal).value();
    return {};
}

util::Json Engine::snapshot_json() const {
    util::JsonArray programs;
    for (const auto& p : programs_) programs.push_back(program_to_json(p->program));
    util::JsonObject o{{"type", "snapshot"}, {"epoch", epoch_}};
    o.emplace_back("programs", std::move(programs));
    // The base topology is the owner's to rebuild; only the fault deltas are
    // state the journal must carry.
    util::JsonArray down_switches;
    for (net::SwitchId u = 0; u < network_.switch_count(); ++u) {
        if (!network_.switch_up(u)) down_switches.push_back(util::Json(u));
    }
    o.emplace_back("down_switches", std::move(down_switches));
    util::JsonArray down_links;
    for (const net::Link& l : network_.links()) {
        if (!l.up) {
            down_links.push_back(
                util::Json(util::JsonArray{util::Json(l.a), util::Json(l.b)}));
        }
    }
    o.emplace_back("down_links", std::move(down_links));
    o.emplace_back("incumbent_ok", incumbent_ok_);
    o.emplace_back("incumbent", deployment_to_json(incumbent_));
    o.emplace_back("metrics", metrics_to_json(metrics_));
    return util::Json(std::move(o));
}

util::Status Engine::restore_snapshot(const util::Json& snapshot) {
    if (epoch_ != 0 || !programs_.empty()) {
        return util::Status::invalid("engine: snapshot restore requires a fresh engine");
    }
    if (!snapshot.is_object() || snapshot.get("type").string_value() != "snapshot" ||
        !snapshot.get("epoch").is_int() || !snapshot.get("programs").is_array() ||
        !snapshot.get("incumbent").is_object()) {
        return util::Status::invalid("engine: malformed snapshot record");
    }
    ProgramList next;
    for (const util::Json& pj : snapshot.get("programs").array()) {
        util::StatusOr<prog::Program> program = program_from_json(pj);
        if (!program.ok()) return program.status();
        tdg::Tdg program_tdg = program.value().to_tdg();
        next.push_back(std::make_shared<const ProgramEntry>(
            ProgramEntry{std::move(program).value(), std::move(program_tdg)}));
    }
    util::StatusOr<Deployment> incumbent =
        deployment_from_json(snapshot.get("incumbent"));
    if (!incumbent.ok()) return incumbent.status();

    // Every switch id the snapshot carries must name a switch of this
    // network, checked before anything mutates: a snapshot journaled on
    // another topology fails as invalid input instead of throwing halfway
    // through re-failing its elements. Links come first in `faults`: a
    // link's own down flag is independent of its endpoints' state.
    const auto id_of = [](const util::Json& j) {
        return j.is_int() ? static_cast<net::SwitchId>(j.int_value())
                          : std::numeric_limits<net::SwitchId>::max();
    };
    std::vector<fault::FaultEvent> faults;
    for (const util::Json& lj : snapshot.get("down_links").array()) {
        if (!lj.is_array() || lj.array().size() != 2) {
            return util::Status::invalid("engine: malformed snapshot link");
        }
        faults.push_back({0.0, fault::FaultKind::kLinkDown, id_of(lj.array()[0]),
                          id_of(lj.array()[1])});
    }
    for (const util::Json& sj : snapshot.get("down_switches").array()) {
        faults.push_back({0.0, fault::FaultKind::kSwitchDown, id_of(sj), 0});
    }
    std::vector<net::SwitchId> ids;
    for (const fault::FaultEvent& e : faults) ids.insert(ids.end(), {e.a, e.b});
    for (const Placement& p : incumbent.value().placements) ids.push_back(p.sw);
    for (const auto& [pair, path] : incumbent.value().routes) {
        ids.insert(ids.end(), {pair.first, pair.second});
        ids.insert(ids.end(), path.switches.begin(), path.switches.end());
    }
    const std::size_t switches = network_.switch_count();
    if (!std::all_of(ids.begin(), ids.end(), [switches](net::SwitchId u) { return u < switches; })) {
        return util::Status::invalid("engine: snapshot names a switch outside this network (" +
                                     std::to_string(switches) + " switches)");
    }

    // Reapply the recorded fault deltas through the injector so the path
    // oracle stays in sync with the network.
    fault::Injector injector(network_, &oracle_, options_.sink);
    for (const fault::FaultEvent& e : faults) (void)injector.apply(e);

    programs_ = std::move(next);
    refold(0);
    incumbent_ = std::move(incumbent).value();
    incumbent_ok_ = snapshot.get("incumbent_ok").bool_value();
    metrics_ = DeploymentMetrics{};
    epoch_ = snapshot.get("epoch").int_value();

    if (incumbent_ok_ && !programs_.empty()) {
        VerifyOptions verify_options;
        verify_options.epsilon1 = options_.epsilon1;
        verify_options.epsilon2 = options_.epsilon2;
        if (incumbent_.placements.size() == merged().node_count() &&
            verify(merged(), network_, incumbent_, verify_options).ok) {
            // Recomputing beats trusting the serialized metrics: evaluate()
            // is deterministic, so this matches the uninterrupted run bit
            // for bit and can never disagree with the restored incumbent.
            metrics_ = evaluate(merged(), network_, incumbent_);
        } else {
            incumbent_ok_ = false;
            bump("engine.recovery_reverify_failures");
        }
    }
    return {};
}

util::StatusOr<Engine::RecoveryReport> Engine::recover(const std::string& path,
                                                       JournalOptions options) {
    if (epoch_ != 0 || !programs_.empty() || journal_.has_value()) {
        return util::Status::invalid("engine: recover requires a fresh engine");
    }
    RecoveryReport report;
    util::StatusOr<Journal::ScanResult> scanned = Journal::scan(path);
    if (!scanned.ok()) return scanned.status();
    const Journal::ScanResult& s = scanned.value();
    report.journal_found = s.found;
    report.truncated_bytes = s.torn_bytes;

    // Latest snapshot wins; everything after it replays through the normal
    // apply() ladder with journaling suppressed.
    std::size_t start = 0;
    for (std::size_t i = 0; i < s.records.size(); ++i) {
        if (s.records[i].get("type").string_value() == "snapshot") start = i + 1;
    }
    if (start > 0) {
        const util::Status restored = restore_snapshot(s.records[start - 1]);
        if (!restored.ok()) return restored;
        report.snapshot_epoch = epoch_;
    }

    replaying_ = true;
    for (std::size_t i = start; i < s.records.size(); ++i) {
        const util::Json& record = s.records[i];
        if (record.get("type").string_value() != "epoch") continue;
        if (record.get("epoch").is_int() && record.get("epoch").int_value() <= epoch_) {
            continue;  // stale duplicate; already covered by the snapshot
        }
        std::vector<Mutation> batch;
        bool decoded = true;
        for (const util::Json& oj : record.get("ops").array()) {
            util::StatusOr<Mutation> m = mutation_from_json(oj);
            if (!m.ok()) {
                decoded = false;
                break;
            }
            batch.push_back(std::move(m).value());
        }
        if (!decoded) {
            ++report.failed_replays;
            continue;
        }
        const util::StatusOr<DeltaOutcome> outcome = apply(std::move(batch));
        if (outcome.ok()) {
            ++report.replayed_epochs;
        } else {
            // Epochs that failed in the original run fail here the same
            // deterministic way — their side effects (fault events, epoch
            // advance) are re-applied exactly.
            ++report.failed_replays;
        }
    }
    replaying_ = false;

    if (options.sink == nullptr) options.sink = options_.sink;
    util::StatusOr<Journal> journal = Journal::open(path, options);
    if (!journal.ok()) return journal.status();
    journal_ = std::move(journal).value();
    if (!s.records.empty()) {
        // Compact immediately: the next restart restores one snapshot and
        // replays nothing.
        const util::Status rotated = journal_->rotate(snapshot_json());
        if (!rotated.ok()) bump("journal.rotate_failures");
    }
    report.epoch = epoch_;
    if (s.found) bump("serve.recoveries");
    return report;
}

std::uint32_t Engine::fingerprint() const {
    util::JsonArray names;
    for (const auto& p : programs_) names.push_back(util::Json(p->program.name()));
    util::JsonObject o{{"epoch", epoch_}, {"programs", names}, {"incumbent_ok", incumbent_ok_}};
    o.emplace_back("incumbent", deployment_to_json(incumbent_));
    o.emplace_back("metrics", metrics_to_json(metrics_));
    return util::crc32c(util::Json(std::move(o)).dump());
}

}  // namespace hermes::core
