#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>

#include "core/incremental.h"
#include "core/repair.h"
#include "core/verifier.h"
#include "fault/crash.h"
#include "fault/injector.h"
#include "obs/obs.h"
#include "tdg/analyzer.h"
#include "tdg/merge.h"
#include "util/crc.h"

namespace hermes::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// Merge-cache key of the first `count` programs of an ordered list: their
// per-add serials, newline-joined.
std::string merge_key(const std::vector<std::uint64_t>& serials, std::size_t count) {
    std::string key;
    for (std::size_t i = 0; i < count; ++i) {
        key += std::to_string(serials[i]);
        key += '\n';
    }
    return key;
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

// Ordered switch pairs that exchange metadata under `placements`.
std::set<std::pair<net::SwitchId, net::SwitchId>> crossing_pairs(
    const tdg::Tdg& t, const std::vector<Placement>& placements) {
    std::set<std::pair<net::SwitchId, net::SwitchId>> pairs;
    for (const tdg::Edge& e : t.edges()) {
        const net::SwitchId u = placements[e.from].sw;
        const net::SwitchId v = placements[e.to].sw;
        if (u != v) pairs.insert({u, v});
    }
    return pairs;
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
    for (const ProgramEntry& p : programs_) names.push_back(p.name);
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
    h.segment_level_milp = merged_.node_count() > 40;
    return h;
}

const tdg::Tdg& Engine::merged_for(const std::vector<ProgramEntry>& programs) {
    std::vector<std::uint64_t> serials;
    serials.reserve(programs.size());
    for (const ProgramEntry& p : programs) serials.push_back(p.serial);
    const std::string key = merge_key(serials, serials.size());
    ++merge_clock_;
    if (const auto it = merge_cache_.find(key); it != merge_cache_.end()) {
        it->second.last_used = merge_clock_;
        bump("engine.merge_hits");
        return it->second.tdg;
    }
    bump("engine.merge_misses");

    // Extend the longest cached proper prefix instead of re-merging from
    // scratch — the common churn pattern (add one tenant) reuses the whole
    // standing merge and only pays conflict ordering + annotation.
    tdg::Tdg combined;
    std::size_t have = 0;
    for (std::size_t take = programs.size(); take-- > 1;) {
        const auto it = merge_cache_.find(merge_key(serials, take));
        if (it != merge_cache_.end()) {
            it->second.last_used = merge_clock_;
            combined = it->second.tdg;
            have = take;
            bump("engine.merge_extends");
            break;
        }
    }
    if (have == 0) {
        combined = programs.front().tdg;
        have = 1;
    }
    for (std::size_t i = have; i < programs.size(); ++i) {
        combined = tdg::graph_union(combined, programs[i].tdg);
    }
    tdg::add_write_conflict_edges(combined);
    tdg::analyze(combined);

    if (merge_cache_.size() >= options_.merge_cache_limit && !merge_cache_.empty()) {
        auto victim = merge_cache_.begin();
        for (auto it = merge_cache_.begin(); it != merge_cache_.end(); ++it) {
            if (it->second.last_used < victim->second.last_used) victim = it;
        }
        merge_cache_.erase(victim);
    }
    auto [it, inserted] =
        merge_cache_.emplace(key, MergeEntry{std::move(combined), merge_clock_});
    (void)inserted;
    return it->second.tdg;
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
    bool programs_changed = false;
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
                programs_changed = true;
                break;
            }
            case Mutation::Kind::kRemoveProgram: {
                const auto it = std::find(working.begin(), working.end(), m.name);
                if (it == working.end()) {
                    return util::Status::invalid("remove_program: unknown program '" +
                                                 m.name + "'");
                }
                working.erase(it);
                programs_changed = true;
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
    const std::vector<ProgramEntry> programs_before = programs_;
    std::vector<ProgramEntry> next;
    std::vector<bool> survived(programs_.size(), true);
    for (const Mutation& m : batch) {
        if (m.kind != Mutation::Kind::kRemoveProgram) continue;
        for (std::size_t i = 0; i < programs_.size(); ++i) {
            if (survived[i] && programs_[i].name == m.name) {
                survived[i] = false;
                break;
            }
        }
    }
    for (std::size_t i = 0; i < programs_.size(); ++i) {
        if (survived[i]) next.push_back(programs_[i]);
    }
    for (Mutation& m : batch) {
        if (m.kind != Mutation::Kind::kAddProgram) continue;
        tdg::Tdg program_tdg = m.program->to_tdg();
        const std::size_t node_count = program_tdg.node_count();
        next.push_back(ProgramEntry{m.program->name(), next_program_serial_++,
                                    std::move(*m.program), std::move(program_tdg),
                                    node_count});
    }

    // Remap the incumbent's placements onto the next merge's id space: a
    // surviving program's nodes shift down by the node counts of the removed
    // programs that preceded it; additions have no placements yet.
    std::vector<Placement> preserved;
    std::size_t preserved_count = 0;
    bool placements_survive = incumbent_ok_ && !next.empty();
    if (placements_survive) {
        std::size_t old_offset = 0;
        for (std::size_t i = 0; i < programs_before.size(); ++i) {
            const std::size_t count = programs_before[i].node_count;
            if (survived[i]) {
                for (std::size_t k = 0; k < count; ++k) {
                    preserved.push_back(incumbent_.placements[old_offset + k]);
                }
            }
            old_offset += count;
        }
        preserved_count = preserved.size();
    }

    programs_ = std::move(next);

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

    util::StatusOr<DeltaOutcome> outcome =
        resolve_epoch(preserved, preserved_count, placements_survive, want_retarget,
                      programs_changed, deadline);
    if (!outcome.ok()) {
        // Program changes roll back; faults are physical and stay. The old
        // incumbent survives only if it still verifies on the (possibly
        // mutated) topology against the restored merge.
        programs_ = programs_before;
        merged_ = programs_.empty() ? tdg::Tdg{} : merged_for(programs_);
        if (incumbent_ok_ && have_fault) {
            VerifyOptions vo;
            vo.epsilon1 = options_.epsilon1;
            vo.epsilon2 = options_.epsilon2;
            incumbent_ok_ =
                !programs_.empty() && verify(merged_, network_, incumbent_, vo).ok;
        }
        bump("engine.failed_epochs");
    }
    fault::crash_point("engine.apply.resolved");
    if (journal_.has_value() && !replaying_ && journal_->should_rotate()) {
        const util::Status rotated = journal_->rotate(snapshot_json());
        if (!rotated.ok()) bump("journal.rotate_failures");
    }
    return outcome;
}

util::StatusOr<DeltaOutcome> Engine::resolve_epoch(
    const std::vector<Placement>& preserved, std::size_t preserved_count,
    bool placements_survive, bool want_retarget, bool programs_changed,
    const Deadline& deadline) {
    const auto start = Clock::now();
    ++epoch_;

    DeltaOutcome outcome;
    outcome.epoch = epoch_;

    if (programs_.empty()) {
        merged_ = tdg::Tdg{};
        incumbent_ = Deployment{};
        metrics_ = DeploymentMetrics{};
        incumbent_ok_ = true;
        outcome.status = "empty";
        outcome.delta = true;
        outcome.solve_seconds = seconds_since(start);
        bump("serve.delta_resolves");
        return outcome;
    }

    merged_ = merged_for(programs_);

    VerifyOptions verify_options;
    static_cast<CommonOptions&>(verify_options) =
        static_cast<const CommonOptions&>(options_);
    verify_options.epsilon1 = options_.epsilon1;
    verify_options.epsilon2 = options_.epsilon2;

    const Deployment previous = incumbent_;
    const bool previous_ok = incumbent_ok_;

    auto finish = [&](Deployment d, const char* status, bool delta) -> DeltaOutcome& {
        if (placements_survive) {
            std::int64_t moved = 0;
            for (std::size_t i = 0; i < preserved_count && i < d.placements.size(); ++i) {
                if (d.placements[i].sw != preserved[i].sw) ++moved;
            }
            outcome.moved_mats = moved;
        }
        incumbent_ = std::move(d);
        metrics_ = evaluate(merged_, network_, incumbent_);
        incumbent_ok_ = true;
        outcome.status = status;
        outcome.delta = delta;
        outcome.solve_seconds = seconds_since(start);
        outcome.metrics = metrics_;
        bump(delta ? "serve.delta_resolves" : "serve.cold_resolves");
        return outcome;
    };

    // ---- Delta rungs: patch the surviving placements in place. ----
    // Preconditions: an incumbent exists, every preserved placement sits on
    // a live switch (stranded MATs need the re-place rung), and the merge
    // did not order a new MAT before an old one.
    if (placements_survive) {
        obs::Span dspan(options_.sink, "engine.delta");
        bool stranded = false;
        for (std::size_t i = 0; i < preserved_count; ++i) {
            const net::SwitchId sw = preserved[i].sw;
            if (sw >= network_.switch_count() || !network_.switch_up(sw)) {
                stranded = true;
                break;
            }
        }
        if (!stranded) {
            Deployment candidate;
            bool candidate_ok = true;
            std::int64_t rerouted = 0;
            const bool additions = preserved_count < merged_.node_count();
            if (additions) {
                // Greedy re-place of the affected TDG slice only: the new
                // nodes pack into residual stage capacity around the fixed
                // survivors.
                Deployment existing;
                existing.placements = preserved;
                std::optional<IncrementalResult> inc = incremental_deploy(
                    merged_, preserved_count, existing, network_, &oracle_);
                if (inc.has_value()) {
                    candidate = std::move(inc->deployment);
                } else {
                    candidate_ok = false;
                }
            } else {
                candidate.placements = preserved;
            }

            if (candidate_ok) {
                // Routes: keep live recorded routes (unless retargeting),
                // re-wire the rest from the shared oracle, and drop stale
                // pairs that no longer exchange metadata.
                const auto pairs = crossing_pairs(merged_, candidate.placements);
                std::map<std::pair<net::SwitchId, net::SwitchId>, net::Path> routes;
                for (const auto& pair : pairs) {
                    const auto it = candidate.routes.find(pair);
                    const auto old_it = previous.routes.find(pair);
                    const net::Path* keep = nullptr;
                    if (!want_retarget) {
                        if (it != candidate.routes.end() && route_alive(network_, it->second)) {
                            keep = &it->second;
                        } else if (old_it != previous.routes.end() &&
                                   route_alive(network_, old_it->second)) {
                            keep = &old_it->second;
                        }
                    }
                    if (keep != nullptr) {
                        routes[pair] = *keep;
                        continue;
                    }
                    std::optional<net::Path> path = oracle_.path(pair.first, pair.second);
                    if (!path.has_value()) {
                        candidate_ok = false;
                        break;
                    }
                    const bool changed =
                        old_it == previous.routes.end() ||
                        old_it->second.switches != path->switches;
                    if (changed && (want_retarget || old_it != previous.routes.end())) {
                        ++rerouted;
                    }
                    routes[pair] = std::move(*path);
                }
                if (candidate_ok) {
                    candidate.routes = std::move(routes);
                    if (verify(merged_, network_, candidate, verify_options).ok) {
                        outcome.rerouted_pairs = rerouted;
                        const char* status = additions     ? "incremental"
                                             : want_retarget ? "retarget"
                                             : rerouted > 0  ? "reroute"
                                                             : "intact";
                        return finish(std::move(candidate), status, /*delta=*/true);
                    }
                }
            }
        }
        dspan.end();
    }

    // ---- Cold rungs: full re-solve of the whole merged TDG. ----
    HermesOptions h = hermes_options(deadline);
    if (!options_.always_optimal) {
        obs::Span gspan(options_.sink, "engine.greedy");
        util::StatusOr<DeployOutcome> greedy = try_deploy_greedy(merged_, network_, h);
        if (greedy.ok() &&
            verify(merged_, network_, greedy.value().deployment, verify_options).ok) {
            const bool replaced = placements_survive;
            return finish(std::move(greedy).value().deployment,
                          replaced ? "replace" : "greedy", /*delta=*/false);
        }
    }

    if (options_.allow_milp || options_.always_optimal) {
        obs::Span mspan(options_.sink, "engine.milp");
        bump("serve.escalations");
        outcome.escalated = true;
        util::StatusOr<DeployOutcome> exact = try_deploy_optimal(merged_, network_, h);
        if (exact.ok() &&
            verify(merged_, network_, exact.value().deployment, verify_options).ok) {
            return finish(std::move(exact).value().deployment, "milp", /*delta=*/false);
        }
    }

    // ---- Degrade rung: the epoch deadline expired before any rung could
    // finish. When the program set is unchanged this epoch (so the previous
    // incumbent lives in the current merge's id space) and that incumbent
    // still verifies on the (possibly faulted) topology, serving stale-but-
    // verified placements beats reporting infeasible.
    if (deadline.active() && deadline.expired() && !programs_changed && previous_ok &&
        previous.placements.size() == merged_.node_count() &&
        verify(merged_, network_, previous, verify_options).ok) {
        bump("serve.deadline_degrades");
        outcome.degraded = true;
        Deployment keep = previous;
        return finish(std::move(keep), "degraded", /*delta=*/true);
    }

    // No rung produced a verifiable deployment: keep the previous incumbent
    // visible (apply() decides whether it still verifies) and report why.
    incumbent_ = previous;
    incumbent_ok_ = previous_ok;
    return util::Status::infeasible(
        "engine: no rung produced a verifiable deployment for this epoch");
}

util::StatusOr<DeployOutcome> Engine::solve() {
    obs::Span span(options_.sink, "engine.solve");
    if (journal_.has_value() && !replaying_) {
        util::JsonObject record;
        record.emplace_back("type", "epoch");
        record.emplace_back("epoch", epoch_ + 1);
        util::JsonObject op;
        op.emplace_back("op", "solve");
        record.emplace_back("ops", util::JsonArray{util::Json(std::move(op))});
        const util::Status appended = journal_->append(util::Json(std::move(record)));
        if (!appended.ok()) {
            bump("journal.append_failures");
            return appended;
        }
        fault::crash_point("engine.apply.journaled");
    }
    ++epoch_;
    if (programs_.empty()) {
        merged_ = tdg::Tdg{};
        incumbent_ = Deployment{};
        metrics_ = DeploymentMetrics{};
        incumbent_ok_ = true;
        DeployOutcome outcome;
        outcome.solver_status = "empty";
        return outcome;
    }
    merged_ = merged_for(programs_);

    Deadline deadline = options_.deadline;
    if (!deadline.active() && options_.epoch_deadline_seconds > 0.0) {
        deadline = Deadline::after(options_.epoch_deadline_seconds);
    }
    const HermesOptions h = hermes_options(deadline);
    util::StatusOr<DeployOutcome> outcome =
        options_.always_optimal ? try_deploy_optimal(merged_, network_, h)
                                : try_deploy_greedy(merged_, network_, h);
    if (!outcome.ok()) return outcome;

    VerifyOptions verify_options;
    verify_options.sink = options_.sink;
    verify_options.epsilon1 = options_.epsilon1;
    verify_options.epsilon2 = options_.epsilon2;
    if (!verify(merged_, network_, outcome.value().deployment, verify_options).ok) {
        return util::Status::infeasible("engine: solve produced an unverifiable deployment");
    }
    incumbent_ = outcome.value().deployment;
    metrics_ = outcome.value().metrics;
    incumbent_ok_ = true;
    bump("serve.cold_resolves");
    if (journal_.has_value() && !replaying_ && journal_->should_rotate()) {
        const util::Status rotated = journal_->rotate(snapshot_json());
        if (!rotated.ok()) bump("journal.rotate_failures");
    }
    return outcome;
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
    util::JsonObject o;
    o.emplace_back("type", "snapshot");
    o.emplace_back("epoch", epoch_);
    util::JsonArray programs;
    for (const ProgramEntry& p : programs_) {
        programs.push_back(program_to_json(p.program));
    }
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
    util::JsonObject m;
    m.emplace_back("max_pair_metadata_bytes", metrics_.max_pair_metadata_bytes);
    m.emplace_back("max_inflight_metadata_bytes", metrics_.max_inflight_metadata_bytes);
    m.emplace_back("route_latency_us", metrics_.route_latency_us);
    m.emplace_back("occupied_switches", metrics_.occupied_switches);
    m.emplace_back("total_resource_units", metrics_.total_resource_units);
    o.emplace_back("metrics", std::move(m));
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
    std::vector<ProgramEntry> next;
    for (const util::Json& pj : snapshot.get("programs").array()) {
        util::StatusOr<prog::Program> program = program_from_json(pj);
        if (!program.ok()) return program.status();
        tdg::Tdg program_tdg = program.value().to_tdg();
        const std::size_t node_count = program_tdg.node_count();
        next.push_back(ProgramEntry{program.value().name(), next_program_serial_++,
                                    std::move(program).value(), std::move(program_tdg),
                                    node_count});
    }
    util::StatusOr<Deployment> incumbent =
        deployment_from_json(snapshot.get("incumbent"));
    if (!incumbent.ok()) return incumbent.status();

    // Reapply the recorded fault deltas through the injector so the path
    // oracle stays in sync with the network. Links first: a link's own down
    // flag is independent of its endpoints' state.
    fault::Injector injector(network_, &oracle_, options_.sink);
    for (const util::Json& lj : snapshot.get("down_links").array()) {
        if (!lj.is_array() || lj.array().size() != 2) {
            return util::Status::invalid("engine: malformed snapshot link");
        }
        fault::FaultEvent e;
        e.kind = fault::FaultKind::kLinkDown;
        e.a = static_cast<net::SwitchId>(lj.array()[0].int_value());
        e.b = static_cast<net::SwitchId>(lj.array()[1].int_value());
        (void)injector.apply(e);
    }
    for (const util::Json& sj : snapshot.get("down_switches").array()) {
        fault::FaultEvent e;
        e.kind = fault::FaultKind::kSwitchDown;
        e.a = static_cast<net::SwitchId>(sj.int_value());
        (void)injector.apply(e);
    }

    programs_ = std::move(next);
    merged_ = programs_.empty() ? tdg::Tdg{} : merged_for(programs_);
    incumbent_ = std::move(incumbent).value();
    incumbent_ok_ = snapshot.get("incumbent_ok").bool_value();
    metrics_ = DeploymentMetrics{};
    epoch_ = snapshot.get("epoch").int_value();

    if (incumbent_ok_ && !programs_.empty()) {
        VerifyOptions verify_options;
        verify_options.epsilon1 = options_.epsilon1;
        verify_options.epsilon2 = options_.epsilon2;
        if (incumbent_.placements.size() == merged_.node_count() &&
            verify(merged_, network_, incumbent_, verify_options).ok) {
            // Recomputing beats trusting the serialized metrics: evaluate()
            // is deterministic, so this matches the uninterrupted run bit
            // for bit and can never disagree with the restored incumbent.
            metrics_ = evaluate(merged_, network_, incumbent_);
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
        const util::JsonArray& ops = record.get("ops").array();
        if (ops.size() == 1 && ops[0].get("op").string_value() == "solve") {
            const util::StatusOr<DeployOutcome> solved = solve();
            if (solved.ok()) {
                ++report.replayed_epochs;
            } else {
                ++report.failed_replays;
            }
            continue;
        }
        std::vector<Mutation> batch;
        bool decoded = true;
        for (const util::Json& oj : ops) {
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
    util::JsonObject o;
    o.emplace_back("epoch", epoch_);
    util::JsonArray names;
    for (const ProgramEntry& p : programs_) names.push_back(util::Json(p.name));
    o.emplace_back("programs", std::move(names));
    o.emplace_back("incumbent_ok", incumbent_ok_);
    o.emplace_back("incumbent", deployment_to_json(incumbent_));
    util::JsonObject m;
    m.emplace_back("max_pair_metadata_bytes", metrics_.max_pair_metadata_bytes);
    m.emplace_back("max_inflight_metadata_bytes", metrics_.max_inflight_metadata_bytes);
    m.emplace_back("route_latency_us", metrics_.route_latency_us);
    m.emplace_back("occupied_switches", metrics_.occupied_switches);
    m.emplace_back("total_resource_units", metrics_.total_resource_units);
    o.emplace_back("metrics", std::move(m));
    return util::crc32c(util::Json(std::move(o)).dump());
}

}  // namespace hermes::core
