#include "core/serve.h"

#include <charconv>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "prog/library.h"
#include "prog/synthetic.h"

namespace hermes::core {

namespace {

const char* wire_code(util::StatusCode code) {
    switch (code) {
        case util::StatusCode::kOk: return "ok";
        case util::StatusCode::kInvalidInput: return "invalid_input";
        case util::StatusCode::kIo: return "io";
        case util::StatusCode::kInfeasible: return "infeasible";
        case util::StatusCode::kUnavailable: return "unavailable";
        case util::StatusCode::kResourceExhausted: return "resource_exhausted";
    }
    return "error";
}

// Errors a client should retry after the current epoch drains, as opposed to
// requests that are wrong (invalid_input) or unsatisfiable (infeasible).
bool retryable(util::StatusCode code) {
    return code == util::StatusCode::kResourceExhausted ||
           code == util::StatusCode::kUnavailable;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc{} && ptr == end;
}

// Required non-negative integer field; kInvalidInput otherwise.
util::StatusOr<net::SwitchId> switch_id_field(const util::Json& request,
                                              std::string_view key) {
    const util::Json& value = request.get(key);
    if (!value.is_number() || value.int_value() < 0) {
        return util::Status::invalid(std::string("request: '") + std::string(key) +
                                     "' must be a non-negative switch id");
    }
    return static_cast<net::SwitchId>(value.int_value());
}

util::Json metrics_json(const DeploymentMetrics& metrics) {
    util::Json m{util::JsonObject{}};
    m.set("a_max_bytes", metrics.max_pair_metadata_bytes);
    m.set("inflight_bytes", metrics.max_inflight_metadata_bytes);
    m.set("latency_us", metrics.route_latency_us);
    m.set("switches", metrics.occupied_switches);
    return m;
}

}  // namespace

util::StatusOr<prog::Program> resolve_program_spec(std::string_view spec) {
    const std::size_t colon = spec.find(':');
    const std::string_view head = spec.substr(0, colon);
    const std::string_view rest =
        colon == std::string_view::npos ? std::string_view{} : spec.substr(colon + 1);
    try {
        if (head == "real") {
            return prog::make_program(std::string(rest));
        }
        if (head == "sketch") {
            return prog::sketch_program(std::string(rest));
        }
        if (head == "synthetic") {
            const std::size_t colon2 = rest.find(':');
            std::uint64_t seed = 0;
            std::uint64_t index = 0;
            const std::string_view seed_text = rest.substr(0, colon2);
            if (!parse_u64(seed_text, seed) ||
                (colon2 != std::string_view::npos &&
                 !parse_u64(rest.substr(colon2 + 1), index))) {
                return util::Status::invalid(
                    "program spec: synthetic:<seed>[:<index>] takes integers");
            }
            return prog::synthetic_program({}, seed, static_cast<int>(index));
        }
    } catch (const std::exception& ex) {
        return util::Status::invalid(std::string("program spec: ") + ex.what());
    }
    return util::Status::invalid("program spec: expected real:<name>, sketch:<kind>, "
                                 "or synthetic:<seed>[:<index>], got '" +
                                 std::string(spec) + "'");
}

util::StatusOr<ServeRequest> parse_request(std::string_view line) {
    util::StatusOr<util::Json> parsed = util::parse_json(line);
    if (!parsed.ok()) return parsed.status();
    const util::Json& root = parsed.value();
    if (!root.is_object()) {
        return util::Status::invalid("request: expected a JSON object");
    }

    ServeRequest request;
    request.id = root.get("id");
    const util::Json& op = root.get("op");
    if (!op.is_string()) {
        return util::Status::invalid("request: 'op' (string) is required");
    }
    request.op = op.string_value();

    if (request.op == "add_program") {
        const util::Json& name = root.get("name");
        const util::Json& spec = root.get("spec");
        if (!name.is_string() || name.string_value().empty()) {
            return util::Status::invalid("add_program: 'name' (string) is required");
        }
        if (!spec.is_string() || spec.string_value().empty()) {
            return util::Status::invalid("add_program: 'spec' (string) is required");
        }
        request.name = name.string_value();
        request.spec = spec.string_value();
        return request;
    }
    if (request.op == "remove_program") {
        const util::Json& name = root.get("name");
        if (!name.is_string() || name.string_value().empty()) {
            return util::Status::invalid("remove_program: 'name' (string) is required");
        }
        request.name = name.string_value();
        return request;
    }
    if (request.op == "retarget_traffic" || request.op == "query" ||
        request.op == "snapshot") {
        return request;
    }
    if (request.op == "inject_fault" || request.op == "recover") {
        const bool inject = request.op == "inject_fault";
        const util::Json& kind = root.get("kind");
        if (kind.is_null() && !inject) return request;  // bare recover = recover all
        if (!kind.is_string()) {
            return util::Status::invalid(request.op + ": 'kind' (string) is required");
        }
        const std::optional<fault::FaultKind> parsed_kind =
            fault::parse_fault_kind(kind.string_value());
        if (!parsed_kind.has_value()) {
            return util::Status::invalid(request.op + ": unknown kind '" +
                                         kind.string_value() + "'");
        }
        request.has_kind = true;
        request.fault.kind = *parsed_kind;
        if (request.fault.is_failure() != inject) {
            return util::Status::invalid(request.op + ": kind '" + kind.string_value() +
                                         (inject ? "' is a recovery event"
                                                 : "' is a failure event"));
        }
        util::StatusOr<net::SwitchId> a = switch_id_field(root, "a");
        if (!a.ok()) return a.status();
        request.fault.a = a.value();
        if (request.fault.is_link()) {
            util::StatusOr<net::SwitchId> b = switch_id_field(root, "b");
            if (!b.ok()) return b.status();
            request.fault.b = b.value();
        }
        return request;
    }
    return util::Status::invalid("request: unknown op '" + request.op + "'");
}

std::string format_ok(const util::Json& id, util::Json result) {
    util::Json response{util::JsonObject{}};
    response.set("id", id);
    response.set("ok", true);
    response.set("result", std::move(result));
    return response.dump();
}

std::string format_error(const util::Json& id, const util::Status& status) {
    util::Json error{util::JsonObject{}};
    error.set("code", wire_code(status.code()));
    error.set("message", status.message());
    if (retryable(status.code())) error.set("retryable", true);
    util::Json response{util::JsonObject{}};
    response.set("id", id);
    response.set("ok", false);
    response.set("error", std::move(error));
    return response.dump();
}

util::Json delta_outcome_json(const DeltaOutcome& outcome, std::size_t batched) {
    util::Json result{util::JsonObject{}};
    result.set("epoch", outcome.epoch);
    result.set("status", outcome.status);
    result.set("delta", outcome.delta);
    result.set("escalated", outcome.escalated);
    result.set("degraded", outcome.degraded);
    result.set("batched", batched);
    result.set("moved_mats", outcome.moved_mats);
    result.set("rerouted_pairs", outcome.rerouted_pairs);
    result.set("solve_seconds", outcome.solve_seconds);
    result.set("metrics", metrics_json(outcome.metrics));
    return result;
}

ServeSession::ServeSession(Engine& engine, ServeOptions options)
    : engine_(engine), options_(std::move(options)) {
    if (options_.resolver == nullptr) options_.resolver = resolve_program_spec;
    if (options_.sink != nullptr) {
        // Register the CI-asserted metrics up front so exported JSON carries
        // them at 0 even before the first epoch.
        options_.sink->counter("serve.requests").add(0);
        options_.sink->counter("serve.malformed").add(0);
        options_.sink->counter("serve.batches").add(0);
        options_.sink->counter("serve.oversized").add(0);
        options_.sink->counter("serve.shed").add(0);
        options_.sink->counter("serve.recoveries").add(0);
        options_.sink->counter("verify.violations").add(0);
    }
}

void ServeSession::reject_oversized(std::size_t bytes, std::string& out) {
    ++requests_;
    if (options_.sink != nullptr) {
        options_.sink->counter("serve.requests").add(1);
        options_.sink->counter("serve.oversized").add(1);
    }
    out += format_error(util::Json{},
                        util::Status::resource_exhausted(
                            "request exceeds max_request_bytes (" +
                            std::to_string(bytes) + " > " +
                            std::to_string(options_.max_request_bytes) + ")"));
    out += '\n';
}

void ServeSession::observe_latency(double start_ns) {
    if (options_.sink == nullptr) return;
    const double us = (static_cast<double>(obs::now_ns()) - start_ns) / 1000.0;
    options_.sink
        ->histogram("serve.request_us", obs::geometric_bounds(1.0, 2.0, 24))
        .observe(us);
}

void ServeSession::handle_line(std::string_view line, std::string& out) {
    const auto start_ns = static_cast<double>(obs::now_ns());
    if (options_.max_request_bytes > 0 && line.size() > options_.max_request_bytes) {
        // Belt and braces: the transports enforce the cap while assembling
        // lines, but direct callers (tests, stdio without the assembler)
        // reach here.
        reject_oversized(line.size(), out);
        return;
    }
    ++requests_;
    if (options_.sink != nullptr) options_.sink->counter("serve.requests").add(1);

    util::StatusOr<ServeRequest> parsed = parse_request(line);
    if (!parsed.ok()) {
        // Flush first: the mangled line may have been meant as a mutation,
        // and replying from stale state would reorder the client's view.
        flush(out);
        if (options_.sink != nullptr) options_.sink->counter("serve.malformed").add(1);
        out += format_error(util::Json{}, parsed.status());
        out += '\n';
        observe_latency(start_ns);
        return;
    }
    ServeRequest& request = parsed.value();

    if (request.op == "query") {
        flush(out);
        answer_query(request, out);
        observe_latency(start_ns);
        return;
    }
    if (request.op == "snapshot") {
        flush(out);
        answer_snapshot(request, out);
        observe_latency(start_ns);
        return;
    }

    // Backpressure: a pipelining client can stage at most max_epoch_ops
    // mutations into one epoch; past that the request is shed with a
    // retryable error rather than growing the batch (and the one re-solve
    // covering it) without bound.
    if (options_.max_epoch_ops > 0 && staged_.size() >= options_.max_epoch_ops) {
        if (options_.sink != nullptr) options_.sink->counter("serve.shed").add(1);
        out += format_error(
            request.id,
            util::Status::resource_exhausted(
                "epoch already holds " + std::to_string(staged_.size()) +
                " staged ops (max_epoch_ops); retry after the epoch drains"));
        out += '\n';
        observe_latency(start_ns);
        return;
    }

    Staged staged;
    staged.id = request.id;
    staged.op = request.op;
    staged.arrival_ns = start_ns;
    if (request.op == "add_program") {
        util::StatusOr<prog::Program> program = options_.resolver(request.spec);
        if (!program.ok()) {
            if (options_.sink != nullptr) {
                options_.sink->counter("serve.malformed").add(1);
            }
            out += format_error(request.id, program.status());
            out += '\n';
            observe_latency(start_ns);
            return;
        }
        prog::Program resolved = std::move(program).value();
        resolved.set_name(request.name);
        Engine::Mutation m;
        m.kind = Engine::Mutation::Kind::kAddProgram;
        m.program = std::move(resolved);
        staged.mutations.push_back(std::move(m));
    } else if (request.op == "remove_program") {
        Engine::Mutation m;
        m.kind = Engine::Mutation::Kind::kRemoveProgram;
        m.name = request.name;
        staged.mutations.push_back(std::move(m));
    } else if (request.op == "retarget_traffic") {
        Engine::Mutation m;
        m.kind = Engine::Mutation::Kind::kRetarget;
        staged.mutations.push_back(std::move(m));
    } else if (request.has_kind) {
        Engine::Mutation m;
        m.kind = Engine::Mutation::Kind::kFault;
        m.fault = request.fault;
        staged.mutations.push_back(std::move(m));
    } else {
        // Bare recover: one up event per currently failed element.
        const net::Network& net = engine_.network();
        for (net::SwitchId s = 0; s < net.switch_count(); ++s) {
            if (net.switch_up(s)) continue;
            Engine::Mutation m;
            m.kind = Engine::Mutation::Kind::kFault;
            m.fault.kind = fault::FaultKind::kSwitchUp;
            m.fault.a = s;
            staged.mutations.push_back(std::move(m));
        }
        for (const net::Link& link : net.links()) {
            if (net.link_up(link.a, link.b)) continue;
            Engine::Mutation m;
            m.kind = Engine::Mutation::Kind::kFault;
            m.fault.kind = fault::FaultKind::kLinkUp;
            m.fault.a = link.a;
            m.fault.b = link.b;
            staged.mutations.push_back(std::move(m));
        }
    }
    staged_.push_back(std::move(staged));
}

void ServeSession::flush(std::string& out) {
    if (staged_.empty()) return;
    std::vector<Staged> batch;
    batch.swap(staged_);
    if (options_.sink != nullptr) options_.sink->counter("serve.batches").add(1);

    std::vector<Engine::Mutation> mutations;
    for (Staged& s : batch) {
        for (Engine::Mutation& m : s.mutations) mutations.push_back(std::move(m));
    }
    util::StatusOr<DeltaOutcome> outcome = engine_.apply(std::move(mutations));
    if (outcome.ok()) {
        const util::Json result = delta_outcome_json(outcome.value(), batch.size());
        for (const Staged& s : batch) {
            util::Json tagged = result;
            tagged.set("op", s.op);
            out += format_ok(s.id, std::move(tagged));
            out += '\n';
            observe_latency(s.arrival_ns);
        }
    } else {
        for (const Staged& s : batch) {
            out += format_error(s.id, outcome.status());
            out += '\n';
            observe_latency(s.arrival_ns);
        }
    }
    if (options_.sink != nullptr && engine_.program_count() > 0 &&
        !engine_.has_incumbent()) {
        options_.sink->counter("verify.violations").add(1);
    }
}

void ServeSession::answer_query(const ServeRequest& request, std::string& out) {
    util::Json result{util::JsonObject{}};
    result.set("epoch", engine_.epoch());
    util::JsonArray names;
    for (std::string& name : engine_.program_names()) names.emplace_back(std::move(name));
    result.set("programs", std::move(names));
    result.set("nodes", engine_.merged().node_count());
    result.set("incumbent", engine_.has_incumbent());
    result.set("fingerprint", static_cast<std::int64_t>(engine_.fingerprint()));
    result.set("journaling", engine_.journaling());
    result.set("metrics", metrics_json(engine_.metrics()));
    util::Json network{util::JsonObject{}};
    network.set("switches", engine_.network().switch_count());
    network.set("live_links", engine_.network().live_link_count());
    result.set("network", std::move(network));
    out += format_ok(request.id, std::move(result));
    out += '\n';
}

void ServeSession::answer_snapshot(const ServeRequest& request, std::string& out) {
    util::Json result{util::JsonObject{}};
    result.set("epoch", engine_.epoch());
    util::JsonArray names;
    for (std::string& name : engine_.program_names()) names.emplace_back(std::move(name));
    result.set("programs", std::move(names));
    result.set("incumbent", engine_.has_incumbent());
    result.set("fingerprint", static_cast<std::int64_t>(engine_.fingerprint()));
    util::JsonArray placements;
    util::JsonArray routes;
    if (engine_.has_incumbent()) {
        const Deployment& d = engine_.incumbent();
        for (std::size_t node = 0; node < d.placements.size(); ++node) {
            util::Json p{util::JsonObject{}};
            p.set("node", node);
            p.set("switch", static_cast<std::int64_t>(d.placements[node].sw));
            p.set("stage", d.placements[node].stage);
            placements.push_back(std::move(p));
        }
        for (const auto& [pair, path] : d.routes) {
            util::Json r{util::JsonObject{}};
            r.set("from", static_cast<std::int64_t>(pair.first));
            r.set("to", static_cast<std::int64_t>(pair.second));
            util::JsonArray hops;
            for (const net::SwitchId s : path.switches) {
                hops.emplace_back(static_cast<std::int64_t>(s));
            }
            r.set("path", std::move(hops));
            routes.push_back(std::move(r));
        }
    }
    result.set("placements", std::move(placements));
    result.set("routes", std::move(routes));
    result.set("metrics", metrics_json(engine_.metrics()));
    out += format_ok(request.id, std::move(result));
    out += '\n';
}

}  // namespace hermes::core
