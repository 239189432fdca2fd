// Wire protocol and session loop behind hermes_serve (DESIGN.md §5j).
//
// Requests are line-delimited JSON objects; every request line produces
// exactly one response line. The grammar:
//
//   {"id": <any>, "op": "add_program", "name": "t0", "spec": "synthetic:7:0"}
//   {"id": <any>, "op": "remove_program", "name": "t0"}
//   {"id": <any>, "op": "retarget_traffic"}
//   {"id": <any>, "op": "inject_fault", "kind": "link-down", "a": 0, "b": 1}
//   {"id": <any>, "op": "recover", "kind": "link-up", "a": 0, "b": 1}
//   {"id": <any>, "op": "recover"}                 // recover every failure
//   {"id": <any>, "op": "query"}
//   {"id": <any>, "op": "snapshot"}
//
// `id` is echoed back verbatim (null when absent) so clients can pipeline.
// Program specs: "real:<name>" / "sketch:<kind>" (prog/library.h) and
// "synthetic:<seed>[:<index>]" (prog/synthetic.h); a custom ProgramResolver
// can extend the grammar (the daemon adds file loading).
//
// Responses:
//
//   {"id": ..., "ok": true, "result": {...}}
//   {"id": ..., "ok": false, "error": {"code": "...", "message": "..."}}
//
// Mutation results carry the epoch's DeltaOutcome (status / delta /
// escalated / epoch / moved_mats / rerouted_pairs / solve_seconds /
// metrics) plus "batched", the number of requests the epoch coalesced.
//
// Epoch batching: mutations are STAGED, not applied, until flush() — the
// daemon flushes when its input buffer drains, so concurrent pipelined
// mutations collapse into one Engine::apply() epoch and one re-solve.
// query/snapshot (and malformed lines) flush the staged epoch first, so a
// client never observes state older than its own writes. All requests of a
// failed epoch receive the same error; the Engine rolls the program set
// back (fault events stay applied — they are physical).
//
// Overload protection: requests longer than ServeOptions::max_request_bytes
// and mutations staged past max_epoch_ops are rejected with a retryable
// resource_exhausted error ({"code": "resource_exhausted", "retryable":
// true}) instead of growing buffers without bound; see serve.oversized /
// serve.shed.
//
// Metrics (ServeOptions::sink / EngineOptions::sink): serve.requests,
// serve.malformed, serve.batches, serve.oversized, serve.shed,
// serve.recoveries and verify.violations counters, the serve.request_us
// latency histogram (p50/p99 via obs::Histogram::quantile), and the
// re-solve ladder's engine.rung.<status>, engine.moved_mats,
// engine.rerouted_pairs, engine.escalated and engine.degraded counters
// (core/repair.h).
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "util/json.h"
#include "util/status.h"

namespace hermes::core {

// Resolves an add_program spec string to a Program. The returned program is
// renamed to the request's "name" by the session.
using ProgramResolver =
    std::function<util::StatusOr<prog::Program>(std::string_view spec)>;

// "real:<name>" | "sketch:<kind>" | "synthetic:<seed>[:<index>]".
[[nodiscard]] util::StatusOr<prog::Program> resolve_program_spec(std::string_view spec);

struct ServeOptions {
    // Null = resolve_program_spec.
    ProgramResolver resolver;
    // Metrics sink; typically the engine's. Null disables serve.* metrics.
    obs::Sink* sink = nullptr;
    // Overload protection. Requests larger than max_request_bytes are
    // rejected with a retryable resource_exhausted error (serve.oversized) —
    // the transport loops enforce this while assembling lines, so an abusive
    // client cannot balloon the line buffer. Once max_epoch_ops mutations
    // are staged for the current epoch, further mutations are shed the same
    // way (serve.shed) until a flush drains the queue. 0 disables a cap.
    std::size_t max_request_bytes = 1u << 20;
    std::size_t max_epoch_ops = 1024;
};

// One parsed request, exposed for protocol tests.
struct ServeRequest {
    util::Json id;  // echoed back; null when the client sent none
    std::string op;
    std::string name;        // add_program / remove_program
    std::string spec;        // add_program
    bool has_kind = false;   // inject_fault / recover
    fault::FaultEvent fault; // inject_fault / recover (when has_kind)
};

// Parses one request line. kInvalidInput on malformed JSON, unknown op,
// missing/mistyped fields, or a fault kind that does not match the op
// (inject_fault takes *-down kinds, recover takes *-up kinds).
[[nodiscard]] util::StatusOr<ServeRequest> parse_request(std::string_view line);

// Response formatting (each returns one line WITHOUT the trailing '\n').
[[nodiscard]] std::string format_ok(const util::Json& id, util::Json result);
[[nodiscard]] std::string format_error(const util::Json& id, const util::Status& status);

// Result payload for one mutation response.
[[nodiscard]] util::Json delta_outcome_json(const DeltaOutcome& outcome,
                                            std::size_t batched);

class ServeSession {
public:
    explicit ServeSession(Engine& engine, ServeOptions options = {});

    // Handles one request line; appends complete response lines (each with a
    // trailing '\n') to `out`. Mutations are staged; query/snapshot and
    // malformed input flush the staged epoch first, so responses for staged
    // mutations may be emitted by a later handle_line call than their own.
    void handle_line(std::string_view line, std::string& out);

    // Applies the staged epoch (one Engine::apply) and appends its
    // responses. No-op when nothing is staged. The daemon calls this when
    // the input buffer drains and at shutdown.
    void flush(std::string& out);

    // Emits the response for a request the transport refused to even buffer
    // (its line exceeded max_request_bytes before a '\n' arrived): a
    // retryable resource_exhausted error with a null id, counted under
    // serve.oversized. `bytes` is how much had accumulated when the cap
    // tripped.
    void reject_oversized(std::size_t bytes, std::string& out);

    [[nodiscard]] std::size_t pending() const noexcept { return staged_.size(); }
    [[nodiscard]] std::int64_t requests() const noexcept { return requests_; }
    [[nodiscard]] const ServeOptions& options() const noexcept { return options_; }

private:
    struct Staged {
        util::Json id;
        std::string op;
        // One request usually stages one mutation; a bare recover expands to
        // one up event per failed element.
        std::vector<Engine::Mutation> mutations;
        double arrival_ns = 0.0;
    };

    void answer_query(const ServeRequest& request, std::string& out);
    void answer_snapshot(const ServeRequest& request, std::string& out);
    void observe_latency(double start_ns);

    Engine& engine_;
    ServeOptions options_;
    std::vector<Staged> staged_;
    std::int64_t requests_ = 0;
};

}  // namespace hermes::core
