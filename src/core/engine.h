// Resident deployment engine — the session object behind hermes_serve
// (DESIGN.md §5j).
//
// The paper's pipeline is a one-shot optimizer: analyze programs, solve,
// exit. An Engine instead stays alive across thousands of tenant mutations
// against one live network. It owns the net::Network, the merged TDG of the
// current program set, a shared net::PathOracle, and the verified incumbent
// Deployment, and answers every mutation by climbing the re-solve ladder
// (core/repair.h) that the CLI's fault replay climbs too, cheapest rung
// first: keep the surviving placements and patch their routes, placing any
// added TDG suffix around them -> full greedy re-solve -> opt-in MILP
// escalation, all bounded by one core::Deadline per epoch.
//
// Mutations arrive one at a time (add_program / remove_program /
// retarget_traffic / apply_fault) or batched: apply() takes a whole epoch of
// mutations, applies program-set and network changes together, and re-solves
// once — the serve daemon coalesces concurrent requests into one epoch this
// way.
//
// Merge representation: the resident merged TDG is the union of the program
// TDGs as a left fold over the ordered program list (tdg::UnionFold), NOT the
// deduplicating merge of the one-shot analyze() pipeline. Union keeps every
// program's nodes in one contiguous id range, so removing a tenant is an id
// shift of the surviving placements, and additions are a suffix for the
// incremental ladder. An epoch cuts the fold back to its first removed
// program and folds the rest back in; an epoch that changes no program does
// no merge work. The fold depends on the program list alone, so a recovered
// engine merges bit-identically.
//
// Error handling is StatusOr end to end: an infeasible mutation rolls the
// program set back and leaves the previous verified incumbent standing
// (faults cannot be rolled back — the incumbent is then marked broken until
// a later recover or escalation repairs it). The engine never throws on
// control flow.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/hermes.h"
#include "core/journal.h"
#include "core/objective.h"
#include "core/options.h"
#include "core/repair.h"
#include "fault/fault.h"
#include "net/network.h"
#include "net/path_oracle.h"
#include "prog/program.h"
#include "tdg/merge.h"
#include "util/status.h"

namespace hermes::core {

// Inherits core::CommonOptions: `threads` sizes the branch-and-bound search
// of the exact escalation (it overrides `milp.threads`; the greedy rungs are
// serial), `sink` records the engine.* metrics, and an active `deadline`
// bounds every epoch's ladder (one shared token; epoch_deadline_seconds
// arms a fresh one per epoch instead). The merge has no knob (DESIGN.md
// §5j).
struct EngineOptions : CommonOptions {
    double epsilon1 = std::numeric_limits<double>::infinity();         // t_e2e bound
    std::int64_t epsilon2 = std::numeric_limits<std::int64_t>::max();  // Q_occ bound
    // Wall-clock budget per epoch (0 = none). Armed as a fresh Deadline for
    // every apply() call and threaded through every ladder rung.
    double epoch_deadline_seconds = 0.0;
    // Climb past the greedy rung into a warm-started exact re-solve when the
    // greedy rung fails to verify. Counted under engine.escalated.
    bool allow_milp = false;
    // Budget knobs for the exact escalation.
    milp::MilpOptions milp;
};

class Engine {
public:
    // The engine owns the network and its oracle for its whole life; fault
    // events must go through apply()/apply_fault so the oracle stays in
    // sync.
    explicit Engine(net::Network network, EngineOptions options = {});

    // One queued mutation of an epoch batch.
    struct Mutation {
        enum class Kind : std::uint8_t {
            kAddProgram,
            kRemoveProgram,
            kRetarget,
            kFault,
        };
        Kind kind = Kind::kRetarget;
        std::optional<prog::Program> program;  // kAddProgram
        std::string name;                      // kRemoveProgram
        fault::FaultEvent fault;               // kFault (inject and recover)
    };

    // Applies a whole epoch: all program-set changes and fault events land
    // first, then ONE delta re-solve covers the batch. kInvalidInput on
    // duplicate/unknown program names or out-of-range fault ids (the whole
    // batch is rolled back — program set, network, and oracle untouched);
    // kInfeasible when no rung produced a verifiable deployment (program
    // changes rolled back; fault events stay applied and the incumbent is
    // marked broken).
    [[nodiscard]] util::StatusOr<DeltaOutcome> apply(std::vector<Mutation> batch);

    // Single-mutation conveniences (one epoch each).
    [[nodiscard]] util::StatusOr<DeltaOutcome> add_program(prog::Program program);
    [[nodiscard]] util::StatusOr<DeltaOutcome> remove_program(const std::string& name);
    // Re-picks every inter-switch route of the incumbent against the current
    // topology (e.g. after recoveries left traffic on detours).
    [[nodiscard]] util::StatusOr<DeltaOutcome> retarget_traffic();
    [[nodiscard]] util::StatusOr<DeltaOutcome> apply_fault(const fault::FaultEvent& e);

    // ---- durability (DESIGN.md §5k) --------------------------------------

    // Opens (creating if needed) the write-ahead journal at `path` and
    // starts journaling: every subsequent apply() epoch is appended *before*
    // any state mutates, and a full-state snapshot rotation runs every
    // options.snapshot_interval epochs. kIo on filesystem trouble.
    [[nodiscard]] util::Status enable_journal(const std::string& path,
                                              JournalOptions options = {});

    struct RecoveryReport {
        bool journal_found = false;      // a valid journal existed at `path`
        std::int64_t snapshot_epoch = 0; // epoch restored from the snapshot (0 = none)
        std::int64_t replayed_epochs = 0;
        // Replayed epochs whose re-solve failed. Epochs that failed in the
        // original run replay their failure deterministically, so a nonzero
        // count is not corruption by itself.
        std::int64_t failed_replays = 0;
        std::uint64_t truncated_bytes = 0;  // torn tail dropped by the scan
        std::int64_t epoch = 0;             // engine epoch after recovery
    };

    // Restores state from the journal at `path` (latest snapshot, then
    // replay of the epoch records after it), then enables journaling there
    // and rotates a fresh snapshot so the next restart replays nothing.
    // Requires a fresh engine (no epochs applied yet); a missing journal is
    // a successful empty recovery that starts journaling a new log. The
    // caller must construct the engine with the same base topology the
    // journaled run used — the journal records fault deltas, not the
    // network itself; a snapshot that names a switch this topology lacks is
    // kInvalidInput, with nothing restored.
    [[nodiscard]] util::StatusOr<RecoveryReport> recover(const std::string& path,
                                                         JournalOptions options = {});

    [[nodiscard]] bool journaling() const noexcept { return journal_.has_value(); }

    // CRC32C over the canonical serialization of the externally observable
    // state: epoch, program names, incumbent placements/routes, and metric
    // bit patterns. The crash harness asserts a recovered engine's
    // fingerprint is bit-identical to an uninterrupted run's.
    [[nodiscard]] std::uint32_t fingerprint() const;

    // Observers.
    [[nodiscard]] const net::Network& network() const noexcept { return network_; }
    [[nodiscard]] net::PathOracle& oracle() noexcept { return oracle_; }
    [[nodiscard]] const EngineOptions& options() const noexcept { return options_; }
    [[nodiscard]] const tdg::Tdg& merged() const noexcept { return fold_.graph(); }
    [[nodiscard]] std::size_t program_count() const noexcept { return programs_.size(); }
    [[nodiscard]] std::vector<std::string> program_names() const;
    [[nodiscard]] bool has_incumbent() const noexcept { return incumbent_ok_; }
    // Valid only while has_incumbent(); the engine re-verifies after every
    // epoch, so this deployment is always verifier-clean when exposed.
    [[nodiscard]] const Deployment& incumbent() const noexcept { return incumbent_; }
    [[nodiscard]] const DeploymentMetrics& metrics() const noexcept { return metrics_; }
    [[nodiscard]] std::int64_t epoch() const noexcept { return epoch_; }

private:
    // One add, immutable once made: epochs and their rollbacks share it.
    struct ProgramEntry {
        prog::Program program;
        tdg::Tdg tdg;  // program.to_tdg()
    };
    using ProgramList = std::vector<std::shared_ptr<const ProgramEntry>>;

    [[nodiscard]] HermesOptions hermes_options(const Deadline& deadline);
    // Cuts the fold back to `position` and folds programs_ from there on.
    void refold(std::size_t position);
    void bump(const char* counter, std::int64_t delta = 1) const;

    // Full-state snapshot record ({"type":"snapshot", ...}).
    [[nodiscard]] util::Json snapshot_json() const;
    // Inverse of snapshot_json on a fresh engine. kInvalidInput, before
    // anything is restored, on a non-fresh engine or a malformed snapshot —
    // including any switch id outside this network.
    [[nodiscard]] util::Status restore_snapshot(const util::Json& snapshot);

    net::Network network_;
    EngineOptions options_;
    net::PathOracle oracle_;
    ProgramList programs_;
    tdg::UnionFold fold_;  // one position per entry of programs_
    Deployment incumbent_;
    DeploymentMetrics metrics_;
    bool incumbent_ok_ = false;
    std::int64_t epoch_ = 0;
    std::optional<Journal> journal_;
    // True while recover() replays journaled epochs: suppresses re-journaling
    // (the records are already durable) and snapshot rotation.
    bool replaying_ = false;
};

}  // namespace hermes::core
