// Write-ahead journal tests (core/journal.h, DESIGN.md §5k): record framing
// and CRC validation, torn-tail truncation, atomic snapshot rotation, the
// program/deployment payload codecs, crash-point accounting, and
// Engine::recover producing a state bit-identical to an uninterrupted run
// (and refusing a snapshot that names switches its topology lacks).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/journal.h"
#include "fault/crash.h"
#include "net/topozoo.h"
#include "prog/synthetic.h"
#include "sim/testbed.h"
#include "util/crc.h"
#include "util/json.h"

namespace hermes::core {
namespace {

std::string temp_path(const std::string& name) {
    std::string dir = ::testing::TempDir();
    if (!dir.empty() && dir.back() != '/') dir += '/';
    return dir + name;
}

void remove_journal(const std::string& path) {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

util::Json payload(const std::string& type, const std::string& note) {
    util::JsonObject o;
    o.emplace_back("type", type);
    o.emplace_back("note", note);
    return util::Json(std::move(o));
}

net::Network testbed() {
    sim::TestbedConfig config;
    config.switch_count = 4;
    config.stages = 8;
    return sim::make_testbed(config);
}

// ---- CRC32C ---------------------------------------------------------------

TEST(Crc32c, KnownVectorAndIncrementalAgreement) {
    // RFC 3720 check value for "123456789".
    EXPECT_EQ(util::crc32c("123456789"), 0xE3069283u);
    const std::string data = "the quick brown fox";
    std::uint32_t state = util::crc32c_init();
    state = util::crc32c_update(state, data.data(), 7);
    state = util::crc32c_update(state, data.data() + 7, data.size() - 7);
    EXPECT_EQ(util::crc32c_final(state), util::crc32c(data));
    EXPECT_EQ(util::crc32c(""), 0u);
}

// ---- Durability / framing -------------------------------------------------

TEST(Journal, DurabilityStringRoundTrip) {
    for (const Durability d :
         {Durability::kNone, Durability::kBatch, Durability::kEpoch}) {
        const auto parsed = parse_durability(to_string(d));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, d);
    }
    EXPECT_FALSE(parse_durability("paranoid").has_value());
}

TEST(Journal, AppendScanRoundTripsEscapedAndUtf8Payloads) {
    const std::string path = temp_path("journal_roundtrip.log");
    remove_journal(path);
    std::vector<std::string> notes = {
        "plain",
        "escapes: \"quoted\"\n\ttabbed\\slashed",
        "utf-8: Ωλ→☃ 日本語",
        std::string("embedded\x01control"),
    };
    {
        auto journal = Journal::open(path, {});
        ASSERT_TRUE(journal.ok()) << journal.status().to_string();
        for (const std::string& note : notes) {
            ASSERT_TRUE(journal.value().append(payload("epoch", note)).ok());
        }
    }
    auto scan = Journal::scan(path);
    ASSERT_TRUE(scan.ok()) << scan.status().to_string();
    EXPECT_TRUE(scan.value().found);
    EXPECT_EQ(scan.value().torn_bytes, 0u);
    ASSERT_EQ(scan.value().records.size(), notes.size());
    for (std::size_t i = 0; i < notes.size(); ++i) {
        EXPECT_EQ(scan.value().records[i].get("type").string_value(), "epoch");
        EXPECT_EQ(scan.value().records[i].get("note").string_value(), notes[i]);
        // The envelope is canonical: dumping and re-parsing is bit-stable.
        EXPECT_EQ(scan.value().records[i].dump(),
                  util::parse_json(scan.value().records[i].dump()).value().dump());
    }
    remove_journal(path);
}

TEST(Journal, ScanMissingFileIsFreshStart) {
    const std::string path = temp_path("journal_missing.log");
    remove_journal(path);
    auto scan = Journal::scan(path);
    ASSERT_TRUE(scan.ok());
    EXPECT_FALSE(scan.value().found);
    EXPECT_TRUE(scan.value().records.empty());
}

TEST(Journal, RefusesForeignFile) {
    const std::string path = temp_path("journal_foreign.log");
    {
        std::ofstream out(path, std::ios::trunc);
        out << "definitely not a journal, do not clobber me";
    }
    EXPECT_FALSE(Journal::scan(path).ok());
    EXPECT_FALSE(Journal::open(path, {}).ok());
    // The foreign content must be untouched.
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "definitely not a journal, do not clobber me");
    std::remove(path.c_str());
}

TEST(Journal, CrcCorruptionEndsValidHistory) {
    const std::string path = temp_path("journal_crc.log");
    remove_journal(path);
    {
        auto journal = Journal::open(path, {});
        ASSERT_TRUE(journal.ok());
        ASSERT_TRUE(journal.value().append(payload("epoch", "one")).ok());
        ASSERT_TRUE(journal.value().append(payload("epoch", "two")).ok());
    }
    {
        // Flip the last payload byte of the second record.
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(0, std::ios::end);
        const auto size = static_cast<long>(f.tellg());
        f.seekp(size - 1);
        f.put('#');
    }
    auto scan = Journal::scan(path);
    ASSERT_TRUE(scan.ok());
    ASSERT_EQ(scan.value().records.size(), 1u);
    EXPECT_EQ(scan.value().records[0].get("note").string_value(), "one");
    EXPECT_GT(scan.value().torn_bytes, 0u);

    // open() truncates the corrupt tail; the log accepts fresh appends.
    {
        auto journal = Journal::open(path, {});
        ASSERT_TRUE(journal.ok());
        ASSERT_TRUE(journal.value().append(payload("epoch", "three")).ok());
    }
    scan = Journal::scan(path);
    ASSERT_TRUE(scan.ok());
    ASSERT_EQ(scan.value().records.size(), 2u);
    EXPECT_EQ(scan.value().records[1].get("note").string_value(), "three");
    EXPECT_EQ(scan.value().torn_bytes, 0u);
    remove_journal(path);
}

TEST(Journal, TornTailTruncatedOnOpen) {
    const std::string path = temp_path("journal_torn.log");
    remove_journal(path);
    {
        auto journal = Journal::open(path, {});
        ASSERT_TRUE(journal.ok());
        ASSERT_TRUE(journal.value().append(payload("epoch", "kept")).ok());
        ASSERT_TRUE(journal.value().append(payload("epoch", "torn")).ok());
    }
    auto full = Journal::scan(path);
    ASSERT_TRUE(full.ok());
    ASSERT_EQ(full.value().records.size(), 2u);
    // Chop the second record mid-payload, as a crash between partial writes
    // would.
    ASSERT_EQ(::truncate(path.c_str(),
                         static_cast<off_t>(full.value().valid_bytes - 3)),
              0);
    auto scan = Journal::scan(path);
    ASSERT_TRUE(scan.ok());
    ASSERT_EQ(scan.value().records.size(), 1u);
    EXPECT_GT(scan.value().torn_bytes, 0u);
    {
        auto journal = Journal::open(path, {});
        ASSERT_TRUE(journal.ok());
        ASSERT_TRUE(journal.value().append(payload("epoch", "after")).ok());
    }
    scan = Journal::scan(path);
    ASSERT_TRUE(scan.ok());
    ASSERT_EQ(scan.value().records.size(), 2u);
    EXPECT_EQ(scan.value().records[0].get("note").string_value(), "kept");
    EXPECT_EQ(scan.value().records[1].get("note").string_value(), "after");
    remove_journal(path);
}

TEST(Journal, RotateReplacesLogWithSnapshotOnly) {
    const std::string path = temp_path("journal_rotate.log");
    remove_journal(path);
    JournalOptions options;
    options.snapshot_interval = 2;
    auto journal = Journal::open(path, options);
    ASSERT_TRUE(journal.ok());
    EXPECT_FALSE(journal.value().should_rotate());
    ASSERT_TRUE(journal.value().append(payload("epoch", "a")).ok());
    ASSERT_TRUE(journal.value().append(payload("epoch", "b")).ok());
    EXPECT_TRUE(journal.value().should_rotate());
    ASSERT_TRUE(journal.value().rotate(payload("snapshot", "state")).ok());
    EXPECT_EQ(journal.value().records_since_rotate(), 0);
    EXPECT_FALSE(journal.value().should_rotate());
    // Appends after the rotate land in the NEW log (the fd was reopened).
    ASSERT_TRUE(journal.value().append(payload("epoch", "c")).ok());
    auto scan = Journal::scan(path);
    ASSERT_TRUE(scan.ok());
    ASSERT_EQ(scan.value().records.size(), 2u);
    EXPECT_EQ(scan.value().records[0].get("type").string_value(), "snapshot");
    EXPECT_EQ(scan.value().records[1].get("note").string_value(), "c");
    remove_journal(path);
}

// ---- Payload codecs -------------------------------------------------------

TEST(JournalCodec, ProgramRoundTripsExactly) {
    prog::SyntheticConfig config;
    prog::Program program = prog::synthetic_program(config, 11, 3);
    program.add_gate(std::size_t{0}, std::size_t{2});
    program.add_explicit_edge(std::size_t{1}, std::size_t{3},
                              tdg::DepType::kSuccessor);
    const util::Json encoded = program_to_json(program);
    auto decoded = program_from_json(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded.value().name(), program.name());
    EXPECT_EQ(decoded.value().mat_count(), program.mat_count());
    EXPECT_EQ(decoded.value().gates(), program.gates());
    // Re-encoding must be byte-identical — the fingerprint depends on it.
    EXPECT_EQ(program_to_json(decoded.value()).dump(), encoded.dump());
    // And the rebuilt program derives the same TDG.
    EXPECT_EQ(decoded.value().to_tdg().node_count(), program.to_tdg().node_count());
    EXPECT_EQ(decoded.value().to_tdg().edges().size(), program.to_tdg().edges().size());
}

TEST(JournalCodec, ProgramFromJsonRejectsGarbage) {
    EXPECT_FALSE(program_from_json(util::Json("nope")).ok());
    util::JsonObject o;
    o.emplace_back("name", "x");
    EXPECT_FALSE(program_from_json(util::Json(std::move(o))).ok());
}

TEST(JournalCodec, DeploymentRoundTripsExactDoubles) {
    Deployment d;
    d.placements = {{0, 1}, {2, 3}, {1, 0}};
    net::Path p;
    p.switches = {0, 3, 2};
    p.latency_us = 1.0 / 3.0;  // not representable in decimal
    d.routes[{0, 2}] = p;
    const util::Json encoded = deployment_to_json(d);
    auto decoded = deployment_from_json(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    ASSERT_EQ(decoded.value().placements.size(), 3u);
    EXPECT_EQ(decoded.value().placements[1].sw, 2u);
    EXPECT_EQ(decoded.value().placements[1].stage, 3);
    ASSERT_EQ(decoded.value().routes.size(), 1u);
    const net::Path& back = decoded.value().routes.at({0, 2});
    EXPECT_EQ(back.switches, p.switches);
    // Bit-exact double round-trip (%.17g), not approximate.
    EXPECT_EQ(back.latency_us, p.latency_us);
    EXPECT_EQ(deployment_to_json(decoded.value()).dump(), encoded.dump());
}

// ---- Crash points ---------------------------------------------------------

TEST(CrashPoints, MapListsEverySeam) {
    const std::vector<std::string>& names = fault::crash_point_names();
    ASSERT_EQ(names.size(), 7u);
    EXPECT_NE(std::find(names.begin(), names.end(), "engine.apply.journaled"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "journal.snapshot.renamed"),
              names.end());
}

TEST(CrashPoints, UnarmedPointsCountHits) {
    fault::disarm_crash_points();
    const std::string path = temp_path("journal_hits.log");
    remove_journal(path);
    const std::int64_t before = fault::crash_point_hits("journal.append.pre_sync");
    auto journal = Journal::open(path, {});
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value().append(payload("epoch", "hit")).ok());
    EXPECT_EQ(fault::crash_point_hits("journal.append.pre_sync"), before + 1);
    remove_journal(path);
}

TEST(CrashPoints, ArmedPointKillsProcessAtNthHit) {
    fault::disarm_crash_points();
    const std::string path = temp_path("journal_kill.log");
    remove_journal(path);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        fault::arm_crash_point("journal.append.pre_sync", 2);
        auto journal = Journal::open(path, {});
        if (!journal.ok()) _exit(10);
        if (!journal.value().append(payload("epoch", "one")).ok()) _exit(11);
        (void)journal.value().append(payload("epoch", "two"));  // SIGKILL here
        _exit(12);  // unreachable when the point fires
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    // The first append completed before the kill; the second is at most torn.
    auto scan = Journal::scan(path);
    ASSERT_TRUE(scan.ok());
    ASSERT_GE(scan.value().records.size(), 1u);
    EXPECT_EQ(scan.value().records[0].get("note").string_value(), "one");
    remove_journal(path);
}

// ---- Engine recovery ------------------------------------------------------

TEST(EngineJournal, RecoverMatchesUninterruptedRun) {
    const std::string path = temp_path("engine_recover.log");
    remove_journal(path);
    prog::SyntheticConfig config;

    std::uint32_t fingerprint = 0;
    std::int64_t epoch = 0;
    std::size_t programs = 0;
    {
        Engine engine(testbed());
        auto report = engine.recover(path, {});
        ASSERT_TRUE(report.ok()) << report.status().to_string();
        EXPECT_FALSE(report.value().journal_found);
        ASSERT_TRUE(engine.add_program(prog::synthetic_program(config, 5, 0)).ok());
        ASSERT_TRUE(engine.add_program(prog::synthetic_program(config, 5, 1)).ok());
        fault::FaultEvent down;
        down.kind = fault::FaultKind::kLinkDown;
        down.a = 0;
        down.b = 1;
        // These epochs may come back kInfeasible on the small testbed — that
        // is part of the deterministic run (infeasible epochs journal and
        // replay their failure identically); only kInvalidInput would mean a
        // broken test.
        EXPECT_NE(engine.apply_fault(down).status().code(),
                  util::StatusCode::kInvalidInput);
        EXPECT_NE(engine.retarget_traffic().status().code(),
                  util::StatusCode::kInvalidInput);
        EXPECT_NE(engine.remove_program(engine.program_names().front()).status().code(),
                  util::StatusCode::kInvalidInput);
        fingerprint = engine.fingerprint();
        epoch = engine.epoch();
        programs = engine.program_count();
    }

    obs::Sink sink;
    EngineOptions options;
    options.sink = &sink;
    Engine recovered(testbed(), options);
    JournalOptions journal_options;
    journal_options.sink = &sink;
    auto report = recovered.recover(path, journal_options);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_TRUE(report.value().journal_found);
    EXPECT_EQ(report.value().epoch, epoch);
    EXPECT_EQ(recovered.epoch(), epoch);
    EXPECT_EQ(recovered.fingerprint(), fingerprint);
    EXPECT_EQ(recovered.program_count(), programs);
    // The recovered network carries the journaled fault delta.
    EXPECT_FALSE(recovered.network().link_up(0, 1));
    std::int64_t recoveries = 0;
    for (const auto& c : sink.counters()) {
        if (c.name == "serve.recoveries") recoveries = c.value;
    }
    EXPECT_EQ(recoveries, 1);
    remove_journal(path);
}

TEST(EngineJournal, SnapshotRotationBoundsReplay) {
    const std::string path = temp_path("engine_snapshot.log");
    remove_journal(path);
    prog::SyntheticConfig config;
    JournalOptions journal_options;
    journal_options.snapshot_interval = 2;

    std::uint32_t fingerprint = 0;
    {
        Engine engine(testbed());
        ASSERT_TRUE(engine.recover(path, journal_options).ok());
        ASSERT_TRUE(engine.add_program(prog::synthetic_program(config, 9, 0)).ok());
        ASSERT_TRUE(engine.retarget_traffic().ok());   // epoch 2 -> rotate
        ASSERT_TRUE(engine.retarget_traffic().ok());
        fingerprint = engine.fingerprint();
    }
    Engine recovered(testbed());
    auto report = recovered.recover(path, journal_options);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_GT(report.value().snapshot_epoch, 0);
    EXPECT_LT(report.value().replayed_epochs, 3);
    EXPECT_EQ(recovered.fingerprint(), fingerprint);
    remove_journal(path);
}

// Every edge (from, to, type, A(a,b)) of `got` equals `want`'s, in order.
void expect_same_edges(const tdg::Tdg& got, const tdg::Tdg& want) {
    ASSERT_EQ(got.node_count(), want.node_count());
    ASSERT_EQ(got.edge_count(), want.edge_count());
    for (std::size_t i = 0; i < want.edge_count(); ++i) {
        const tdg::Edge& g = got.edges()[i];
        const tdg::Edge& w = want.edges()[i];
        EXPECT_EQ(g.from, w.from) << "edge " << i;
        EXPECT_EQ(g.to, w.to) << "edge " << i;
        EXPECT_EQ(g.type, w.type) << "edge " << i;
        EXPECT_EQ(g.metadata_bytes, w.metadata_bytes) << "edge " << i;
    }
}

TEST(EngineJournal, RecoveryAcrossSnapshotMatchesUninterruptedRun) {
    // The live engine grows its merge one add per epoch; the recovered one
    // rebuilds it in one go from the epoch-6 snapshot. Both must hold the
    // same graph, and stay in step through three more adds.
    const std::string path = temp_path("engine_snapshot_merge.log");
    const std::string copy = temp_path("engine_snapshot_merge_copy.log");
    remove_journal(path);
    remove_journal(copy);
    JournalOptions journal_options;
    journal_options.snapshot_interval = 6;
    const auto add = [](Engine& engine, int index) {
        ASSERT_TRUE(engine.add_program(prog::synthetic_program({}, 1, index)).ok()) << index;
    };

    Engine live(net::table3_topology(1));
    ASSERT_TRUE(live.recover(path, journal_options).ok());
    for (const int index : {15, 7, 4, 14, 8, 5}) add(live, index);
    std::filesystem::copy_file(path, copy);

    Engine recovered(net::table3_topology(1));
    auto report = recovered.recover(copy, journal_options);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_EQ(report.value().snapshot_epoch, 6);
    EXPECT_EQ(report.value().replayed_epochs, 0);
    expect_same_edges(recovered.merged(), live.merged());
    EXPECT_EQ(recovered.fingerprint(), live.fingerprint());

    for (const int index : {0, 6, 12}) {
        add(live, index);
        add(recovered, index);
    }
    expect_same_edges(recovered.merged(), live.merged());
    EXPECT_EQ(recovered.fingerprint(), live.fingerprint());
    remove_journal(path);
    remove_journal(copy);
}

TEST(EngineJournal, RecoverRejectsSnapshotFromAnotherTopology) {
    // A snapshot journaled on table3:10 names failed switch 68; table3:1 has
    // 65 switches. Recovering it there must be invalid input, with no
    // element failed, instead of an exception out of the injector.
    const std::string path = temp_path("engine_foreign_snapshot.log");
    remove_journal(path);
    JournalOptions journal_options;
    journal_options.snapshot_interval = 1;  // rotate a snapshot every epoch
    {
        Engine engine(net::table3_topology(10));
        ASSERT_GT(engine.network().switch_count(), 68u);
        ASSERT_TRUE(engine.recover(path, journal_options).ok());
        ASSERT_TRUE(engine.add_program(prog::synthetic_program({}, 5, 0)).ok());
        fault::FaultEvent down;
        down.kind = fault::FaultKind::kSwitchDown;
        down.a = 68;
        ASSERT_TRUE(engine.apply_fault(down).ok());
    }

    Engine recovered(net::table3_topology(1));
    ASSERT_EQ(recovered.network().switch_count(), 65u);
    util::StatusOr<Engine::RecoveryReport> report = util::Status::io("not run");
    ASSERT_NO_THROW(report = recovered.recover(path, journal_options));
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), util::StatusCode::kInvalidInput);
    const net::Network& n = recovered.network();
    for (net::SwitchId u = 0; u < n.switch_count(); ++u) EXPECT_TRUE(n.switch_up(u)) << u;
    for (const net::Link& l : n.links()) EXPECT_TRUE(l.up) << l.a << "-" << l.b;
    EXPECT_EQ(recovered.program_count(), 0u);
    remove_journal(path);
}

TEST(EngineJournal, RecoverRejectsIncumbentRouteOutsideTopology) {
    // A snapshot whose incumbent records a route out of switch 99 on a
    // 4-switch testbed: re-verifying it would look the missing switch up.
    const std::string path = temp_path("engine_foreign_route.log");
    remove_journal(path);
    const prog::Program program = prog::synthetic_program({}, 7, 0);
    Deployment incumbent;
    incumbent.placements.assign(program.to_tdg().node_count(), Placement{0, 0});
    incumbent.placements.back().sw = 1;
    net::Path foreign;
    foreign.switches = {99, 1};
    incumbent.routes[{99, 1}] = foreign;
    util::JsonObject snapshot;
    snapshot.emplace_back("type", "snapshot");
    snapshot.emplace_back("epoch", 1);
    snapshot.emplace_back("programs", util::JsonArray{program_to_json(program)});
    snapshot.emplace_back("down_switches", util::JsonArray{});
    snapshot.emplace_back("down_links", util::JsonArray{});
    snapshot.emplace_back("incumbent_ok", true);
    snapshot.emplace_back("incumbent", deployment_to_json(incumbent));
    {
        util::StatusOr<Journal> journal = Journal::open(path);
        ASSERT_TRUE(journal.ok()) << journal.status().to_string();
        ASSERT_TRUE(journal.value().rotate(util::Json(std::move(snapshot))).ok());
    }

    Engine recovered(testbed());
    util::StatusOr<Engine::RecoveryReport> report = util::Status::io("not run");
    ASSERT_NO_THROW(report = recovered.recover(path, {}));
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), util::StatusCode::kInvalidInput);
    EXPECT_EQ(recovered.program_count(), 0u);
    remove_journal(path);
}

TEST(EngineJournal, RecoverRequiresFreshEngine) {
    const std::string path = temp_path("engine_fresh.log");
    remove_journal(path);
    prog::SyntheticConfig config;
    Engine engine(testbed());
    ASSERT_TRUE(engine.add_program(prog::synthetic_program(config, 3, 0)).ok());
    auto report = engine.recover(path, {});
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), util::StatusCode::kInvalidInput);
    remove_journal(path);
}

}  // namespace
}  // namespace hermes::core
