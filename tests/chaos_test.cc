// Deterministic chaos harness for the durability layer. Every test is
// a scripted fault schedule (FaultInjectingFileOps::FaultSchedule)
// driving a durable database through mutations, queries, checkpoints
// and reopens, with three invariants checked throughout:
//
//   1. answers stay consistent with a from-scratch re-materialisation
//      of the successfully applied programs (the oracle);
//   2. a reopen recovers after *every* schedule;
//   3. degraded read-only mode is entered and exited exactly when the
//      schedule says it must be — transient faults retry and clear,
//      persistent ones degrade immediately, and the next successful
//      checkpoint restores read-write service.
//
// No real sleeps: retry backoff goes through an injected recorder, so
// the exponential schedule itself is asserted.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "query/database.h"
#include "store/file_ops.h"

namespace pathlog {
namespace {

using FaultKind = FaultInjectingFileOps::FaultKind;
using FaultOp = FaultInjectingFileOps::FaultOp;
using FaultEvent = FaultInjectingFileOps::FaultEvent;
using FaultSchedule = FaultInjectingFileOps::FaultSchedule;

/// A durable database under test plus the book-keeping the invariants
/// need: the programs that were successfully applied (the oracle
/// input) and a recorder for retry backoff sleeps.
struct ChaosRig {
  FaultInjectingFileOps fs;
  std::vector<uint64_t> sleeps;
  DatabaseOptions opts;
  std::vector<std::string> applied;

  ChaosRig() {
    opts.durability.initial_backoff_ms = 1;
    opts.durability.max_backoff_ms = 64;
    opts.durability.backoff_sleep = [this](uint64_t ms) {
      sleeps.push_back(ms);
    };
  }

  Result<Database> Open() { return Database::Open("/db", opts, &fs); }

  /// One scripted fault event starting at the next matching op.
  void Inject(FaultOp op, uint64_t at, uint64_t count, FaultKind kind,
              StatusCode code = StatusCode::kUnavailable) {
    FaultSchedule s;
    s.events.push_back(FaultEvent{op, at, count, kind, code});
    fs.SetSchedule(s);
  }
  void ClearFaults() { fs.SetSchedule(FaultSchedule{}); }
};

/// The oracle: a fresh in-memory database materialised from scratch
/// over the applied programs must give the same answers as the durable
/// database that lived through the schedule.
void ExpectMatchesOracle(Database& db, const std::vector<std::string>& applied,
                         const std::vector<std::string>& refs) {
  Database oracle;
  for (const std::string& p : applied) {
    ASSERT_TRUE(oracle.Load(p).ok()) << p;
  }
  for (const std::string& ref : refs) {
    Result<bool> want = oracle.Holds(ref);
    ASSERT_TRUE(want.ok()) << ref << ": " << want.status();
    Result<bool> got = db.Holds(ref);
    ASSERT_TRUE(got.ok()) << ref << ": " << got.status();
    EXPECT_EQ(*got, *want) << ref;
  }
}

TEST(ChaosTest, TransientFsyncEioRetriesAndClears) {
  // Schedule: the next fsync fails once with a transient code. The
  // commit must retry (truncate + re-append + fsync) and succeed; the
  // database never degrades and the retry is counted.
  ChaosRig rig;
  Result<Database> db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->Load("a[v->1].").ok());
  rig.applied.push_back("a[v->1].");

  rig.Inject(FaultOp::kSync, 1, 1, FaultKind::kFail);
  Status st = db->Load("b[v->2].");
  EXPECT_TRUE(st.ok()) << st;
  rig.applied.push_back("b[v->2].");

  EXPECT_FALSE(db->degraded());
  EXPECT_EQ(db->Health().wal_retries, 1u);
  EXPECT_EQ(db->Health().degraded_entries, 0u);
  EXPECT_EQ(rig.sleeps, (std::vector<uint64_t>{1}));

  rig.ClearFaults();
  db = rig.Open();  // reopen recovers both commits
  ASSERT_TRUE(db.ok()) << db.status();
  ExpectMatchesOracle(*db, rig.applied, {"a[v->1]", "b[v->2]"});
}

TEST(ChaosTest, TransientAppendEioRetriesAndClears) {
  ChaosRig rig;
  Result<Database> db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();

  rig.Inject(FaultOp::kAppend, 1, 1, FaultKind::kFail);
  ASSERT_TRUE(db->Load("a[v->1].").ok());
  rig.applied.push_back("a[v->1].");

  EXPECT_FALSE(db->degraded());
  EXPECT_EQ(db->Health().wal_retries, 1u);

  rig.ClearFaults();
  db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ExpectMatchesOracle(*db, rig.applied, {"a[v->1]"});
}

TEST(ChaosTest, TransientShortWriteMidBatchIsRepairedByTruncation) {
  // A short write tears the *middle* of a commit's batch: the retry
  // must truncate back to the last known-good length and re-append the
  // whole batch, or the log would carry a torn frame mid-file.
  ChaosRig rig;
  Result<Database> db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->Load("a[v->1].").ok());
  rig.applied.push_back("a[v->1].");

  rig.Inject(FaultOp::kAppend, 2, 1, FaultKind::kShortWrite);
  ASSERT_TRUE(db->Load("b[v->2]. c[v->3].").ok());
  rig.applied.push_back("b[v->2]. c[v->3].");
  EXPECT_FALSE(db->degraded());
  EXPECT_EQ(db->Health().wal_retries, 1u);

  rig.ClearFaults();
  db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ExpectMatchesOracle(*db, rig.applied,
                      {"a[v->1]", "b[v->2]", "c[v->3]", "a[v->2]"});
}

TEST(ChaosTest, TwoTransientsInOneCommitStillLandReadWrite) {
  ChaosRig rig;
  Result<Database> db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();

  rig.Inject(FaultOp::kSync, 1, 2, FaultKind::kFail);  // two fsyncs fail
  ASSERT_TRUE(db->Load("a[v->1].").ok());
  rig.applied.push_back("a[v->1].");

  EXPECT_FALSE(db->degraded());
  EXPECT_EQ(db->Health().wal_retries, 2u);
  EXPECT_EQ(rig.sleeps, (std::vector<uint64_t>{1, 2}));

  rig.ClearFaults();
  db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ExpectMatchesOracle(*db, rig.applied, {"a[v->1]"});
}

TEST(ChaosTest, EnospcWindowExhaustsRetriesDegradesThenRecovers) {
  // An ENOSPC window longer than the retry budget: every write-side op
  // fails transiently. The commit burns all four retries with the full
  // exponential backoff schedule, then enters degraded read-only mode.
  // When space returns, a checkpoint restores read-write service and
  // makes the stranded in-memory mutation durable.
  ChaosRig rig;
  Result<Database> db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->Load("a[v->1].").ok());
  rig.applied.push_back("a[v->1].");

  rig.Inject(FaultOp::kAny, 1, 200, FaultKind::kFail);  // the full window
  Status st = db->Load("b[v->2].");
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st;
  EXPECT_TRUE(db->degraded());
  DatabaseHealth h = db->Health();
  EXPECT_EQ(h.wal_retries, 4u);
  EXPECT_EQ(h.degraded_entries, 1u);
  EXPECT_NE(h.degraded_cause, "");
  EXPECT_EQ(rig.sleeps, (std::vector<uint64_t>{1, 2, 4, 8}));

  // Degraded service: queries keep answering from the last consistent
  // in-memory state (which includes b), mutations fail fast.
  Result<bool> holds = db->Holds("a[v->1]");
  ASSERT_TRUE(holds.ok()) << holds.status();
  EXPECT_TRUE(*holds);
  EXPECT_EQ(db->Load("c[v->3].").code(), StatusCode::kUnavailable);

  // Space returns: the checkpoint probe succeeds and re-enables writes.
  rig.ClearFaults();
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_FALSE(db->degraded());
  rig.applied.push_back("b[v->2].");  // snapshotted from memory
  ASSERT_TRUE(db->Load("d[v->4].").ok());
  rig.applied.push_back("d[v->4].");

  db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ExpectMatchesOracle(*db, rig.applied,
                      {"a[v->1]", "b[v->2]", "c[v->3]", "d[v->4]"});
}

TEST(ChaosTest, PersistentAppendFailureDegradesImmediately) {
  // A persistent failure (kInternal — the device is gone) must not be
  // retried: one failed append, zero retries, straight to degraded.
  ChaosRig rig;
  Result<Database> db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->Load("a[v->1].").ok());
  rig.applied.push_back("a[v->1].");

  rig.Inject(FaultOp::kAppend, 1, 1, FaultKind::kFail,
             StatusCode::kInternal);
  EXPECT_EQ(db->Load("b[v->2].").code(), StatusCode::kUnavailable);
  EXPECT_TRUE(db->degraded());
  EXPECT_EQ(db->Health().wal_retries, 0u);
  EXPECT_EQ(db->Health().degraded_entries, 1u);
  EXPECT_TRUE(rig.sleeps.empty()) << "persistent failures never back off";

  // Queries serve; mutations fail fast with kUnavailable.
  Result<bool> holds = db->Holds("a[v->1]");
  ASSERT_TRUE(holds.ok()) << holds.status();
  EXPECT_TRUE(*holds);
  EXPECT_EQ(db->Materialize().code(), StatusCode::kUnavailable);
  EXPECT_EQ(db->FireTriggers().code(), StatusCode::kUnavailable);

  rig.ClearFaults();
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_FALSE(db->degraded());
  rig.applied.push_back("b[v->2].");
  ASSERT_TRUE(db->Load("c[v->3].").ok());
  rig.applied.push_back("c[v->3].");

  db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ExpectMatchesOracle(*db, rig.applied, {"a[v->1]", "b[v->2]", "c[v->3]"});
}

TEST(ChaosTest, PersistentFsyncOnlyFailureDegradesAndCheckpointHeals) {
  // Appends succeed but fsync is persistently broken: data reaches the
  // page cache, durability cannot be promised, so the database must
  // degrade rather than acknowledge commits it cannot keep.
  ChaosRig rig;
  Result<Database> db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->Load("a[v->1].").ok());
  rig.applied.push_back("a[v->1].");

  rig.Inject(FaultOp::kSync, 1, 1, FaultKind::kFail, StatusCode::kInternal);
  EXPECT_EQ(db->Load("b[v->2].").code(), StatusCode::kUnavailable);
  EXPECT_TRUE(db->degraded());
  EXPECT_EQ(db->Health().wal_retries, 0u);

  rig.ClearFaults();
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_FALSE(db->degraded());
  rig.applied.push_back("b[v->2].");

  db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ExpectMatchesOracle(*db, rig.applied, {"a[v->1]", "b[v->2]"});
}

TEST(ChaosTest, CrashMidCommitRecoversTheCommittedPrefix) {
  // A crash in the middle of a commit's append batch: after restart,
  // recovery must produce exactly the previously committed state — the
  // torn batch is truncated away, never half-applied.
  ChaosRig rig;
  Result<Database> db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->Load("a[v->1].").ok());
  rig.applied.push_back("a[v->1].");

  rig.Inject(FaultOp::kAppend, 2, 1, FaultKind::kCrash);
  EXPECT_FALSE(db->Load("b[v->2]. c[v->3].").ok());
  EXPECT_TRUE(db->degraded()) << "the disk is gone: degraded is all "
                                 "that's left to serve";

  rig.fs.RecoverAfterCrash();
  rig.ClearFaults();
  db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ExpectMatchesOracle(*db, rig.applied, {"a[v->1]"});
  Result<bool> torn = db->Holds("b[v->2]");
  ASSERT_TRUE(torn.ok()) << torn.status();
  EXPECT_FALSE(*torn) << "the crashed batch must not be half-recovered";
}

TEST(ChaosTest, CheckpointRenameFaultFailsTheCheckpointNotTheDatabase) {
  // A fault in the snapshot's atomic-rename makes the *checkpoint*
  // fail, but the WAL is untouched: no degraded mode, and mutations
  // keep committing.
  ChaosRig rig;
  Result<Database> db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->Load("a[v->1].").ok());
  rig.applied.push_back("a[v->1].");

  rig.Inject(FaultOp::kRename, 1, 1, FaultKind::kFail);
  EXPECT_FALSE(db->Checkpoint().ok());
  EXPECT_FALSE(db->degraded());
  EXPECT_EQ(db->Health().degraded_entries, 0u);

  ASSERT_TRUE(db->Load("b[v->2].").ok());
  rig.applied.push_back("b[v->2].");

  rig.ClearFaults();
  db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ExpectMatchesOracle(*db, rig.applied, {"a[v->1]", "b[v->2]"});
}

TEST(ChaosTest, AFailedLogResetDegradesInsteadOfDroppingLaterWrites) {
  // A checkpoint renames its snapshot into place and then resets the
  // log: temp file, fsync, rename (the checkpoint's second rename), and
  // a reopen (its third open). When the reset fails the log is broken —
  // the old log may still be in place, or no file is open — so a later
  // mutation that returned OK would be lost on reopen. The database
  // must degrade instead, and the next checkpoint must heal it. Each
  // case hits the reset once: through an explicit Checkpoint() or
  // through the size rotation a Load's commit triggers.
  struct Case {
    const char* name;
    bool rotate;  // reach the checkpoint through rotate_wal_bytes = 1
    FaultOp op;
    uint64_t at;
  };
  for (const Case& c : {Case{"checkpoint, log rename", false,
                             FaultOp::kRename, 2},
                        Case{"rotation, log rename", true, FaultOp::kRename,
                             2},
                        Case{"checkpoint, log reopen", false, FaultOp::kOpen,
                             3}}) {
    SCOPED_TRACE(c.name);
    ChaosRig rig;
    if (c.rotate) rig.opts.durability.rotate_wal_bytes = 1;
    Result<Database> db = rig.Open();
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->Load("a[v->1].").ok());
    rig.applied.push_back("a[v->1].");

    rig.Inject(c.op, c.at, 1, FaultKind::kFail);
    if (c.rotate) {
      // The commit lands and the rotation's snapshot holds it; only the
      // log reset after it fails.
      EXPECT_EQ(db->Load("c[v->3].").code(), StatusCode::kUnavailable);
    } else {
      EXPECT_FALSE(db->Checkpoint().ok());
    }
    EXPECT_TRUE(db->degraded());
    EXPECT_EQ(db->Health().degraded_entries, 1u);
    EXPECT_EQ(db->Load("b[v->2].").code(), StatusCode::kUnavailable);
    Result<bool> holds = db->Holds("a[v->1]");
    ASSERT_TRUE(holds.ok()) << holds.status();
    EXPECT_TRUE(*holds) << "reads keep answering while degraded";

    rig.ClearFaults();
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_FALSE(db->degraded());
    if (c.rotate) rig.applied.push_back("c[v->3].");  // snapshotted
    ASSERT_TRUE(db->Load("d[v->4].").ok());
    rig.applied.push_back("d[v->4].");

    db = rig.Open();
    ASSERT_TRUE(db.ok()) << db.status();
    ExpectMatchesOracle(*db, rig.applied,
                        {"a[v->1]", "b[v->2]", "c[v->3]", "d[v->4]"});
  }
}

TEST(ChaosTest, TinyRotationThresholdRotatesEveryCommitAndStaysConsistent) {
  // rotate_wal_bytes far below one commit: every commit trips the
  // rotation check and auto-checkpoints. Recovery then comes from the
  // snapshot, and the rotation counter tracks the commits.
  ChaosRig rig;
  rig.opts.durability.rotate_wal_bytes = 1;
  Result<Database> db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  for (int i = 0; i < 5; ++i) {
    const std::string i_str = std::to_string(i);
    const std::string program = "o" + i_str + "[v->" + i_str + "].";
    ASSERT_TRUE(db->Load(program).ok()) << i;
    rig.applied.push_back(program);
  }
  DatabaseHealth h = db->Health();
  EXPECT_EQ(h.wal_rotations, 5u);
  EXPECT_EQ(h.wal_records, 0u) << "every commit checkpointed the log away";

  db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->Health().wal_rotations, 0u) << "counters are per-instance";
  // The log closed dirty (every commit was a Load), so the first read
  // materialises, and the commit of its materialised mark rotates too.
  ExpectMatchesOracle(*db, rig.applied,
                      {"o0[v->0]", "o4[v->4]", "o0[v->4]"});
  EXPECT_EQ(db->Health().wal_rotations, 1u);
}

TEST(ChaosTest, RulesAndDerivedFactsSurviveTheFaults) {
  // The schedule hits a commit that carries a *rule*; after recovery
  // the rule must still derive (including over facts loaded later).
  ChaosRig rig;
  Result<Database> db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();

  rig.Inject(FaultOp::kSync, 1, 1, FaultKind::kFail);
  ASSERT_TRUE(db->Load("X[w->V] <- X[v->V]. a[v->1].").ok());
  rig.applied.push_back("X[w->V] <- X[v->V]. a[v->1].");
  EXPECT_EQ(db->Health().wal_retries, 1u);

  rig.ClearFaults();
  db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->Load("b[v->2].").ok());
  rig.applied.push_back("b[v->2].");
  ExpectMatchesOracle(*db, rig.applied,
                      {"a[w->1]", "b[w->2]", "a[w->2]"});
}

// ---------------------------------------------------------------------------
// Flight-recorder incident dumps: a degrade must leave a black-box
// file in the durable dir that standard trace tooling can load.

/// Dump file names in the rig's durable dir ("flightrec-<ts>-<n>
/// .trace.json"), in listing order.
std::vector<std::string> FlightDumps(ChaosRig& rig) {
  Result<std::vector<std::string>> names = rig.fs.ListDir("/db");
  std::vector<std::string> dumps;
  if (!names.ok()) return dumps;
  for (const std::string& name : *names) {
    if (name.rfind("flightrec-", 0) == 0 &&
        name.size() > 11 &&
        name.compare(name.size() - 11, 11, ".trace.json") == 0) {
      dumps.push_back(name);
    }
  }
  return dumps;
}

TEST(ChaosTest, PersistentWalFaultLeavesAFlightRecorderDump) {
  // The acceptance criterion: a forced degrade (persistent WAL fault)
  // leaves a dump on disk that parses as valid trace JSON and whose
  // events include the failing WAL span and the degraded-mode entry.
  ChaosRig rig;
  FlightRecorder flight;
  Result<Database> db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ObsSinks sinks;
  sinks.flight = &flight;
  db->SetObsSinks(sinks);
  ASSERT_TRUE(db->Load("a[v->1].").ok());
  EXPECT_TRUE(FlightDumps(rig).empty()) << "no dump before the incident";

  rig.Inject(FaultOp::kAppend, 1, 1, FaultKind::kFail,
             StatusCode::kInternal);
  EXPECT_EQ(db->Load("b[v->2].").code(), StatusCode::kUnavailable);
  EXPECT_TRUE(db->degraded());

  std::vector<std::string> dumps = FlightDumps(rig);
  ASSERT_EQ(dumps.size(), 1u);
  Result<std::string> bytes = rig.fs.ReadFile("/db/" + dumps[0]);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  Result<JsonValue> trace = ParseJson(*bytes);
  ASSERT_TRUE(trace.ok()) << trace.status();
  const JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->items().empty());

  bool saw_wal_failure = false, saw_degraded = false;
  for (const JsonValue& e : events->items()) {
    const JsonValue* name = e.Find("name");
    if (name == nullptr || !name->is_string()) continue;
    if (name->as_string() == "wal.append") {
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr) << "the WAL failure must carry its error";
      const JsonValue* error = args->Find("error");
      ASSERT_NE(error, nullptr);
      EXPECT_NE(error->as_string().find("Internal"), std::string::npos)
          << error->as_string();
      saw_wal_failure = true;
    }
    if (name->as_string() == "db.degraded") saw_degraded = true;
  }
  EXPECT_TRUE(saw_wal_failure) << *bytes;
  EXPECT_TRUE(saw_degraded) << *bytes;

  // The dump's own writes went through the same (now healthy) file
  // system; the database is still degraded, serving reads.
  Result<bool> holds = db->Holds("a[v->1]");
  ASSERT_TRUE(holds.ok()) << holds.status();
  EXPECT_TRUE(*holds);
}

TEST(ChaosTest, BudgetRejectionLeavesAFlightRecorderDump) {
  // The second incident trigger: a budget-rejected query on a durable
  // database dumps the ring too, without any WAL fault.
  ChaosRig rig;
  FlightRecorder flight;
  rig.opts.engine.limits.max_store_bytes = 1ull << 40;
  rig.opts.engine.limits.max_derivations = 1;
  rig.opts.engine.limits.max_wall_ms = 600'000;
  Result<Database> db = rig.Open();
  ASSERT_TRUE(db.ok()) << db.status();
  ObsSinks sinks;
  sinks.flight = &flight;
  db->SetObsSinks(sinks);
  ASSERT_TRUE(db->Load("X[desc->>{Y}] <- X[kids->>{Y}]. "
                       "X[desc->>{Z}] <- X[kids->>{Y}], Y[desc->>{Z}]. "
                       "a[kids->>{b}]. b[kids->>{c}]. c[kids->>{d}].")
                  .ok());

  EXPECT_FALSE(db->Query("?- a[desc->>{D}].").ok())
      << "one derivation of budget cannot close a 4-chain";
  std::vector<std::string> dumps = FlightDumps(rig);
  ASSERT_EQ(dumps.size(), 1u);
  Result<std::string> bytes = rig.fs.ReadFile("/db/" + dumps[0]);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  Result<JsonValue> trace = ParseJson(*bytes);
  ASSERT_TRUE(trace.ok()) << trace.status();
  bool saw_dump_marker = false;
  for (const JsonValue& e : trace->Find("traceEvents")->items()) {
    const JsonValue* name = e.Find("name");
    if (name != nullptr && name->as_string() == "flightrec.dump") {
      saw_dump_marker = true;
    }
  }
  EXPECT_TRUE(saw_dump_marker) << *bytes;
  EXPECT_FALSE(db->degraded()) << "a budget trip is not a WAL failure";
}

TEST(ChaosTest, SeededInterleavingsStayConsistentWithTheOracle) {
  // Randomised (but seeded and deterministic) interleavings of loads,
  // queries, checkpoints, reopens and injected transient faults. Every
  // mutation that succeeds goes to the oracle; after each run the
  // recovered database must agree with a from-scratch rebuild.
  for (uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    uint64_t state = seed;
    auto lcg = [&state] {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return state >> 33;
    };
    ChaosRig rig;
    Result<Database> db = rig.Open();
    ASSERT_TRUE(db.ok()) << db.status();
    int next_obj = 0;
    for (int step = 0; step < 40; ++step) {
      const uint64_t r = lcg() % 10;
      if (r < 5) {
        // Mutation, sometimes under a one-shot transient fault.
        if (lcg() % 4 == 0) {
          rig.Inject(FaultOp::kAny, 1, 1, FaultKind::kFail);
        }
        const std::string o = std::to_string(next_obj++);
        const std::string v = std::to_string(lcg() % 7);
        const std::string program = "o" + o + "[v->" + v + "].";
        ASSERT_TRUE(db->Load(program).ok()) << "step " << step;
        rig.applied.push_back(program);
        rig.ClearFaults();
      } else if (r < 7) {
        // Query: row count must match the oracle's.
        Database oracle;
        for (const std::string& p : rig.applied) {
          ASSERT_TRUE(oracle.Load(p).ok());
        }
        Result<ResultSet> got = db->Query("?- X[v->V].");
        ASSERT_TRUE(got.ok()) << "step " << step << ": " << got.status();
        Result<ResultSet> want = oracle.Query("?- X[v->V].");
        ASSERT_TRUE(want.ok()) << want.status();
        EXPECT_EQ(got->rows(), want->rows()) << "step " << step;
      } else if (r == 7) {
        ASSERT_TRUE(db->Checkpoint().ok()) << "step " << step;
      } else {
        rig.ClearFaults();
        db = rig.Open();
        ASSERT_TRUE(db.ok()) << "step " << step << ": " << db.status();
      }
      ASSERT_FALSE(db->degraded()) << "step " << step
                                   << ": transient faults must clear";
    }
    rig.ClearFaults();
    db = rig.Open();
    ASSERT_TRUE(db.ok()) << db.status();
    std::vector<std::string> refs;
    for (int i = 0; i < next_obj; ++i) {
      const std::string i_str = std::to_string(i);
      for (int v = 0; v < 7; ++v) {
        const std::string v_str = std::to_string(v);
        refs.push_back("o" + i_str + "[v->" + v_str + "]");
      }
    }
    ExpectMatchesOracle(*db, rig.applied, refs);
  }
}

}  // namespace
}  // namespace pathlog
