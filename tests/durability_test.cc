// Crash-safe durability: WAL framing and scan, snapshot + WAL
// recovery through Database::Open, and the torture test — a scripted
// workload crashed at *every* write-syscall boundary, after which the
// recovered database must answer a reference query set identically to
// a run that never crashed.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/crc32.h"
#include "query/database.h"
#include "store/file_ops.h"
#include "store/wal.h"

namespace pathlog {
namespace {

using FaultKind = FaultInjectingFileOps::FaultKind;

TEST(Crc32Test, KnownVectors) {
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  // Seeding chains incrementally computed checksums.
  EXPECT_EQ(Crc32("456789", Crc32("123")), Crc32("123456789"));
}

std::string FreshWal() { return std::string(kWalMagic, kWalMagicLen); }

TEST(WalTest, EmptyLogScansToNothing) {
  Result<WalScan> scan = ScanWal(FreshWal());
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->records.empty());
  EXPECT_EQ(scan->valid_bytes, kWalMagicLen);
  EXPECT_FALSE(scan->torn);
}

TEST(WalTest, TruncatedMagicIsTornCreation) {
  Result<WalScan> scan = ScanWal("PLGW");
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->torn);
  EXPECT_EQ(scan->valid_bytes, 0u);
}

TEST(WalTest, WrongMagicRejected) {
  EXPECT_EQ(ScanWal("NOTAWAL!").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WalTest, RecordsRoundTrip) {
  std::string wal = FreshWal();
  AppendWalFrame(&wal, EncodeWalIntern(7, ObjectKind::kSymbol, 0, "mary"));
  AppendWalFrame(&wal, EncodeWalIntern(8, ObjectKind::kInt, -42, ""));
  AppendWalFrame(&wal, EncodeWalIntern(9, ObjectKind::kString, 0, "a\"b"));
  Fact f;
  f.kind = FactKind::kScalar;
  f.method = 3;
  f.recv = 7;
  f.args = {8, 9};
  f.value = 8;
  AppendWalFrame(&wal, EncodeWalFact(11, f));
  AppendWalFrame(&wal, EncodeWalProgram("X[a->1] <- X[b->1].\n"));
  AppendWalFrame(&wal, EncodeWalTriggerWatermark(12));

  Result<WalScan> scan = ScanWal(wal);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_FALSE(scan->torn);
  EXPECT_EQ(scan->valid_bytes, wal.size());
  ASSERT_EQ(scan->records.size(), 6u);

  EXPECT_EQ(scan->records[0].type, WalRecordType::kIntern);
  EXPECT_EQ(scan->records[0].oid, 7u);
  EXPECT_EQ(scan->records[0].obj_kind, ObjectKind::kSymbol);
  EXPECT_EQ(scan->records[0].text, "mary");
  EXPECT_EQ(scan->records[1].obj_kind, ObjectKind::kInt);
  EXPECT_EQ(scan->records[1].int_value, -42);
  EXPECT_EQ(scan->records[2].text, "a\"b");
  EXPECT_EQ(scan->records[3].type, WalRecordType::kFact);
  EXPECT_EQ(scan->records[3].gen, 11u);
  EXPECT_EQ(scan->records[3].fact, f);
  EXPECT_EQ(scan->records[4].type, WalRecordType::kProgram);
  EXPECT_EQ(scan->records[4].text, "X[a->1] <- X[b->1].\n");
  EXPECT_EQ(scan->records[5].type, WalRecordType::kTriggerWatermark);
  EXPECT_EQ(scan->records[5].watermark, 12u);
}

TEST(WalTest, TornTailAtEveryCutIsTruncatedNotFatal) {
  std::string wal = FreshWal();
  AppendWalFrame(&wal, EncodeWalIntern(4, ObjectKind::kSymbol, 0, "a"));
  const size_t one_frame = wal.size();
  AppendWalFrame(&wal, EncodeWalIntern(5, ObjectKind::kSymbol, 0, "bb"));

  // Cut anywhere inside the second frame: the scan keeps the first
  // record and reports the cut as a torn tail at the frame boundary.
  for (size_t cut = one_frame; cut < wal.size(); ++cut) {
    Result<WalScan> scan = ScanWal(std::string_view(wal).substr(0, cut));
    ASSERT_TRUE(scan.ok()) << "cut=" << cut << ": " << scan.status();
    EXPECT_EQ(scan->records.size(), 1u) << cut;
    EXPECT_EQ(scan->valid_bytes, one_frame) << cut;
    EXPECT_EQ(scan->torn, cut != one_frame) << cut;
  }
}

TEST(WalTest, BitFlipAtEveryOffsetNeverCrashesTheScan) {
  std::string wal = FreshWal();
  AppendWalFrame(&wal, EncodeWalIntern(4, ObjectKind::kSymbol, 0, "abc"));
  Fact f;
  f.kind = FactKind::kIsa;
  f.method = 1;
  f.recv = 4;
  f.value = 2;
  AppendWalFrame(&wal, EncodeWalFact(0, f));

  for (size_t i = 0; i < wal.size(); ++i) {
    for (uint8_t bit : {0x01, 0x80}) {
      std::string bad = wal;
      bad[i] = static_cast<char>(bad[i] ^ bit);
      Result<WalScan> scan = ScanWal(bad);  // any outcome but a crash
      if (scan.ok()) {
        // A flip the CRC caught truncates; one in the length field may
        // also look torn. Either way the prefix stays well-formed.
        EXPECT_LE(scan->valid_bytes, bad.size()) << i;
      }
    }
  }
}

TEST(WalTest, CrcValidButMalformedPayloadIsCorruption) {
  std::string wal = FreshWal();
  AppendWalFrame(&wal, std::string("\xEE junk type", 12));
  EXPECT_EQ(ScanWal(wal).status().code(), StatusCode::kInvalidArgument);
}

TEST(WalTest, ReplayIsIdempotentOverAnOverlappingStore) {
  ObjectStore store;
  Oid a = store.InternSymbol("a");
  Oid b = store.InternSymbol("b");
  ASSERT_TRUE(store.AddIsa(a, b).ok());

  // Records the store already contains: verified and skipped.
  WalRecord intern;
  intern.type = WalRecordType::kIntern;
  intern.oid = a;
  intern.obj_kind = ObjectKind::kSymbol;
  intern.text = "a";
  EXPECT_TRUE(ApplyWalRecordToStore(intern, &store).ok());

  WalRecord fact;
  fact.type = WalRecordType::kFact;
  fact.gen = 0;
  fact.fact = store.FactAt(0);
  EXPECT_TRUE(ApplyWalRecordToStore(fact, &store).ok());
  EXPECT_EQ(store.generation(), 1u);

  // A mismatching record at an existing position is corruption.
  fact.fact.recv = b;
  EXPECT_EQ(ApplyWalRecordToStore(fact, &store).code(),
            StatusCode::kInvalidArgument);

  // An oid gap is corruption (interns replay densely).
  intern.oid = 99;
  intern.text = "zz";
  EXPECT_EQ(ApplyWalRecordToStore(intern, &store).code(),
            StatusCode::kInvalidArgument);
}

// --- Database::Open ---------------------------------------------------

DatabaseOptions DurableOptions(uint64_t checkpoint_every = 0) {
  DatabaseOptions opts;
  opts.durability.checkpoint_every = checkpoint_every;
  return opts;
}

TEST(DurableDatabaseTest, MutationsSurviveReopen) {
  FaultInjectingFileOps fs;
  {
    Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_TRUE(db->durable());
    ASSERT_TRUE(db->Load(R"(
      person[age => integer].
      ann : person[age->33; kids->>{bob}].
      X[desc->>{Y}] <- X[kids->>{Y}].
      X[desc->>{Z}] <- X[kids->>{Y}], Y[desc->>{Z}].
    )").ok());
    ASSERT_TRUE(db->Materialize().ok());
  }  // no snapshot, no explicit close: the WAL alone must recover this

  Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
  ASSERT_TRUE(db.ok()) << db.status();
  Result<bool> holds = db->Holds("ann[desc->>{bob}]");
  ASSERT_TRUE(holds.ok()) << holds.status();
  EXPECT_TRUE(*holds);
  EXPECT_EQ(db->num_rules(), 2u);
  // Rules replay as live rules, not just facts.
  ASSERT_TRUE(db->Load("bob[kids->>{cleo}].").ok());
  Result<bool> deep = db->Holds("ann[desc->>{cleo}]");
  ASSERT_TRUE(deep.ok());
  EXPECT_TRUE(*deep);
  // Signatures replay too.
  ASSERT_TRUE(db->Load("dan : person[age->old].").ok());
  std::vector<TypeViolation> v;
  ASSERT_TRUE(db->TypeCheck(&v).ok());
  EXPECT_EQ(v.size(), 1u);
}

TEST(DurableDatabaseTest, WalReplayRebuildsMethodStatistics) {
  // The planner's per-method statistics are maintained incrementally
  // by the store mutators and never logged; WAL recovery replays the
  // mutators, so a recovered database must reproduce them exactly —
  // counters, heavy-hitter lists, and generation stamps alike.
  FaultInjectingFileOps fs;
  std::string program = "hub[site->metro].\n";
  for (int i = 0; i < 30; ++i) {
    const std::string i_str = std::to_string(i);
    program += "m" + i_str + "[city->metro].\n";
    program += "m" + i_str + "[likes->>{metro}].\n";
  }
  program += "outlier[city->village].\noutlier[likes->>{village}].\n";

  std::vector<std::pair<Oid, MethodStats>> scalar_stats, set_stats;
  {
    Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->Load(program).ok());
    for (Oid m : db->store().ScalarMethods()) {
      scalar_stats.emplace_back(m, db->store().ScalarValueStats(m));
    }
    for (Oid m : db->store().SetMethods()) {
      set_stats.emplace_back(m, db->store().SetMemberStats(m));
    }
  }  // no snapshot: recovery is pure WAL replay

  Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
  ASSERT_TRUE(db.ok()) << db.status();
  for (const auto& [m, stats] : scalar_stats) {
    EXPECT_TRUE(db->store().ScalarValueStats(m) == stats)
        << "scalar stats diverge for " << db->store().DisplayName(m);
  }
  for (const auto& [m, stats] : set_stats) {
    EXPECT_TRUE(db->store().SetMemberStats(m) == stats)
        << "set stats diverge for " << db->store().DisplayName(m);
  }
  // The skew is really there: the recovered planner ranks the hot
  // bucket above the average (31 entries / 2 values would say ~15).
  std::optional<Oid> city = db->store().FindSymbol("city");
  ASSERT_TRUE(city.has_value());
  EXPECT_DOUBLE_EQ(SkewAwareBucketEstimate(db->store().ScalarValueStats(*city)),
                   30.0);
}

TEST(DurableDatabaseTest, QueryTimeInterningIsLogged) {
  // A query can grow the universe (it interns names no fact mentions);
  // recovery replays oids densely, so that growth must hit the WAL or
  // the next commit's intern records would arrive with a gap.
  FaultInjectingFileOps fs;
  {
    Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->Load("a[m->1].").ok());
    Result<bool> h = db->Holds("zebra[never->asserted]");
    ASSERT_TRUE(h.ok());
    EXPECT_FALSE(*h);
    ASSERT_TRUE(db->Load("zebra[m->2].").ok());
  }
  Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
  ASSERT_TRUE(db.ok()) << db.status();
  Result<bool> h = db->Holds("zebra[m->2]");
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(*h);
}

TEST(DurableDatabaseTest, CheckpointResetsTheWalAndStateSurvives) {
  FaultInjectingFileOps fs;
  {
    Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->Load("mary[age->30]. mary[kids->>{ann, bob}].").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    Result<std::string> wal = fs.ReadFile("/db/wal.plgwal");
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(*wal, FreshWal());
    ASSERT_TRUE(db->Load("bob[age->4].").ok());
  }
  Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
  ASSERT_TRUE(db.ok()) << db.status();
  for (const char* q : {"mary[age->30]", "mary[kids->>{ann}]",
                        "bob[age->4]"}) {
    Result<bool> h = db->Holds(q);
    ASSERT_TRUE(h.ok()) << q;
    EXPECT_TRUE(*h) << q;
  }
}

TEST(DurableDatabaseTest, AutoCheckpointTriggersByRecordCount) {
  FaultInjectingFileOps fs;
  Result<Database> db = Database::Open("/db", DurableOptions(4), &fs);
  ASSERT_TRUE(db.ok()) << db.status();
  for (int i = 0; i < 10; ++i) {
    const std::string i_str = std::to_string(i);
    ASSERT_TRUE(db->Load("p" + i_str + "[v->" + i_str + "].").ok());
  }
  // Enough commits ran that at least one auto-checkpoint must have
  // fired: the WAL holds fewer records than the workload produced.
  Result<std::string> wal = fs.ReadFile("/db/wal.plgwal");
  ASSERT_TRUE(wal.ok());
  Result<WalScan> scan = ScanWal(*wal);
  ASSERT_TRUE(scan.ok());
  EXPECT_LT(scan->records.size(), 20u);
  Result<std::string> snap = fs.ReadFile("/db/snapshot.plgdb");
  EXPECT_TRUE(snap.ok()) << "auto-checkpoint never wrote a snapshot";
}

TEST(DurableDatabaseTest, WalWriteErrorLatchesUntilCheckpoint) {
  FaultInjectingFileOps fs;
  Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->Load("a[m->1].").ok());

  fs.ArmFault(FaultKind::kFail, 1);
  // The legacy armed fault reports kInternal — a persistent failure,
  // so the database degrades to read-only immediately (no retries).
  EXPECT_FALSE(db->Load("b[m->2].").ok());
  EXPECT_TRUE(db->degraded());
  // While degraded, mutations fail fast with kUnavailable *before*
  // touching the store: c never lands, even in memory.
  Status c_st = db->Load("c[m->3].");
  EXPECT_EQ(c_st.code(), StatusCode::kUnavailable) << c_st.ToString();
  // Queries keep serving the last consistent state.
  Result<bool> a_holds = db->Holds("a[m->1]");
  ASSERT_TRUE(a_holds.ok());
  EXPECT_TRUE(*a_holds);
  // ...until a checkpoint rebuilds the log from scratch and restores
  // read-write service.
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_FALSE(db->degraded());
  EXPECT_TRUE(db->Load("d[m->4].").ok());
  EXPECT_EQ(db->Health().degraded_entries, 1u);

  Result<Database> reopened = Database::Open("/db", DurableOptions(), &fs);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // b reached the store before its commit failed; the checkpoint
  // persisted the store wholesale, so it survives. c was rejected by
  // the degraded gate and must NOT resurface.
  for (const char* q : {"a[m->1]", "b[m->2]", "d[m->4]"}) {
    Result<bool> h = reopened->Holds(q);
    ASSERT_TRUE(h.ok()) << q;
    EXPECT_TRUE(*h) << q;
  }
  Result<bool> c_holds = reopened->Holds("c[m->3]");
  ASSERT_TRUE(c_holds.ok());
  EXPECT_FALSE(*c_holds);
}

TEST(DurableDatabaseTest, CorruptWalIsReportedNotReplayed) {
  FaultInjectingFileOps fs;
  {
    Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->Load("a[m->1].").ok());
  }
  // Flip a byte mid-log *and* fix nothing: the CRC stops the scan at
  // the flip (torn tail), so recovery still succeeds with a prefix.
  Result<std::string> wal = fs.ReadFile("/db/wal.plgwal");
  ASSERT_TRUE(wal.ok());
  std::string bad = *wal;
  bad[bad.size() - 3] ^= 0x40;
  ASSERT_TRUE(fs.Truncate("/db/wal.plgwal", 0).ok());
  {
    Result<std::unique_ptr<FileOps::WritableFile>> f =
        fs.OpenForWrite("/db/wal.plgwal", true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(bad).ok());
    ASSERT_TRUE((*f)->Sync().ok());
  }
  Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
  ASSERT_TRUE(db.ok()) << db.status();  // prefix recovery, not failure
}

// --- The torture test -------------------------------------------------

/// One step of the scripted workload. Every step must be idempotent
/// under re-application (facts dedupe, rules dedupe by printed form),
/// because recovery re-runs the failed step and everything after it.
struct TortureStep {
  enum Kind { kLoad, kQuery, kFire, kCheckpoint } kind;
  std::string text;
};

std::vector<TortureStep> TortureWorkload() {
  return {
      {TortureStep::kLoad, R"(
        emp[salary => integer].
        mary : emp[salary->50; dept->cs; kids->>{ann}].
        john : emp[salary->60; dept->cs].
        X[colleagues->>{Y}] <- X[dept->D], Y:emp[dept->D].
      )"},
      {TortureStep::kQuery, "?- mary[colleagues->>{X}]."},
      {TortureStep::kLoad, "sue : emp[salary->70; dept->ee]."},
      {TortureStep::kLoad,
       "audit[saw->>{X}] <~ X:emp[salary->S], S.geq@(60)."},
      {TortureStep::kFire, ""},
      {TortureStep::kCheckpoint, ""},
      {TortureStep::kLoad, "bob : emp[salary->80; dept->ee].\n"
                           "X.boss[dept->D] <- X:emp[dept->D]."},
      {TortureStep::kFire, ""},
      {TortureStep::kQuery, "?- X:emp[salary->S]."},
      {TortureStep::kLoad, "ann : emp[salary->90; dept->cs]."},
  };
}

const char* const kReferenceQueries[] = {
    "?- X:emp[salary->S].",
    "?- mary[colleagues->>{X}].",
    "?- audit[saw->>{X}].",
    "?- X.boss[dept->D].",
    "?- mary[kids->>{K}].",
};

Status RunStep(Database* db, const TortureStep& step) {
  switch (step.kind) {
    case TortureStep::kLoad:
      return db->Load(step.text);
    case TortureStep::kQuery:
      return db->Query(step.text).status();
    case TortureStep::kFire:
      return db->FireTriggers();
    case TortureStep::kCheckpoint:
      return db->Checkpoint();
  }
  return Status::OK();
}

/// Answers to the reference queries, rendered with display names so
/// two databases with different oid assignments compare equal.
std::vector<std::string> ReferenceAnswers(Database* db) {
  std::vector<std::string> out;
  for (const char* q : kReferenceQueries) {
    Result<ResultSet> rs = db->Query(q);
    EXPECT_TRUE(rs.ok()) << q << ": " << rs.status();
    out.push_back(rs.ok() ? rs->ToString(db->store()) : "<error>");
  }
  return out;
}

TEST(DurabilityTortureTest, CrashAtEveryWriteBoundaryRecoversExactly) {
  const std::vector<TortureStep> steps = TortureWorkload();
  // checkpoint_every exercises the checkpoint crash window mid-run.
  const DatabaseOptions opts = DurableOptions(/*checkpoint_every=*/6);

  // Un-faulted reference run: learn the write-op count and the answers.
  std::vector<std::string> expected;
  uint64_t total_ops = 0;
  {
    FaultInjectingFileOps fs;
    Result<Database> db = Database::Open("/db", opts, &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    for (const TortureStep& step : steps) {
      ASSERT_TRUE(RunStep(&*db, step).ok());
    }
    expected = ReferenceAnswers(&*db);
    total_ops = fs.WriteOpCount();
  }
  ASSERT_GT(total_ops, 20u);

  for (uint64_t nth = 1; nth <= total_ops; ++nth) {
    SCOPED_TRACE("crash at write op " + std::to_string(nth));
    FaultInjectingFileOps fs;
    fs.ArmFault(FaultKind::kCrash, nth);

    // The workload driver: on a crash, "restart the process" — drop
    // the Database, tear the unsynced tails, reopen, and re-apply the
    // failed step and everything after it. Steps are idempotent, so
    // re-application after a partially persisted commit is safe.
    std::optional<Database> db;
    auto reopen = [&]() {
      for (int attempt = 0; attempt < 3; ++attempt) {
        Result<Database> opened = Database::Open("/db", opts, &fs);
        if (opened.ok()) {
          db.emplace(std::move(*opened));
          return true;
        }
        if (!fs.crashed()) {
          ADD_FAILURE() << "recovery failed: " << opened.status();
          return false;
        }
        fs.RecoverAfterCrash();  // crash landed inside recovery itself
      }
      ADD_FAILURE() << "recovery never converged";
      return false;
    };
    ASSERT_TRUE(reopen());

    size_t i = 0;
    while (i < steps.size()) {
      Status st = RunStep(&*db, steps[i]);
      if (st.ok()) {
        ++i;
        continue;
      }
      ASSERT_TRUE(fs.crashed()) << "non-crash failure at step " << i
                                << ": " << st.ToString();
      db.reset();
      fs.RecoverAfterCrash();
      ASSERT_TRUE(reopen());
      // Re-apply the failed step: the crash may have persisted any
      // prefix of it, including all of it.
    }
    // If the crash never fired (this run took fewer ops than the
    // reference), don't let it land inside the verification queries.
    fs.ArmFault(FaultKind::kNone, 0);
    EXPECT_EQ(ReferenceAnswers(&*db), expected);

    // And the final state must survive one more clean reopen.
    db.reset();
    Result<Database> final_db = Database::Open("/db", opts, &fs);
    ASSERT_TRUE(final_db.ok()) << final_db.status();
    EXPECT_EQ(ReferenceAnswers(&*final_db), expected);
  }
}

TEST(DurabilityTortureTest, ShortWriteAtEveryBoundaryIsRecoverable) {
  const std::vector<TortureStep> steps = TortureWorkload();
  const DatabaseOptions opts = DurableOptions();

  std::vector<std::string> expected;
  uint64_t total_ops = 0;
  {
    FaultInjectingFileOps fs;
    Result<Database> db = Database::Open("/db", opts, &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    for (const TortureStep& step : steps) {
      ASSERT_TRUE(RunStep(&*db, step).ok());
    }
    expected = ReferenceAnswers(&*db);
    total_ops = fs.WriteOpCount();
  }

  for (uint64_t nth = 1; nth <= total_ops; ++nth) {
    SCOPED_TRACE("short write at op " + std::to_string(nth));
    FaultInjectingFileOps fs;
    fs.ArmFault(FaultKind::kShortWrite, nth);
    Result<Database> db = Database::Open("/db", opts, &fs);
    if (!db.ok()) {
      // The fault hit recovery's own writes; with no crash the fs
      // keeps working, so a second open must succeed.
      db = Database::Open("/db", opts, &fs);
      ASSERT_TRUE(db.ok()) << db.status();
    }
    size_t i = 0;
    while (i < steps.size()) {
      Status st = RunStep(&*db, steps[i]);
      if (st.ok()) {
        ++i;
        continue;
      }
      // A short write latches the WAL; Checkpoint is the documented
      // way back. The store kept the step's effects, so continue with
      // the next step after the rebuild.
      ASSERT_TRUE(db->Checkpoint().ok()) << "at step " << i;
      ++i;
    }
    fs.ArmFault(FaultKind::kNone, 0);
    EXPECT_EQ(ReferenceAnswers(&*db), expected);
  }
}

TEST(DurableDatabaseTest, FsyncNeverLosesOnlyTheUnsyncedTail) {
  FaultInjectingFileOps fs;
  DatabaseOptions opts;
  opts.durability.fsync_policy = DurabilityOptions::FsyncPolicy::kNever;
  {
    Result<Database> db = Database::Open("/db", opts, &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->Load("a[m->1]. b[m->2]. c[m->3].").ok());
  }
  // Simulate a crash with nothing armed: every unsynced byte is at the
  // OS's mercy and half of each tail is torn away.
  fs.ArmFault(FaultKind::kCrash, 1);
  (void)fs.Remove("/nonexistent");  // any write op fires the crash
  ASSERT_TRUE(fs.crashed());
  fs.RecoverAfterCrash();

  // Recovery must still succeed — on whatever prefix reached "disk".
  Result<Database> db = Database::Open("/db", opts, &fs);
  ASSERT_TRUE(db.ok()) << db.status();
}

TEST(DurableDatabaseTest, StaleTempFilesAreSweptOnOpen) {
  // A crash between writing snapshot.plgdb.tmp and renaming it leaves
  // the temp file behind. Open must sweep every *.tmp in the database
  // directory — and nothing else.
  FaultInjectingFileOps fs;
  {
    Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->Load("a[m->1].").ok());
  }
  for (const char* path : {"/db/snapshot.plgdb.tmp", "/db/other.tmp"}) {
    Result<std::unique_ptr<FileOps::WritableFile>> f =
        fs.OpenForWrite(path, /*truncate=*/true);
    ASSERT_TRUE(f.ok()) << f.status();
    ASSERT_TRUE((*f)->Append("stale garbage").ok());
    ASSERT_TRUE((*f)->Sync().ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  {
    Result<std::unique_ptr<FileOps::WritableFile>> f =
        fs.OpenForWrite("/db/keep.dat", /*truncate=*/true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("not a temp file").ok());
    ASSERT_TRUE((*f)->Close().ok());
  }

  Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_FALSE(fs.Exists("/db/snapshot.plgdb.tmp"));
  EXPECT_FALSE(fs.Exists("/db/other.tmp"));
  EXPECT_TRUE(fs.Exists("/db/keep.dat")) << "the sweep is *.tmp only";
  Result<bool> holds = db->Holds("a[m->1]");
  ASSERT_TRUE(holds.ok());
  EXPECT_TRUE(*holds);
}

TEST(DurableDatabaseTest, TriggerDeadlineLeavesARecoverableConsistentState) {
  // A wall deadline lapses mid-trigger-cascade in a durable session.
  // The failed round must not advance the watermark past anything
  // uncommitted: after a reopen (deadline-free), re-firing completes
  // to exactly the state a never-interrupted run reaches.
  FaultInjectingFileOps fs;
  constexpr std::string_view kCascade = R"(
    X[lvl2->1] <~ X[lvl1->1].
    X[lvl3->1] <~ X[lvl2->1].
    X[lvl4->1] <~ X[lvl3->1].
    seed[lvl1->1].
  )";
  {
    uint64_t now = 0;
    DatabaseOptions opts = DurableOptions();
    opts.engine.limits.max_wall_ms = 50;
    opts.engine.limits.clock = [&now] {
      now += 30;
      return now;
    };
    Result<Database> db = Database::Open("/db", opts, &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->Load(std::string(kCascade)).ok());
    Status st = db->FireTriggers();
    ASSERT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st;
    EXPECT_NE(st.message().find("during trigger round"), std::string::npos)
        << st;
  }

  Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->FireTriggers().ok());

  Database oracle;
  ASSERT_TRUE(oracle.Load(std::string(kCascade)).ok());
  ASSERT_TRUE(oracle.FireTriggers().ok());
  EXPECT_EQ(db->store().FactCount(), oracle.store().FactCount());
  for (const char* ref : {"seed[lvl2->1]", "seed[lvl3->1]",
                          "seed[lvl4->1]"}) {
    Result<bool> got = db->Holds(ref);
    ASSERT_TRUE(got.ok()) << ref;
    EXPECT_TRUE(*got) << ref;
  }
}

}  // namespace
}  // namespace pathlog
