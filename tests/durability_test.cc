// Crash-safe durability: WAL framing and scan, snapshot + WAL
// recovery through Database::Open, the durable materialisation flag,
// and the torture test — a scripted workload crashed at *every*
// write-syscall boundary, after which the recovered database must
// answer a reference query set identically to a run that never
// crashed, and be at its fixpoint if it reopened clean.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "base/coding.h"
#include "base/crc32.h"
#include "obs/metrics.h"
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

/// The CRC one bit at a time, straight from the reflected polynomial:
/// the reference the table-driven implementation must reproduce.
uint32_t BitwiseCrc32(std::string_view bytes, uint32_t seed) {
  uint32_t c = ~seed;
  for (char ch : bytes) {
    c ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

TEST(Crc32Test, MatchesTheBitwiseReferenceAtEveryLengthAlignmentAndSeed) {
  std::mt19937 rng(20260418);
  std::string buffer(4096 + 16, '\0');
  for (char& ch : buffer) ch = static_cast<char>(rng());
  for (size_t len = 0; len <= 64; ++len) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const std::string_view bytes(buffer.data() + offset, len);
      const uint32_t seed = rng();
      ASSERT_EQ(Crc32(bytes, seed), BitwiseCrc32(bytes, seed))
          << "len=" << len << " offset=" << offset;
      ASSERT_EQ(Crc32(bytes), BitwiseCrc32(bytes, 0));
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    const size_t offset = rng() % 16;
    const size_t len = rng() % (buffer.size() - offset + 1);
    const std::string_view bytes(buffer.data() + offset, len);
    const uint32_t seed = trial % 2 == 0 ? 0 : rng();
    ASSERT_EQ(Crc32(bytes, seed), BitwiseCrc32(bytes, seed))
        << "len=" << len << " offset=" << offset;
  }
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
  AppendWalFrame(&wal, EncodeWalMaterialisation(false));
  AppendWalFrame(&wal, EncodeWalMaterialisation(true));

  Result<WalScan> scan = ScanWal(wal);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_FALSE(scan->torn);
  EXPECT_EQ(scan->valid_bytes, wal.size());
  ASSERT_EQ(scan->records.size(), 8u);

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
  EXPECT_EQ(scan->records[6].type, WalRecordType::kMaterialisation);
  EXPECT_FALSE(scan->records[6].materialised);
  EXPECT_EQ(scan->records[7].type, WalRecordType::kMaterialisation);
  EXPECT_TRUE(scan->records[7].materialised);
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

  // A materialisation mark holds 0 or 1.
  std::string mark = EncodeWalMaterialisation(true);
  mark[1] = 2;
  wal = FreshWal();
  AppendWalFrame(&wal, mark);
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

// --- DurableLog, without a Database -------------------------------------

using FaultOp = FaultInjectingFileOps::FaultOp;
using FaultEvent = FaultInjectingFileOps::FaultEvent;

/// A log at /log on an in-memory file system, with backoff sleeps
/// recorded instead of slept. The log's sleep callback holds the rig's
/// address, so a rig is neither copied nor moved.
struct LogRig {
  FaultInjectingFileOps fs;
  std::vector<uint64_t> sleeps;
  std::unique_ptr<DurableLog> log;

  LogRig(const LogRig&) = delete;
  LogRig& operator=(const LogRig&) = delete;
  LogRig() {
    DurabilityOptions options;
    options.backoff_sleep = [this](uint64_t ms) { sleeps.push_back(ms); };
    Result<std::unique_ptr<DurableLog>> opened = DurableLog::Open(
        &fs, "/log", options, [](WalRecord&) { return Status::OK(); });
    EXPECT_TRUE(opened.ok()) << opened.status();
    if (opened.ok()) log = std::move(*opened);
  }

  /// Scripts faults counted from the next write-side op.
  void Inject(std::vector<FaultEvent> events) {
    fs.SetSchedule(FaultInjectingFileOps::FaultSchedule{std::move(events)});
  }

  /// Commits one batch of three program records, "a." "b." "c.".
  Status CommitThree() {
    return log->Commit([](DurableLog::Batch& batch) {
      for (const char* text : {"a.", "b.", "c."}) {
        PATHLOG_RETURN_IF_ERROR(batch.Append(EncodeWalProgram(text)));
      }
      return Status::OK();
    });
  }

  /// The file's length and the texts of its records, in log order.
  uint64_t FileBytes() { return fs.ReadFile("/log").value_or("").size(); }
  std::vector<std::string> Texts() {
    std::vector<std::string> texts;
    Result<WalScan> scan = ScanWal(fs.ReadFile("/log").value_or(""));
    EXPECT_TRUE(scan.ok()) << scan.status();
    if (!scan.ok()) return texts;
    EXPECT_FALSE(scan->torn);
    for (const WalRecord& rec : scan->records) texts.push_back(rec.text);
    return texts;
  }
};

const std::vector<std::string> kThree = {"a.", "b.", "c."};

TEST(DurableLogTest, ARetryWhoseTruncateFailsOnceLandsTheBatchOnce) {
  // The second append tears (half its frame lands) with a transient
  // code, and the first retry's truncate fails too. The second retry
  // cuts the torn bytes away and writes the whole batch again: every
  // record once, and the known-good length is the file's.
  LogRig rig;
  ASSERT_NE(rig.log, nullptr);
  rig.Inject({{FaultOp::kAppend, 2, 1, FaultKind::kShortWrite,
               StatusCode::kUnavailable},
              {FaultOp::kTruncate, 1, 1, FaultKind::kFail,
               StatusCode::kUnavailable}});
  ASSERT_TRUE(rig.CommitThree().ok());
  EXPECT_EQ(rig.sleeps, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(rig.log->retries(), 2u);
  EXPECT_EQ(rig.log->records(), 3u);
  EXPECT_TRUE(rig.log->error().ok());
  EXPECT_EQ(rig.Texts(), kThree);
  EXPECT_EQ(rig.log->good_bytes(), rig.FileBytes());
}

TEST(DurableLogTest, ARetryWhoseReopenFailsOnceLandsTheBatchOnce) {
  // The same, with the first retry's reopen failing after its truncate
  // succeeded: the log has no file open until the second retry.
  LogRig rig;
  ASSERT_NE(rig.log, nullptr);
  rig.Inject({{FaultOp::kAppend, 2, 1, FaultKind::kShortWrite,
               StatusCode::kUnavailable},
              {FaultOp::kOpen, 1, 1, FaultKind::kFail,
               StatusCode::kUnavailable}});
  ASSERT_TRUE(rig.CommitThree().ok());
  EXPECT_EQ(rig.sleeps, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(rig.log->retries(), 2u);
  EXPECT_EQ(rig.log->records(), 3u);
  EXPECT_TRUE(rig.log->error().ok());
  EXPECT_EQ(rig.Texts(), kThree);
  EXPECT_EQ(rig.log->good_bytes(), rig.FileBytes());
}

TEST(DurableLogTest, AFailedResetFailsEveryCommitFastUntilAResetSucceeds) {
  LogRig rig;
  ASSERT_NE(rig.log, nullptr);
  ASSERT_TRUE(rig.CommitThree().ok());
  // The reset's rename fails, with a code a commit would retry: a reset
  // is not retried, and the log it leaves behind is broken.
  rig.Inject({{FaultOp::kRename, 1, 1, FaultKind::kFail,
               StatusCode::kUnavailable}});
  EXPECT_FALSE(rig.log->Reset().ok());
  EXPECT_FALSE(rig.log->error().ok());

  const uint64_t ops = rig.fs.WriteOpCount();
  bool wrote = false;
  Status st = rig.log->Commit([&wrote](DurableLog::Batch&) {
    wrote = true;
    return Status::OK();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(wrote) << "a broken log runs no writer";
  EXPECT_EQ(rig.fs.WriteOpCount(), ops) << "a broken log issues no write";
  EXPECT_TRUE(rig.sleeps.empty());
  EXPECT_EQ(rig.Texts(), kThree) << "the rename never replaced the old log";

  rig.Inject({});
  ASSERT_TRUE(rig.log->Reset().ok());
  EXPECT_TRUE(rig.log->error().ok());
  EXPECT_EQ(rig.log->records(), 0u);
  EXPECT_EQ(rig.log->good_bytes(), kWalMagicLen);
  ASSERT_TRUE(rig.CommitThree().ok());
  EXPECT_EQ(rig.Texts(), kThree);
  EXPECT_EQ(rig.log->good_bytes(), rig.FileBytes());
}

TEST(DurableLogTest, OpenReplaysTheValidPrefixAndCutsTheTornTail) {
  FaultInjectingFileOps fs;
  std::string image(kWalMagic, kWalMagicLen);
  for (const std::string& text : kThree) {
    AppendWalFrame(&image, EncodeWalProgram(text));
  }
  const uint64_t valid = image.size();
  std::string torn;
  AppendWalFrame(&torn, EncodeWalProgram("d."));
  image += torn.substr(0, torn.size() / 2);
  ASSERT_TRUE(WriteFileAtomic(&fs, "/log", image).ok());

  std::vector<std::string> replayed;
  Result<std::unique_ptr<DurableLog>> log = DurableLog::Open(
      &fs, "/log", DurabilityOptions{}, [&replayed](WalRecord& rec) {
        replayed.push_back(rec.text);
        return Status::OK();
      });
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(replayed, kThree);
  EXPECT_EQ((*log)->good_bytes(), valid);
  EXPECT_EQ((*log)->records(), 0u) << "records count commits, not replay";
  EXPECT_EQ(fs.ReadFile("/log").value_or("").size(), valid);

  // A log shorter than its magic is the torn remains of its creation.
  ASSERT_TRUE(WriteFileAtomic(&fs, "/short", "PLG").ok());
  Result<std::unique_ptr<DurableLog>> recreated = DurableLog::Open(
      &fs, "/short", DurabilityOptions{},
      [](WalRecord&) { return Status::OK(); });
  ASSERT_TRUE(recreated.ok()) << recreated.status();
  EXPECT_EQ(fs.ReadFile("/short").value_or(""),
            std::string(kWalMagic, kWalMagicLen));
}

// --- Database::Open ---------------------------------------------------

DatabaseOptions DurableOptions(uint64_t checkpoint_every = 0) {
  DatabaseOptions opts;
  opts.durability.checkpoint_every = checkpoint_every;
  return opts;
}

TEST(DurableDatabaseTest, ClausesBeforeASyntaxErrorSurviveReopen) {
  // A Load that stops at a syntax error commits the clauses before it.
  FaultInjectingFileOps fs;
  {
    Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    Status st = db->Load("a[v->1].\nX[w->1] <- X[v->1].\nb[v->).");
    EXPECT_EQ(st.code(), StatusCode::kParseError);
    EXPECT_NE(st.message().find("line 3"), std::string::npos) << st;
  }
  Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->num_rules(), 1u);
  Result<bool> derived = db->Holds("a[w->1]");
  ASSERT_TRUE(derived.ok()) << derived.status();
  EXPECT_TRUE(*derived);
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
      // A batch of several employees after a materialisation: a crash
      // keeps about half of an unsynced batch, which here holds whole
      // employees, so it checks that the batch's stale mark precedes
      // the facts the rules have not seen.
      {TortureStep::kLoad, "ann : emp[dept->cs; salary->90].\n"
                           "eve : emp[dept->cs; salary->95].\n"
                           "ned : emp[dept->ee; salary->85]."},
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

/// A recovered database whose first read ran no rules has recovered a
/// store it claims is at the rules' fixpoint: an explicit Materialize
/// must then derive nothing. The torture workload keeps that claim
/// checkable because no rule reads the trigger's audit[saw] facts,
/// which FireTriggers adds without dirtying the database (a rule that
/// did would see them only here).
void ExpectCleanReopenIsAFixpoint(Database* db) {
  Result<ResultSet> first = db->Query(kReferenceQueries[0]);
  ASSERT_TRUE(first.ok()) << first.status();
  if (db->engine_stats().iterations != 0) return;  // it reopened dirty
  const uint64_t gen = db->store().generation();
  ASSERT_TRUE(db->Materialize().ok());
  EXPECT_EQ(db->store().generation(), gen)
      << "reopened clean over facts the rules had not seen";
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
      ExpectCleanReopenIsAFixpoint(&*db);
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
    ExpectCleanReopenIsAFixpoint(&*final_db);
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

    // The degraded-and-healed history must reopen to the same state.
    Result<Database> reopened = Database::Open("/db", opts, &fs);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    ExpectCleanReopenIsAFixpoint(&*reopened);
    EXPECT_EQ(ReferenceAnswers(&*reopened), expected);
  }
}

/// One call of the never-healing session: a Load of `text` (a rule, or
/// one fact of its own), a read of `text` (a name no fact uses, which
/// the read interns), a Materialize or an explicit Checkpoint.
struct SessionCall {
  enum Kind { kLoad, kRead, kMaterialize, kCheckpoint } kind;
  std::string text;
};

std::vector<SessionCall> NeverHealingSession() {
  using C = SessionCall;
  return {
      {C::kLoad, "X[w->V] <- X[v->V]."},
      {C::kLoad, "f1[v->1]."},
      {C::kRead, "n1"},
      {C::kLoad, "f2[v->2]."},
      {C::kMaterialize, ""},
      {C::kLoad, "f3[v->3]."},
      {C::kCheckpoint, ""},
      {C::kLoad, "f4[v->4]."},
      {C::kRead, "n2"},
      {C::kLoad, "f5[v->5]."},
      {C::kMaterialize, ""},
      {C::kCheckpoint, ""},
      {C::kLoad, "f6[v->6]."},
      {C::kLoad, "f7[v->7]."},
      {C::kRead, "n3"},
      {C::kMaterialize, ""},
      {C::kLoad, "f8[v->8]."},
  };
}

TEST(DurabilityTortureTest, FailAtEveryWriteOpKeepsEveryAcknowledgedWrite) {
  // A persistent (kInternal) fault at each write-side op of one session
  // — loads, reads that intern, materialisations, explicit checkpoints
  // and checkpoint_every rotations — once, or at that op and every op
  // after it. The session goes on after a failure and checkpoints only
  // where it always does, so nothing but its own checkpoints can heal
  // a broken log. After the fault clears, a reopen must hold every
  // call that returned OK: the fact of each acknowledged Load (and,
  // with the rule acknowledged, the fact it derives), and the name of
  // each read acknowledged by a database that was not degraded (a read
  // served degraded promises only its answer).
  const std::vector<SessionCall> calls = NeverHealingSession();
  const DatabaseOptions opts = DurableOptions(/*checkpoint_every=*/6);
  auto run = [&](Database* db, std::vector<bool>* acked) {
    for (const SessionCall& call : calls) {
      Status st;
      switch (call.kind) {
        case SessionCall::kLoad:
          st = db->Load(call.text);
          break;
        case SessionCall::kRead:
          st = db->Eval(call.text).status();
          // A read served degraded promises only its answer.
          if (db->degraded()) st = Unavailable("served degraded");
          break;
        case SessionCall::kMaterialize:
          st = db->Materialize();
          break;
        case SessionCall::kCheckpoint:
          st = db->Checkpoint();
          break;
      }
      acked->push_back(st.ok());
    }
  };

  uint64_t total_ops = 0;
  {
    FaultInjectingFileOps fs;
    Result<Database> db = Database::Open("/db", opts, &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    MetricsRegistry metrics;
    ObsSinks sinks;
    sinks.metrics = &metrics;
    db->SetObsSinks(sinks);
    const uint64_t open_ops = fs.WriteOpCount();
    std::vector<bool> acked;
    run(&*db, &acked);
    ASSERT_EQ(acked, std::vector<bool>(calls.size(), true));
    EXPECT_GT(metrics.GetCounter("pathlog_checkpoints_total")->value(), 2u)
        << "checkpoint_every checkpoints the session as well";
    total_ops = fs.WriteOpCount() - open_ops;
  }
  ASSERT_GT(total_ops, 40u);

  for (const uint64_t count : {uint64_t{1}, uint64_t{1} << 20}) {
    for (uint64_t nth = 1; nth <= total_ops; ++nth) {
      SCOPED_TRACE(testing::Message() << "fault at write op " << nth
                                      << (count == 1 ? " once" : " on"));
      FaultInjectingFileOps fs;
      std::vector<bool> acked;
      {
        Result<Database> db = Database::Open("/db", opts, &fs);
        ASSERT_TRUE(db.ok()) << db.status();
        FaultInjectingFileOps::FaultSchedule schedule;
        schedule.events.push_back({FaultOp::kAny, nth, count,
                                   FaultKind::kFail, StatusCode::kInternal});
        fs.SetSchedule(schedule);
        run(&*db, &acked);
      }
      fs.SetSchedule({});

      Result<Database> reopened = Database::Open("/db", opts, &fs);
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      for (size_t i = 0; i < calls.size(); ++i) {
        const SessionCall& call = calls[i];
        if (!acked[i]) continue;
        SCOPED_TRACE(testing::Message() << "call " << i << ": " << call.text);
        if (call.kind == SessionCall::kRead) {
          EXPECT_TRUE(reopened->store().FindSymbol(call.text).has_value());
        }
        if (call.kind != SessionCall::kLoad || call.text[0] != 'f') continue;
        const std::string k = call.text.substr(1, 1);
        Result<bool> fact = reopened->Holds("f" + k + "[v->" + k + "]");
        ASSERT_TRUE(fact.ok()) << fact.status();
        EXPECT_TRUE(*fact);
        if (acked[0]) {
          Result<bool> derived = reopened->Holds("f" + k + "[w->" + k + "]");
          ASSERT_TRUE(derived.ok()) << derived.status();
          EXPECT_TRUE(*derived);
        }
      }
      ExpectCleanReopenIsAFixpoint(&*reopened);
    }
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

// --- The durable materialisation flag ----------------------------------
//
// A database reopens with the dirty flag it closed with: its first read
// runs the rules exactly when the closed database's next read would
// have (engine_stats().iterations stays 0 when it runs none).

constexpr std::string_view kKinship = R"(
  ann[kids->>{bob}]. bob[kids->>{cleo}].
  X[desc->>{Y}] <- X[kids->>{Y}].
  X[desc->>{Z}] <- X[kids->>{Y}], Y[desc->>{Z}].
)";

std::string DescAnswers(Database* db) {
  Result<ResultSet> rs = db->Query("?- ann[desc->>{D}].");
  EXPECT_TRUE(rs.ok()) << rs.status();
  return rs.ok() ? rs->ToString(db->store()) : "<error>";
}

TEST(DurableDatabaseTest, ReopenAfterMaterializeRunsNoRules) {
  enum class Route { kWalOnly, kSnapshotOnly, kSnapshotAndWalTail };
  for (Route route :
       {Route::kWalOnly, Route::kSnapshotOnly, Route::kSnapshotAndWalTail}) {
    SCOPED_TRACE("route " + std::to_string(static_cast<int>(route)));
    FaultInjectingFileOps fs;
    std::string before;
    {
      Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
      ASSERT_TRUE(db.ok()) << db.status();
      ASSERT_TRUE(db->Load(kKinship).ok());
      ASSERT_TRUE(db->Materialize().ok());
      if (route != Route::kWalOnly) {
        ASSERT_TRUE(db->Checkpoint().ok());
      }
      if (route == Route::kSnapshotAndWalTail) {
        ASSERT_TRUE(db->Load("cleo[kids->>{dan}].").ok());
        ASSERT_TRUE(db->Materialize().ok());
      }
      before = DescAnswers(&*db);
    }
    Result<std::string> wal = fs.ReadFile("/db/wal.plgwal");
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(*wal == FreshWal(), route == Route::kSnapshotOnly);
    EXPECT_EQ(fs.Exists("/db/snapshot.plgdb"), route != Route::kWalOnly);

    Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_EQ(DescAnswers(&*db), before);
    EXPECT_EQ(db->engine_stats().iterations, 0u) << "the first read ran rules";
  }
}

TEST(DurableDatabaseTest, ReopenWithWorkPendingMaterialisesOnce) {
  FaultInjectingFileOps fs;
  {
    Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->Load(kKinship).ok());
  }  // closed dirty: nothing has run the rules
  Database oracle;
  ASSERT_TRUE(oracle.Load(kKinship).ok());
  {
    Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_EQ(DescAnswers(&*db), DescAnswers(&oracle));
    EXPECT_GT(db->engine_stats().iterations, 0u) << "the first read did not "
                                                    "materialise";
  }
  // That materialisation was logged: the next reopen runs nothing.
  Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(DescAnswers(&*db), DescAnswers(&oracle));
  EXPECT_EQ(db->engine_stats().iterations, 0u);
}

TEST(DurableDatabaseTest, RuleLoadedAfterMaterializeMakesTheReopenMaterialise) {
  FaultInjectingFileOps fs;
  {
    Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->Load("ann[kids->>{bob}]. bob[kids->>{cleo}].\n"
                         "X[desc->>{Y}] <- X[kids->>{Y}].")
                    .ok());
    ASSERT_TRUE(db->Materialize().ok());
    ASSERT_TRUE(
        db->Load("X[desc->>{Z}] <- X[kids->>{Y}], Y[desc->>{Z}].").ok());
  }
  Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
  ASSERT_TRUE(db.ok()) << db.status();
  Result<bool> deep = db->Holds("ann[desc->>{cleo}]");
  ASSERT_TRUE(deep.ok()) << deep.status();
  EXPECT_TRUE(*deep);
  EXPECT_GT(db->engine_stats().iterations, 0u);
}

TEST(DurableDatabaseTest, TriggerFactsAfterMaterializeKeepTheReopenClean) {
  // FireTriggers leaves the flag as it finds it, in memory and on disk,
  // so the reopened database answers as the closed one did. The `seen`
  // rule reads the trigger's facts: neither database has run it since
  // the firing (whether trigger facts should dirty the database is
  // still open; this pins parity, not that choice).
  FaultInjectingFileOps fs;
  constexpr std::string_view kProgram = R"(
    audit[saw->>{X}] <~ X[kids->>{Y}].
    X[seen->yes] <- audit[saw->>{X}].
  )";
  std::vector<std::string> before;
  const char* const kReads[] = {"?- ann[desc->>{D}].", "?- audit[saw->>{X}].",
                                "?- X[seen->yes]."};
  {
    Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->Load(kKinship).ok());
    ASSERT_TRUE(db->Load(kProgram).ok());
    ASSERT_TRUE(db->Materialize().ok());
    ASSERT_TRUE(db->FireTriggers().ok());
    for (const char* q : kReads) {
      Result<ResultSet> rs = db->Query(q);
      ASSERT_TRUE(rs.ok()) << q << ": " << rs.status();
      before.push_back(rs->ToString(db->store()));
    }
  }
  EXPECT_EQ(before[2], ResultSet({"X"}).ToString(ObjectStore()))
      << "the closed database derived from the trigger's facts";
  Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
  ASSERT_TRUE(db.ok()) << db.status();
  for (size_t i = 0; i < before.size(); ++i) {
    Result<ResultSet> rs = db->Query(kReads[i]);
    ASSERT_TRUE(rs.ok()) << kReads[i] << ": " << rs.status();
    EXPECT_EQ(rs->ToString(db->store()), before[i]) << kReads[i];
  }
  EXPECT_EQ(db->engine_stats().iterations, 0u);
}

TEST(DurableDatabaseTest, AFailedLoadNeverReopensClean) {
  // A Load that fails on a later clause keeps what its earlier clauses
  // installed. A read commits those facts; the reopen must still run
  // the rules over them.
  FaultInjectingFileOps fs;
  {
    Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(
        db->Load("a[kids->>{b}]. X[desc->>{Y}] <- X[kids->>{Y}].").ok());
    ASSERT_TRUE(db->Materialize().ok());
    EXPECT_EQ(db->Load("b[kids->>{c}]. d[age->1]. d[age->2].").code(),
              StatusCode::kScalarConflict);
    Result<bool> kept = db->Holds("b[kids->>{c}]");
    ASSERT_TRUE(kept.ok()) << kept.status();
    EXPECT_TRUE(*kept);
  }
  Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
  ASSERT_TRUE(db.ok()) << db.status();
  Result<bool> derived = db->Holds("b[desc->>{c}]");
  ASSERT_TRUE(derived.ok()) << derived.status();
  EXPECT_TRUE(*derived);
}

TEST(DurableDatabaseTest, AClauseRejectedAtLoadNeverReachesTheLog) {
  // Each text's last clause could never run, so its Load rejects it:
  // the log holds the clauses before it and nothing of it, and the
  // database answers, materialises and fires after a WAL replay and
  // after a checkpoint alike.
  struct PoisonLoad {
    const char* text;
    StatusCode code;
    size_t rules;
    size_t triggers;
  };
  const PoisonLoad loads[] = {
      {"a : c. X[p->Y] <- X:c.", StatusCode::kUnsafeRule, 0, 0},
      {"a : c. X[p->Y] <~ X:c.", StatusCode::kUnsafeRule, 0, 0},
      {"a : c. X[c->1] <~ X[m->>Y..n], Y:k.", StatusCode::kUnsafeRule, 0, 0},
      {"a : c. X[p->1] <- X:c, not X[q->1]. X[q->1] <- X:c, not X[p->1].",
       StatusCode::kNotStratifiable, 1, 0},
  };
  for (const PoisonLoad& load : loads) {
    SCOPED_TRACE(load.text);
    FaultInjectingFileOps fs;
    auto check = [&](Database* db) {
      EXPECT_EQ(db->num_rules(), load.rules);
      EXPECT_EQ(db->num_triggers(), load.triggers);
      Result<bool> a = db->Holds("a:c");
      ASSERT_TRUE(a.ok()) << a.status();
      EXPECT_TRUE(*a);
      EXPECT_TRUE(db->Materialize().ok());
      EXPECT_TRUE(db->FireTriggers().ok());
    };
    {
      Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
      ASSERT_TRUE(db.ok()) << db.status();
      Status st = db->Load(load.text);
      EXPECT_EQ(st.code(), load.code) << st;
      check(&*db);
    }
    {
      Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
      ASSERT_TRUE(db.ok()) << db.status();
      check(&*db);
      ASSERT_TRUE(db->Checkpoint().ok());
    }
    Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    check(&*db);
  }
}

TEST(DurableDatabaseTest, ALogHoldingAClauseLoadRejectsDoesNotOpen) {
  // A log written before Load admitted rules may hold one that can
  // never run. Replay loads program text as Load does, so the Open
  // fails with that clause's error instead of recovering a database
  // whose every read fails on it.
  FaultInjectingFileOps fs;
  ASSERT_TRUE(fs.CreateDir("/db").ok());
  std::string wal = FreshWal();
  AppendWalFrame(&wal, EncodeWalProgram("X[p->Y] <- X:c.\n"));
  ASSERT_TRUE(WriteFileAtomic(&fs, "/db/wal.plgwal", wal).ok());
  Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
  EXPECT_EQ(db.status().code(), StatusCode::kUnsafeRule) << db.status();
}

TEST(DurableDatabaseTest, SnapshotFileRoundTripsTheFlag) {
  const std::string path =
      ::testing::TempDir() + "/flag_roundtrip." +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
      ".plgdb";
  Database db;
  ASSERT_TRUE(db.Load(kKinship).ok());
  for (bool materialised : {false, true}) {
    SCOPED_TRACE(materialised ? "saved clean" : "saved dirty");
    if (materialised) {
      ASSERT_TRUE(db.Materialize().ok());
    }
    ASSERT_TRUE(db.SaveSnapshotFile(path).ok());
    Result<Database> restored = Database::LoadSnapshotFile(path);
    ASSERT_TRUE(restored.ok()) << restored.status();
    EXPECT_EQ(DescAnswers(&*restored), DescAnswers(&db));
    EXPECT_EQ(restored->engine_stats().iterations == 0, materialised);
  }
  std::remove(path.c_str());
}

/// The PLGDB002 file an older build wrote for the same database: the
/// PLGDB003 body without its trailing flag byte, re-checksummed.
std::string AsPlgdb002(const std::string& plgdb003) {
  const std::string body = plgdb003.substr(12, plgdb003.size() - 13);
  std::string out = "PLGDB002";
  PutU32(&out, Crc32(body));
  return out + body;
}

/// The WAL an older build wrote: the same frames without the marks.
std::string WithoutMarks(const std::string& wal) {
  std::string out = FreshWal();
  ByteReader r(std::string_view(wal).substr(kWalMagicLen));
  while (r.remaining() > 0) {
    const uint32_t len = r.U32();
    (void)r.U32();  // crc
    const std::string_view payload = r.Bytes(len);
    if (static_cast<uint8_t>(payload[0]) !=
        static_cast<uint8_t>(WalRecordType::kMaterialisation)) {
      AppendWalFrame(&out, payload);
    }
  }
  return out;
}

void ReplaceFile(FaultInjectingFileOps* fs, const std::string& path,
                 const std::string& bytes) {
  Result<std::unique_ptr<FileOps::WritableFile>> f =
      fs->OpenForWrite(path, /*truncate=*/true);
  ASSERT_TRUE(f.ok()) << f.status();
  ASSERT_TRUE((*f)->Append(bytes).ok());
  ASSERT_TRUE((*f)->Sync().ok());
}

TEST(DurableDatabaseTest, FilesWithoutTheFlagOpenDirtyAndAnswerCorrectly) {
  Database oracle;
  ASSERT_TRUE(oracle.Load(kKinship).ok());
  ASSERT_TRUE(oracle.Load("cleo[kids->>{dan}].").ok());
  for (bool with_snapshot : {false, true}) {
    SCOPED_TRACE(with_snapshot ? "PLGDB002 snapshot + unmarked WAL tail"
                               : "unmarked WAL alone");
    FaultInjectingFileOps fs;
    {
      Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
      ASSERT_TRUE(db.ok()) << db.status();
      ASSERT_TRUE(db->Load(kKinship).ok());
      ASSERT_TRUE(db->Materialize().ok());
      if (with_snapshot) {
        ASSERT_TRUE(db->Checkpoint().ok());
      }
      ASSERT_TRUE(db->Load("cleo[kids->>{dan}].").ok());
      ASSERT_TRUE(db->Materialize().ok());
    }  // closed clean, then rewritten as an older build would have
    if (with_snapshot) {
      Result<std::string> snap = fs.ReadFile("/db/snapshot.plgdb");
      ASSERT_TRUE(snap.ok());
      ASSERT_EQ(snap->substr(0, 8), "PLGDB003");
      ReplaceFile(&fs, "/db/snapshot.plgdb", AsPlgdb002(*snap));
    }
    Result<std::string> wal = fs.ReadFile("/db/wal.plgwal");
    ASSERT_TRUE(wal.ok());
    ASSERT_NE(WithoutMarks(*wal), *wal) << "the log held no marks to strip";
    ReplaceFile(&fs, "/db/wal.plgwal", WithoutMarks(*wal));

    Result<Database> db = Database::Open("/db", DurableOptions(), &fs);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_EQ(DescAnswers(&*db), DescAnswers(&oracle));
    EXPECT_GT(db->engine_stats().iterations, 0u) << "opened clean";
  }
}

TEST(DurableDatabaseTest, ACrashInsideAHealingCheckpointNeverRecoversClean) {
  // A checkpoint that heals degraded mode snapshots a store holding a
  // Load the broken log never took, and a crash between the snapshot's
  // rename and the log's reset leaves that log, whose last mark says
  // clean, beside the dirty snapshot. Crash at every write of that
  // checkpoint: the recovered database must never claim a fixpoint it
  // does not have.
  auto degrade = [](FaultInjectingFileOps* fs) -> std::optional<Database> {
    Result<Database> db = Database::Open("/db", DurableOptions(), fs);
    EXPECT_TRUE(db.ok()) << db.status();
    if (!db.ok()) return std::nullopt;
    EXPECT_TRUE(db->Load(kKinship).ok());
    EXPECT_TRUE(db->Materialize().ok());
    fs->ArmFault(FaultKind::kFail, 1);  // the Load's first append
    EXPECT_FALSE(db->Load("cleo[kids->>{dan}].").ok());
    EXPECT_TRUE(db->degraded());
    return std::move(*db);
  };
  uint64_t checkpoint_ops = 0;
  {
    FaultInjectingFileOps fs;
    std::optional<Database> db = degrade(&fs);
    ASSERT_TRUE(db.has_value());
    const uint64_t before = fs.WriteOpCount();
    ASSERT_TRUE(db->Checkpoint().ok());
    checkpoint_ops = fs.WriteOpCount() - before;
  }
  ASSERT_GT(checkpoint_ops, 2u);
  for (uint64_t nth = 1; nth <= checkpoint_ops; ++nth) {
    SCOPED_TRACE("crash at checkpoint write " + std::to_string(nth));
    FaultInjectingFileOps fs;
    std::optional<Database> db = degrade(&fs);
    ASSERT_TRUE(db.has_value());
    fs.ArmFault(FaultKind::kCrash, nth);
    EXPECT_FALSE(db->Checkpoint().ok());
    db.reset();
    fs.RecoverAfterCrash();
    Result<Database> recovered = Database::Open("/db", DurableOptions(), &fs);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    ExpectCleanReopenIsAFixpoint(&*recovered);
  }
}

}  // namespace
}  // namespace pathlog
