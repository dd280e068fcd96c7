// The benchmark's own tests: the percentile pick and the latency
// reservoir, the host-speed gauge, the timing FileOps decorator, and the
// answer oracles (each must reject a planted wrong answer). Run with
// `python3 perfbench/run.py --selftest`.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "oracles.h"
#include "parser/parser.h"
#include "speed.h"
#include "stats.h"
#include "timing_file_ops.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pathlog::Database;
using pathlog::Oid;
using pathlog::Result;

// ---- percentile pick ----------------------------------------------------

TEST(StatsTest, NearestRankPercentiles) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 90), 90);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Median({7}), 7);
  EXPECT_EQ(Median({}), 0);
}

TEST(StatsTest, SamplesBeyondCountsStrictlyAboveTheRank) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(100, 99), 1u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(109, 90), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
}

TEST(StatsTest, PickTailNeedsTenSamplesBeyond) {
  const std::vector<double> candidates = {50, 90, 95, 99, 99.9};
  EXPECT_EQ(PickTailPercentile(10000, candidates), 99.9);
  EXPECT_EQ(PickTailPercentile(1000, candidates), 99);
  EXPECT_EQ(PickTailPercentile(999, candidates), 95);
  EXPECT_EQ(PickTailPercentile(200, candidates), 95);
  EXPECT_EQ(PickTailPercentile(100, candidates), 90);
  EXPECT_EQ(PickTailPercentile(99, candidates), 50);
  EXPECT_EQ(PickTailPercentile(20, candidates), 50);
  EXPECT_EQ(PickTailPercentile(19, candidates), std::nullopt);
  EXPECT_EQ(PickTailPercentile(0, candidates), std::nullopt);
}

TEST(StatsTest, ReservoirKeepsAUniformSampleOfBoundedSize) {
  Reservoir small(100);
  for (int i = 0; i < 50; ++i) small.Add(i);
  EXPECT_EQ(small.samples().size(), 50u);
  EXPECT_EQ(Median(small.samples()), 24);

  Reservoir r(1000);
  for (int i = 0; i < 100000; ++i) r.Add(i);
  EXPECT_EQ(r.seen(), 100000u);
  ASSERT_EQ(r.samples().size(), 1000u);
  // The sample's quartiles lie near those of the stream.
  EXPECT_NEAR(Percentile(r.samples(), 25), 25000, 4000);
  EXPECT_NEAR(Median(r.samples()), 50000, 4000);
  EXPECT_NEAR(Percentile(r.samples(), 75), 75000, 4000);
}

// ---- the host-speed gauge -------------------------------------------------

TEST(SpeedGaugeTest, SlowdownIsTheMedianOfTheLastProbes) {
  SpeedGauge g;
  EXPECT_EQ(g.slowdown(), 1);
  EXPECT_EQ(g.Slowdown(10), 1);
  for (double x : {1.0, 9.0, 2.0, 2.0, 3.0, 2.0, 100.0}) {
    g.Record(x * SpeedGauge::kNominalS);
  }
  ASSERT_EQ(g.history().size(), 7u);
  EXPECT_DOUBLE_EQ(g.history()[1], 9);
  // The last kWindow = 5 probes are 2, 2, 3, 2, 100: one slow probe
  // does not move the median.
  EXPECT_DOUBLE_EQ(g.slowdown(), 2);
  EXPECT_DOUBLE_EQ(g.Slowdown(3), 3);
  EXPECT_DOUBLE_EQ(g.Slowdown(100), 2);
}

TEST(SpeedGaugeTest, ProbesTimeAFixedPieceOfWork) {
  ReferenceBuffers a, b;
  const uint64_t first = ReferenceWork(&a);
  EXPECT_EQ(ReferenceWork(&a), first);
  EXPECT_EQ(ReferenceWork(&b), first);
  SpeedGauge g;
  g.Probe(3);
  ASSERT_EQ(g.history().size(), 3u);
  for (double s : g.history()) EXPECT_GT(s, 0);
}

// ---- the timing decorator -------------------------------------------------

/// Runs one durable scenario against `fops`: load, materialise,
/// checkpoint halfway, then a WAL tail.
void DurableScenario(pathlog::FileOps* fops) {
  Result<Database> db = Database::Open("/db", {}, fops);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db->Load("a[kids->>{b}]. b[kids->>{c}].").ok());
  ASSERT_TRUE(db->Load("X[desc->>{Y}] <- X[kids->>{Y}].\n"
                       "X[desc->>{Y}] <- X..desc[kids->>{Y}].")
                  .ok());
  ASSERT_TRUE(db->Materialize().ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->Load("c[kids->>{d}].").ok());
  ASSERT_TRUE(db->Materialize().ok());
}

TEST(TimingFileOpsTest, PassesFilesThroughByteIdentical) {
  pathlog::FaultInjectingFileOps plain, wrapped_base;
  SpanRecorder recorder;
  TimingFileOps timing(&wrapped_base, &recorder);
  DurableScenario(&plain);
  DurableScenario(&timing);
  for (const char* path : {"/db/wal.plgwal", "/db/snapshot.plgdb"}) {
    Result<std::string> want = plain.ReadFile(path);
    Result<std::string> got = timing.ReadFile(path);
    ASSERT_TRUE(want.ok() && got.ok()) << path;
    EXPECT_FALSE(want->empty()) << path;
    EXPECT_EQ(*got, *want) << path;
  }
  // Recovery through the decorator reads what the plain scenario wrote.
  Result<Database> reopened = Database::Open("/db", {}, &timing);
  ASSERT_TRUE(reopened.ok());
  Result<bool> holds = reopened->Holds("a[desc->>{d}]");
  ASSERT_TRUE(holds.ok());
  EXPECT_TRUE(*holds);
}

TEST(TimingFileOpsTest, CountsAndTimesEachFileClass) {
  pathlog::FaultInjectingFileOps base;
  SpanRecorder recorder;
  TimingFileOps timing(&base, &recorder);
  DurableScenario(&timing);
  const FileOpStats& wal_appends =
      timing.stats(FileClass::kWal, FileOp::kAppend);
  const FileOpStats& wal_syncs = timing.stats(FileClass::kWal, FileOp::kSync);
  const FileOpStats& snap_appends =
      timing.stats(FileClass::kSnapshot, FileOp::kAppend);
  const FileOpStats& snap_renames =
      timing.stats(FileClass::kSnapshot, FileOp::kRename);
  EXPECT_GT(wal_appends.count, 0u);
  EXPECT_GT(wal_appends.bytes, 0u);
  EXPECT_EQ(wal_syncs.samples.size(), wal_syncs.count);
  EXPECT_GT(wal_syncs.count, 0u);
  EXPECT_EQ(snap_renames.count, 1u);
  Result<std::string> snapshot = base.ReadFile("/db/snapshot.plgdb");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snap_appends.bytes, snapshot->size());
  // Every timed call but an append is a span.
  size_t file_spans = 0;
  for (const Span& s : recorder.spans()) {
    if (s.name.rfind("file.", 0) == 0) ++file_spans;
  }
  uint64_t timed = 0;
  for (FileClass c :
       {FileClass::kWal, FileClass::kSnapshot, FileClass::kOther}) {
    for (FileOp op : {FileOp::kSync, FileOp::kRename, FileOp::kRead}) {
      timed += timing.stats(c, op).count;
    }
  }
  EXPECT_EQ(file_spans, timed);
  EXPECT_GT(timing.Seconds(), 0);
  EXPECT_GE(timing.Seconds(), timing.Seconds(FileClass::kWal));
}

TEST(TimingFileOpsTest, ClassifiesByFileName) {
  EXPECT_EQ(ClassifyPath("/x/wal.plgwal"), FileClass::kWal);
  EXPECT_EQ(ClassifyPath("/x/wal.plgwal.tmp"), FileClass::kWal);
  EXPECT_EQ(ClassifyPath("/x/snapshot.plgdb"), FileClass::kSnapshot);
  EXPECT_EQ(ClassifyPath("snapshot.plgdb.tmp"), FileClass::kSnapshot);
  EXPECT_EQ(ClassifyPath("/x/flightrec-1.trace.json"), FileClass::kOther);
}

TEST(RecorderTest, SelfTimeExcludesChildren) {
  SpanRecorder r;
  int parent, child;
  {
    SpanRecorder::Scope p(&r, "parent", r.NewCause());
    parent = p.id();
    SpanRecorder::Scope c(&r, "child");
    child = c.id();
  }
  EXPECT_EQ(r.spans()[child].parent, parent);
  EXPECT_EQ(r.spans()[child].cause, r.spans()[parent].cause);
  EXPECT_NEAR(r.SelfSeconds(parent), r.Seconds(parent) - r.Seconds(child),
              1e-12);
  r.set_enabled(false);
  EXPECT_EQ(r.Begin("ignored"), -1);
}

// ---- oracles ----------------------------------------------------------------

TEST(OracleTest, DagOracleIsReachability) {
  DagOracle g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_EQ(g.Descendants(0), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(g.Ancestors(2), (std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE(g.Reaches(0, 2));
  EXPECT_FALSE(g.Reaches(2, 0));
  EXPECT_FALSE(g.Reaches(0, 3));
  EXPECT_TRUE(ExpectSameNames({"d2", "d1"}, {"d1", "d2"}, "x").ok());
  EXPECT_FALSE(ExpectSameNames({"d1"}, {"d1", "d2"}, "x").ok());
  EXPECT_FALSE(ExpectSameBool(true, false, "x").ok());
}

/// Loads a workload's inputs into an in-memory database and
/// materialises it.
Database LoadWorkload(Workload* w) {
  Inputs in = w->Generate();
  Database db;
  EXPECT_TRUE(db.Load(in.facts).ok());
  EXPECT_TRUE(db.Load(in.rules).ok());
  EXPECT_TRUE(db.Materialize().ok());
  EXPECT_TRUE(db.FireTriggers().ok());
  return db;
}

ReadAnswer Answer(Database* db, const ReadOp& op) {
  ReadAnswer a;
  switch (op.kind) {
    case ReadKind::kQuery: a.rows = *db->Query(op.text); break;
    case ReadKind::kEval: a.objects = *db->Eval(op.text); break;
    case ReadKind::kHolds: a.holds = *db->Holds(op.text); break;
  }
  return a;
}

/// Plants a wrong answer: a flipped truth value, or one answer dropped
/// (or, for an empty answer, one bogus answer added).
ReadAnswer Plant(const ReadOp& op, ReadAnswer a) {
  const Oid bogus = 0;
  switch (op.kind) {
    case ReadKind::kHolds: a.holds = !a.holds; break;
    case ReadKind::kEval:
      if (a.objects.empty()) a.objects.push_back(bogus);
      else a.objects.pop_back();
      break;
    case ReadKind::kQuery: {
      pathlog::ResultSet planted(a.rows.vars());
      for (size_t i = 1; i < a.rows.size(); ++i) {
        planted.AddRow(a.rows.rows()[i]);
      }
      if (a.rows.empty()) {
        planted.AddRow(std::vector<Oid>(a.rows.vars().size(), bogus));
      }
      a.rows = planted;
      break;
    }
  }
  return a;
}

/// Every read template of `w` passes its oracle on the database's own
/// answer and fails it on a planted wrong one.
void ExpectOracleRejectsPlanted(const char* name, int reads) {
  std::unique_ptr<Workload> w = MakeWorkload(name, 3);
  ASSERT_NE(w, nullptr);
  Database db = LoadWorkload(w.get());
  // One batch first, so reads about acknowledged updates are covered.
  ASSERT_TRUE(db.Load(w->NextBatch()).ok());
  ASSERT_TRUE(db.Materialize().ok());
  ASSERT_TRUE(db.FireTriggers().ok());
  w->BatchAcknowledged();
  for (int i = 0; i < reads; ++i) {
    ReadOp op = w->NextRead();
    op.check = true;
    ReadAnswer good = Answer(&db, op);
    EXPECT_TRUE(w->Check(op, good, &db).ok()) << op.text;
    pathlog::Status bad = w->Check(op, Plant(op, good), &db);
    EXPECT_FALSE(bad.ok()) << "planted answer accepted for " << op.text;
    EXPECT_NE(bad.message().find("wrong answer"), std::string::npos)
        << bad.ToString();
  }
}

TEST(OracleTest, ClosureRejectsPlantedAnswers) {
  ExpectOracleRejectsPlanted("closure", 8);
}

TEST(OracleTest, ServeRejectsPlantedAnswers) {
  ExpectOracleRejectsPlanted("serve", 12);
}

TEST(OracleTest, IngestRejectsPlantedAnswers) {
  ExpectOracleRejectsPlanted("ingest", 10);
}

TEST(OracleTest, JoinPlanAgreesWithPathLogAndRejectsPlanted) {
  Database db;
  ASSERT_TRUE(db.Load("m1 : manager. manager :: employee. "
                      "e1 : employee[boss->m1]. e2 : employee[boss->m1]. "
                      "e3 : employee[boss->e1].")
                  .ok());
  Result<pathlog::Query> q = pathlog::ParseQuery("?- X:employee[boss->m1].");
  ASSERT_TRUE(q.ok());
  Result<pathlog::ResultSet> rs = db.Query("?- X:employee[boss->m1].");
  ASSERT_TRUE(rs.ok());
  Result<Rows> want = JoinPlanRows(&db.store(), q->body, rs->vars());
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(want->size(), 2u);
  EXPECT_TRUE(ExpectSameRows(rs->rows(), *want, "q").ok());
  Rows planted = rs->rows();
  planted.push_back({*db.store().FindSymbol("e3")});
  EXPECT_FALSE(ExpectSameRows(planted, *want, "q").ok());
}

TEST(OracleTest, RecoveryOracleRejectsMissingPersonsAndFacts) {
  Database db;
  ASSERT_TRUE(db.Load("p1 : person[street->s1; city->c1].\n"
                      "X.address[city->X.city] <- X:person.\n"
                      "X.address[street->S] <- X:person[street->S].")
                  .ok());
  ASSERT_TRUE(db.Materialize().ok());
  const uint64_t facts = db.store().FactCount();
  EXPECT_TRUE(CheckRecovered(&db, {{"p1", "s1", "c1"}}, facts).ok());
  EXPECT_FALSE(CheckRecovered(&db, {{"p1", "s1", "c2"}}, facts).ok());
  EXPECT_FALSE(CheckRecovered(&db, {{"p9", "s1", "c1"}}, facts).ok());
  EXPECT_FALSE(CheckRecovered(&db, {{"p1", "s1", "c1"}}, facts + 1).ok());
}

}  // namespace
}  // namespace perfbench
