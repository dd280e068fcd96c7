// Resource governance: the budget window's unit contract (dimension
// ordering, cancellation, injectable clock, one rejection per window)
// and its end-to-end behaviour through Database — a memory-budgeted
// runaway recursion must come back as kResourceExhausted naming the
// byte dimension with stratum/rule context, never as a bare deadline,
// and one call is one window: a read's record carries the spend and
// the rejection of its lazy materialisation.

#include "base/budget.h"

#include <gtest/gtest.h>

#include <string>

#include "eval/engine.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "query/database.h"
#include "store/object_store.h"

namespace pathlog {
namespace {

// The never-terminating program from engine_test: every object gets a
// fresh virtual successor carrying the same property.
constexpr std::string_view kRunaway = R"(
  z[count->1].
  X.succ[count->1] <- X[count->1].
)";

/// A store with a few facts, for the store dimensions.
ObjectStore SmallStore() {
  ObjectStore store;
  const Oid m = store.InternSymbol("m");
  for (int i = 0; i < 4; ++i) {
    std::string name = "o";
    name += std::to_string(i);
    const Oid o = store.InternSymbol(name);
    EXPECT_TRUE(store.SetScalar(m, o, {}, store.InternInt(i)).ok());
  }
  return store;
}

uint64_t Rejections(MetricsRegistry& reg) {
  return reg.GetCounter("pathlog_budget_rejections_total")->value();
}

TEST(BudgetTest, DefaultBudgetIsUnlimited) {
  ResourceLimits limits;
  uint64_t clock_reads = 0;
  limits.clock = [&clock_reads] { return ++clock_reads; };
  ResourceBudget b(limits);
  b.ChargeDerivations(1'000'000);
  ObjectStore store = SmallStore();
  EXPECT_TRUE(b.Check(store).ok());
  EXPECT_TRUE(b.CheckControl().ok());
  EXPECT_FALSE(b.rejected());
  EXPECT_EQ(clock_reads, 0u) << "the default window reads no clock";
}

TEST(BudgetTest, CancelTokenCopiesShareState) {
  CancelToken a;
  CancelToken b = a;  // copy, not a fresh flag
  EXPECT_FALSE(b.cancelled());
  a.Cancel();
  EXPECT_TRUE(b.cancelled());
  b.Reset();
  EXPECT_FALSE(a.cancelled());
}

TEST(BudgetTest, CancellationOutranksEveryDimension) {
  ResourceLimits limits{.max_store_bytes = 1,
                        .max_derivations = 1,
                        .max_facts = 1,
                        .max_objects = 1,
                        .max_wall_ms = 1};
  limits.token.Cancel();
  ResourceBudget b(limits);
  b.ChargeDerivations(10);
  EXPECT_EQ(b.Check(SmallStore()).code(), StatusCode::kCancelled);
  EXPECT_EQ(b.CheckControl().code(), StatusCode::kCancelled);
}

TEST(BudgetTest, BytesDimensionTripsAsResourceExhausted) {
  ObjectStore store = SmallStore();
  ResourceLimits limits{.max_store_bytes = store.ApproxBytes()};
  // At the limit is within budget.
  EXPECT_TRUE(ResourceBudget(limits).Check(store).ok());
  limits.max_store_bytes -= 1;
  ResourceBudget b(limits);
  Status st = b.Check(store);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("bytes dimension"), std::string::npos) << st;
}

TEST(BudgetTest, DerivationsDimensionTripsAsResourceExhausted) {
  const ResourceLimits limits{.max_derivations = 4};
  ResourceBudget b(limits);
  ObjectStore store;
  b.ChargeDerivations(4);
  EXPECT_TRUE(b.Check(store).ok());
  b.ChargeDerivations();
  Status st = b.Check(store);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("derivations dimension"), std::string::npos)
      << st;
}

TEST(BudgetTest, FactAndObjectDimensionsTripAsResourceExhausted) {
  // The ceilings that stop object-inventing runaways, in the engine and
  // in trigger cascades alike.
  ObjectStore store = SmallStore();
  ResourceLimits facts{.max_facts = store.FactCount()};
  EXPECT_TRUE(ResourceBudget(facts).Check(store).ok());
  facts.max_facts -= 1;
  Status st = ResourceBudget(facts).Check(store);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("facts dimension"), std::string::npos) << st;

  const ResourceLimits objects{.max_objects = store.UniverseSize() - 1};
  st = ResourceBudget(objects).Check(store);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("objects dimension"), std::string::npos) << st;
}

TEST(BudgetTest, WallDimensionUsesInjectedClockAndTripsAsDeadline) {
  uint64_t now = 1000;
  ResourceLimits limits{.max_wall_ms = 50};
  limits.clock = [&now] { return now; };
  ResourceBudget b(limits);
  now += 50;
  EXPECT_TRUE(b.CheckControl().ok());
  now += 1;
  Status st = b.CheckControl();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("wall-ms dimension"), std::string::npos) << st;
}

TEST(BudgetTest, WallClockStartsWhenTheWindowIsBuilt) {
  uint64_t now = 0;
  ResourceLimits limits{.max_wall_ms = 1};
  limits.clock = [&now] { return now; };
  now = 1'000'000;  // eons pass between the limits and the call
  ResourceBudget b(limits);  // the window starts here
  EXPECT_TRUE(b.CheckControl().ok());
  now += 2;
  EXPECT_EQ(b.CheckControl().code(), StatusCode::kDeadlineExceeded);
}

TEST(BudgetTest, BytesOutrankTheLapsedDeadline) {
  // Both dimensions are blown; Check must report the bytes dimension so
  // a memory-budgeted runaway is never misdiagnosed as slow.
  ObjectStore store = SmallStore();
  uint64_t now = 0;
  ResourceLimits limits{.max_store_bytes = 1, .max_wall_ms = 1};
  limits.clock = [&now] { return now; };
  ResourceBudget b(limits);
  now += 10'000;
  EXPECT_EQ(b.Check(store).code(), StatusCode::kResourceExhausted);
  // The control-only probe sees just the deadline.
  EXPECT_EQ(b.CheckControl().code(), StatusCode::kDeadlineExceeded);
}

TEST(BudgetTest, RejectionsCountOncePerArmedWindow) {
  MetricsRegistry reg;
  ObjectStore store = SmallStore();
  const ResourceLimits limits{.max_store_bytes = 1};
  {
    ResourceBudget b(limits);
    for (int i = 0; i < 5; ++i) {
      EXPECT_FALSE(b.Check(store).ok());  // polled repeatedly after the trip
    }
    CountBudgetRejection(&reg, b);
  }
  EXPECT_EQ(Rejections(reg), 1u) << "one rejected call, not five polls";
  const ResourceLimits roomy;
  ResourceBudget clean(roomy);
  EXPECT_TRUE(clean.Check(store).ok());
  CountBudgetRejection(&reg, clean);
  EXPECT_EQ(Rejections(reg), 1u) << "a clean window adds nothing";
  ResourceBudget again(limits);
  EXPECT_FALSE(again.Check(store).ok());
  CountBudgetRejection(&reg, again);
  EXPECT_EQ(Rejections(reg), 2u);
}

TEST(BudgetTest, EachWindowStartsItsOwnDerivationCount) {
  const ResourceLimits limits{.max_derivations = 10};
  ObjectStore store;
  ResourceBudget first(limits);
  first.ChargeDerivations(10);
  EXPECT_EQ(first.derivations(), 10u);
  ResourceBudget second(limits);  // the next call, same limits
  EXPECT_EQ(second.derivations(), 0u);
  EXPECT_TRUE(second.Check(store).ok());
}

// ---------------------------------------------------------------------------
// End-to-end through Database.
// ---------------------------------------------------------------------------

TEST(BudgetTest, MemoryBudgetedRunawayNamesTheByteDimension) {
  // The acceptance case: a runaway recursion under a byte budget (with
  // a generous wall budget also set) must return kResourceExhausted
  // naming bytes and the offending stratum/rule — not
  // kDeadlineExceeded, and not an unexplained guard trip.
  MetricsRegistry reg;
  DatabaseOptions opts;
  opts.engine.limits.max_store_bytes = 1ull << 20;
  opts.engine.limits.max_wall_ms = 600'000;
  opts.engine.obs.metrics = &reg;
  Database db(opts);
  ASSERT_TRUE(db.Load(std::string(kRunaway)).ok());
  Status st = db.Materialize();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  EXPECT_NE(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("bytes dimension"), std::string::npos) << st;
  EXPECT_NE(st.message().find("in stratum"), std::string::npos) << st;
  EXPECT_NE(st.message().find("X.succ[count->1]"), std::string::npos) << st;
  EXPECT_EQ(Rejections(reg), 1u);
}

TEST(BudgetTest, DerivationBudgetedRunawayStopsAtTheCount) {
  DatabaseOptions opts;
  opts.engine.limits.max_derivations = 500;
  Database db(opts);
  ASSERT_TRUE(db.Load(std::string(kRunaway)).ok());
  Status st = db.Materialize();
  ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  EXPECT_NE(st.message().find("derivations dimension"), std::string::npos)
      << st;
}

TEST(BudgetTest, WallBudgetedRunawayIsDeterministicWithAFakeClock) {
  uint64_t now = 0;
  DatabaseOptions opts;
  opts.engine.limits.max_wall_ms = 50;
  opts.engine.limits.clock = [&now] {
    now += 10;  // every poll costs 10 fake milliseconds
    return now;
  };
  Database db(opts);
  ASSERT_TRUE(db.Load(std::string(kRunaway)).ok());
  Status st = db.Materialize();
  ASSERT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st;
  EXPECT_NE(st.message().find("wall-ms dimension"), std::string::npos) << st;
}

TEST(BudgetTest, CancelTokenAbortsQueriesUntilReset) {
  MetricsRegistry reg;
  CancelToken token;  // no limits: only the token can stop anything
  DatabaseOptions opts;
  opts.engine.limits.token = token;
  opts.engine.obs.metrics = &reg;
  Database db(opts);
  ASSERT_TRUE(db.Load("p1 : employee. p1[salary->1000].").ok());
  Result<ResultSet> ok = db.Query("?- X:employee[salary->S].");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->rows().size(), 1u);

  token.Cancel();
  Result<ResultSet> r = db.Query("?- X:employee[salary->S].");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << r.status();
  Result<std::vector<Oid>> e = db.Eval("p1.salary");
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
  Result<bool> h = db.Holds("p1[salary->1000]");
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(Rejections(reg), 3u) << "one rejection per rejected call";

  token.Reset();
  Result<ResultSet> again = db.Query("?- X:employee[salary->S].");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->rows().size(), 1u);
}

TEST(BudgetTest, ReadOnlyQueriesRespectTheWallBudget) {
  // A query over an already-materialised store goes through the
  // reference evaluator's control probe, not the engine loop.
  uint64_t now = 0;
  uint64_t step = 0;
  DatabaseOptions opts;
  opts.engine.limits.max_wall_ms = 50;
  opts.engine.limits.clock = [&now, &step] {
    now += step;
    return now;
  };
  Database db(opts);
  ASSERT_TRUE(db.Load("p1 : employee. p1[salary->1000].").ok());
  ASSERT_TRUE(db.Materialize().ok());
  now += 1000;  // the next query's window starts here; clock then stalls
  Result<ResultSet> ok = db.Query("?- X:employee[salary->S].");
  EXPECT_TRUE(ok.ok()) << ok.status();

  // Now a clock that lapses mid-enumeration.
  step = 60;
  Result<ResultSet> r = db.Query("?- X:employee[salary->S].");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded) << r.status();
}

// ---------------------------------------------------------------------------
// One call, one window.
// ---------------------------------------------------------------------------

constexpr std::string_view kDescChain = R"(
  a[kids->>{b}]. b[kids->>{c}]. c[kids->>{d}].
  X[desc->>{Y}] <- X[kids->>{Y}].
  X[desc->>{Z}] <- X[kids->>{Y}], Y[desc->>{Z}].
)";

/// The budget object of the newest query-log record.
JsonValue LastBudget(const QueryLog& log) {
  std::vector<std::string> recent = log.Recent(1);
  EXPECT_EQ(recent.size(), 1u);
  Result<JsonValue> rec = ParseJson(recent.empty() ? "{}" : recent.back());
  EXPECT_TRUE(rec.ok()) << rec.status();
  const JsonValue* budget = rec.ok() ? rec->Find("budget") : nullptr;
  return budget != nullptr ? *budget : JsonValue();
}

TEST(BudgetTest, AReadsRecordCarriesItsLazyMaterialisationsDerivations) {
  QueryLog log(QueryLogOptions{});
  DatabaseOptions opts;
  opts.engine.obs.query_log = &log;
  Database db(opts);
  ASSERT_TRUE(db.Load(std::string(kDescChain)).ok());
  Result<ResultSet> rs = db.Query("?- a[desc->>{D}].");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->size(), 3u);
  const JsonValue budget = LastBudget(log);
  ASSERT_NE(budget.Find("derivations"), nullptr);
  EXPECT_EQ(budget.Find("derivations")->as_number(), 11.0)
      << "the read's window covers its lazy materialisation";

  // The next read materialises nothing, so its window charges nothing.
  ASSERT_TRUE(db.Query("?- a[desc->>{D}].").ok());
  EXPECT_EQ(LastBudget(log).Find("derivations")->as_number(), 0.0);
}

TEST(BudgetTest, ARejectionInsideLazyMaterialisationCountsOnceForTheRead) {
  MetricsRegistry reg;
  QueryLog log(QueryLogOptions{});
  DatabaseOptions opts;
  opts.engine.limits.max_derivations = 1;
  opts.engine.obs.metrics = &reg;
  opts.engine.obs.query_log = &log;
  Database db(opts);
  ASSERT_TRUE(db.Load(std::string(kDescChain)).ok());
  Result<ResultSet> rs = db.Query("?- a[desc->>{D}].");
  ASSERT_EQ(rs.status().code(), StatusCode::kResourceExhausted) << rs.status();
  EXPECT_EQ(Rejections(reg), 1u) << "the engine must not count it again";
  const JsonValue budget = LastBudget(log);
  ASSERT_NE(budget.Find("rejected"), nullptr);
  EXPECT_TRUE(budget.Find("rejected")->as_bool());
}

TEST(BudgetTest, TriggersFiredOnMaterializeShareTheCallsWindow) {
  // The Materialize's two rule derivations fit the ceiling. One
  // FireTriggers call is one window across its whole cascade: round 1
  // fires the seen trigger twice, round 2 the noted trigger twice, and
  // the gate of round 3 finds four firings charged against two.
  DatabaseOptions opts;
  opts.engine.limits.max_derivations = 2;
  Database db(opts);
  ASSERT_TRUE(db.Load(R"(
    a[kids->>{b}]. b[kids->>{c}].
    X[parent->1] <- X[kids->>{Y}].
    X[seen->1] <~ X[parent->1].
    X[noted->1] <~ X[seen->1].
  )").ok());
  ASSERT_TRUE(db.Materialize().ok());
  Status st = db.FireTriggers();
  ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  EXPECT_NE(st.message().find("during trigger round 3"), std::string::npos)
      << st;
}

}  // namespace
}  // namespace pathlog
