// Tests for the observability layer: the JSON helper, the metrics
// registry and its two export formats (which must flatten to the same
// samples), span nesting in the flight ring over a real
// materialisation, the profiler's report, and the store counters.

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/strings.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/profile.h"
#include "query/database.h"
#include "store/file_ops.h"

namespace pathlog {
namespace {

// ---------------------------------------------------------------------------
// JSON helper.

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->as_bool());
  EXPECT_FALSE(ParseJson("false")->as_bool());
  EXPECT_DOUBLE_EQ(ParseJson("42")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(ParseJson("-2.5e2")->as_number(), -250.0);
  EXPECT_EQ(ParseJson(R"("hi\n\"there\"")")->as_string(), "hi\n\"there\"");
}

TEST(JsonTest, ParsesNestedStructure) {
  Result<JsonValue> v = ParseJson(R"({"a":[1,2,{"b":true}],"c":null})");
  ASSERT_TRUE(v.ok()) << v.status();
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[0].as_number(), 1.0);
  const JsonValue* b = a->items()[2].Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->as_bool());
  EXPECT_TRUE(v->Find("c")->is_null());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("'single'").ok());
}

TEST(JsonTest, StringEscaping) {
  std::string out;
  AppendJsonString(&out, "a\"b\\c\n\t");
  // The escaped form must parse back to the original.
  Result<JsonValue> v = ParseJson(out);
  ASSERT_TRUE(v.ok()) << out << ": " << v.status();
  EXPECT_EQ(v->as_string(), "a\"b\\c\n\t");
}

TEST(JsonTest, NumberFormatting) {
  std::string out;
  AppendJsonNumber(&out, 7);
  EXPECT_EQ(out, "7");
  out.clear();
  AppendJsonNumber(&out, 2.5);
  EXPECT_DOUBLE_EQ(ParseJson(out)->as_number(), 2.5);
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsTest, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c_total", "a counter");
  ASSERT_NE(c, nullptr);
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->value(), 5u);
  // Same name, same pointer.
  EXPECT_EQ(reg.GetCounter("c_total"), c);

  Gauge* g = reg.GetGauge("g");
  ASSERT_NE(g, nullptr);
  g->Set(10);
  g->Add(-2.5);
  EXPECT_DOUBLE_EQ(g->value(), 7.5);
}

TEST(MetricsTest, KindMismatchReturnsNull) {
  MetricsRegistry reg;
  ASSERT_NE(reg.GetCounter("x"), nullptr);
  EXPECT_EQ(reg.GetGauge("x"), nullptr);
  EXPECT_EQ(reg.GetHistogram("x", DefaultLatencyBoundsMs()), nullptr);
}

TEST(MetricsTest, HistogramBucketsAreCumulativeInPrometheus) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("lat_ms", {1.0, 10.0}, "latency");
  ASSERT_NE(h, nullptr);
  h->Observe(0.5);   // le=1
  h->Observe(5.0);   // le=10
  h->Observe(50.0);  // +Inf
  EXPECT_EQ(h->bucket_count(0), 1u);
  EXPECT_EQ(h->bucket_count(1), 1u);
  EXPECT_EQ(h->bucket_count(2), 1u);
  EXPECT_EQ(h->total_count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 55.5);

  Result<MetricsSamples> samples =
      ParseMetricsPrometheusText(reg.ToPrometheusText());
  ASSERT_TRUE(samples.ok()) << samples.status();
  EXPECT_DOUBLE_EQ((*samples)["lat_ms_bucket{le=\"1\"}"], 1.0);
  EXPECT_DOUBLE_EQ((*samples)["lat_ms_bucket{le=\"10\"}"], 2.0);
  EXPECT_DOUBLE_EQ((*samples)["lat_ms_bucket{le=\"+Inf\"}"], 3.0);
  EXPECT_DOUBLE_EQ((*samples)["lat_ms_count"], 3.0);
  EXPECT_DOUBLE_EQ((*samples)["lat_ms_sum"], 55.5);
}

TEST(MetricsTest, JsonAndPrometheusRoundTripToSameSamples) {
  MetricsRegistry reg;
  reg.GetCounter("requests_total", "requests")->Inc(17);
  reg.GetGauge("temperature", "degrees")->Set(-3.25);
  Histogram* h = reg.GetHistogram("dur_ms", DefaultLatencyBoundsMs(), "d");
  h->Observe(0.1);
  h->Observe(300);

  Result<MetricsSamples> from_json = ParseMetricsJson(reg.ToJson());
  ASSERT_TRUE(from_json.ok()) << from_json.status();
  Result<MetricsSamples> from_prom =
      ParseMetricsPrometheusText(reg.ToPrometheusText());
  ASSERT_TRUE(from_prom.ok()) << from_prom.status();

  EXPECT_EQ(*from_json, *from_prom);
  EXPECT_DOUBLE_EQ((*from_json)["requests_total"], 17.0);
  EXPECT_DOUBLE_EQ((*from_json)["temperature"], -3.25);
  EXPECT_DOUBLE_EQ((*from_json)["dur_ms_count"], 2.0);
}

TEST(MetricsTest, ParserRejectsGarbage) {
  EXPECT_FALSE(ParseMetricsJson("not json").ok());
  EXPECT_FALSE(ParseMetricsJson("[1,2]").ok());
  EXPECT_FALSE(ParseMetricsPrometheusText("name_without_value\n").ok());
}

// ---------------------------------------------------------------------------
// Span nesting in the flight ring.

/// One rendered "X" event as a closed interval [start, end] in µs.
struct RenderedSpan {
  std::string name;
  double start = 0;
  double end = 0;

  bool Contains(const RenderedSpan& inner) const {
    return start <= inner.start && inner.end <= end;
  }
};

/// The complete ("X") events of a rendered Chrome trace.
std::vector<RenderedSpan> RenderedSpans(const std::string& trace_json) {
  std::vector<RenderedSpan> out;
  Result<JsonValue> doc = ParseJson(trace_json);
  EXPECT_TRUE(doc.ok()) << doc.status();
  if (!doc.ok()) return out;
  const JsonValue* events = doc->Find("traceEvents");
  EXPECT_NE(events, nullptr);
  if (events == nullptr) return out;
  for (const JsonValue& e : events->items()) {
    if (e.Find("ph")->as_string() != "X") continue;
    const double ts = e.Find("ts")->as_number();
    out.push_back(RenderedSpan{e.Find("name")->as_string(), ts,
                               ts + e.Find("dur")->as_number()});
  }
  return out;
}

// Nesting over a real materialisation, by exact interval containment:
// rule evaluations sit inside iterations inside strata inside
// engine.run inside db.materialize, and under the delta strategy every
// delta pass sits inside a rule evaluation.
TEST(TraceTest, MaterializationSpansNestProperly) {
  FlightRecorder ring(1024);
  DatabaseOptions opts;
  opts.engine.strategy = EvalStrategy::kSemiNaiveDelta;
  opts.engine.obs.flight = &ring;
  Database db(opts);
  ASSERT_TRUE(db.Load(R"(
    a[kids->>{b}]. b[kids->>{c}]. c[kids->>{d}].
    X[desc->>{Y}] <- X[kids->>{Y}].
    X[desc->>{Y}] <- X..desc[kids->>{Y}].
  )").ok());
  ASSERT_TRUE(db.Materialize().ok());
  ASSERT_LT(ring.recorded(), ring.capacity()) << "the ring must hold the run";

  const std::vector<RenderedSpan> spans = RenderedSpans(ring.ToTraceJson());
  auto expected_parent = [](const std::string& name) -> const char* {
    if (name == "rule.evaluate") return "iteration";
    if (name == "iteration") return "stratum";
    if (name == "stratum") return "engine.run";
    if (name == "engine.run") return "db.materialize";
    if (name == "delta_pass") return "rule.evaluate";
    return nullptr;  // unconstrained
  };
  size_t rule_spans = 0, delta_spans = 0;
  for (const RenderedSpan& child : spans) {
    if (child.name == "rule.evaluate") ++rule_spans;
    if (child.name == "delta_pass") ++delta_spans;
    const char* parent = expected_parent(child.name);
    if (parent == nullptr) continue;
    const bool nested =
        std::any_of(spans.begin(), spans.end(), [&](const RenderedSpan& p) {
          return p.name == parent && p.Contains(child);
        });
    EXPECT_TRUE(nested) << child.name << " [" << child.start << ", "
                        << child.end << "] is not inside any " << parent;
  }
  // Spans on one thread form a tree: any two are nested or disjoint.
  for (const RenderedSpan& a : spans) {
    for (const RenderedSpan& b : spans) {
      EXPECT_TRUE(a.Contains(b) || b.Contains(a) || a.end <= b.start ||
                  b.end <= a.start)
          << a.name << " and " << b.name << " overlap without nesting";
    }
  }
  EXPECT_GT(rule_spans, 0u) << "no rule.evaluate spans recorded";
  EXPECT_GT(delta_spans, 0u) << "no delta_pass spans recorded";
}

// ---------------------------------------------------------------------------
// Profiler.

TEST(ProfileTest, AccumulatesAndSorts) {
  Profiler p;
  p.RecordRuleEvaluation("cheap.", 100, 0, 1);
  p.RecordRuleEvaluation("dear.", 9000, 2, 5);
  p.RecordRuleEvaluation("dear.", 1000, 1, 3);
  std::vector<Profiler::RuleProfile> rules = p.RuleProfiles();
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].rule, "dear.");
  EXPECT_EQ(rules[0].evaluations, 2u);
  EXPECT_EQ(rules[0].delta_passes, 3u);
  EXPECT_EQ(rules[0].derivations, 8u);
  EXPECT_EQ(rules[0].wall_ns, 10000u);
  EXPECT_EQ(rules[1].rule, "cheap.");
}

TEST(ProfileTest, EmptyReportSaysSo) {
  Profiler p;
  EXPECT_EQ(p.Report(), "profile: no activity recorded\n");
}

// End-to-end: materialise and query with the profiler attached; every
// rule with nonzero evaluations appears, sorted by cumulative time.
TEST(ProfileTest, DatabaseProfileReportListsRules) {
  Profiler profiler;
  Database db;
  ObsSinks sinks;
  sinks.profiler = &profiler;
  db.SetObsSinks(sinks);
  ASSERT_TRUE(db.Load(R"(
    a[kids->>{b}]. b[kids->>{c}].
    X[desc->>{Y}] <- X[kids->>{Y}].
    X[desc->>{Y}] <- X..desc[kids->>{Y}].
  )").ok());
  Result<ResultSet> rs = db.Query("?- a[desc->>{D}].");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->size(), 2u);

  std::vector<Profiler::RuleProfile> rules = profiler.RuleProfiles();
  ASSERT_EQ(rules.size(), 2u);
  for (const Profiler::RuleProfile& r : rules) {
    EXPECT_GT(r.evaluations, 0u);
  }
  EXPECT_TRUE(std::is_sorted(
      rules.begin(), rules.end(),
      [](const Profiler::RuleProfile& x, const Profiler::RuleProfile& y) {
        return x.wall_ns > y.wall_ns;
      }));

  std::string report = db.ProfileReport();
  EXPECT_NE(report.find("rule profile (2 rules"), std::string::npos) << report;
  EXPECT_NE(report.find("X[desc->>{Y}] <- X[kids->>{Y}]."), std::string::npos)
      << report;
  EXPECT_NE(report.find("driver literals"), std::string::npos) << report;
  // The query drove at least one literal with recorded cardinalities.
  std::vector<Profiler::LiteralProfile> lits = profiler.LiteralProfiles();
  ASSERT_FALSE(lits.empty());
  uint64_t total_actual = 0;
  for (const Profiler::LiteralProfile& l : lits) total_actual += l.actual;
  EXPECT_GT(total_actual, 0u);

  // Eval and Holds feed the index-route totals too; they are not
  // planned, so they add no driver literals.
  const uint64_t probes_before = profiler.routes().inverted_probes;
  ASSERT_TRUE(db.Eval("X[kids->>{c}]").ok());
  const uint64_t probes_after_eval = profiler.routes().inverted_probes;
  EXPECT_GT(probes_after_eval, probes_before);
  ASSERT_TRUE(db.Holds("X[kids->>{c}]").ok());
  EXPECT_GT(profiler.routes().inverted_probes, probes_after_eval);
  EXPECT_EQ(profiler.LiteralProfiles().size(), lits.size());
}

TEST(ProfileTest, ReportWithoutProfilerExplains) {
  Database db;
  EXPECT_EQ(db.ProfileReport(),
            "profile: no profiler attached (enable profiling first)\n");
}

// ---------------------------------------------------------------------------
// Store counters and engine metrics through the Database front end.

TEST(ObsEndToEndTest, StoreAndEngineMetricsAccumulate) {
  MetricsRegistry reg;
  Database db;
  ObsSinks sinks;
  sinks.metrics = &reg;
  db.SetObsSinks(sinks);
  ASSERT_TRUE(db.Load(R"(
    mary : employee[age->30].
    john : employee[age->40].
    mary[friends->>{john}].
    X[peer->Y] <- X:employee[age->A], Y:employee[age->A].
  )").ok());
  // Every answered read of any kind counts once, with one latency
  // sample: K queries, M evals and N holds give K+M+N.
  constexpr int kQueries = 2, kEvals = 3, kHolds = 4;
  for (int i = 0; i < kQueries; ++i) {
    Result<ResultSet> rs = db.Query("?- X:employee[age->A].");
    ASSERT_TRUE(rs.ok()) << rs.status();
  }
  for (int i = 0; i < kEvals; ++i) ASSERT_TRUE(db.Eval("mary.peer").ok());
  for (int i = 0; i < kHolds; ++i) {
    ASSERT_TRUE(db.Holds("john : employee").ok());
  }

  Result<MetricsSamples> samples = ParseMetricsJson(reg.ToJson());
  ASSERT_TRUE(samples.ok()) << samples.status();
  EXPECT_GE((*samples)["pathlog_store_isa_facts_total"], 2.0);
  EXPECT_GE((*samples)["pathlog_store_scalar_facts_total"], 2.0);
  EXPECT_GE((*samples)["pathlog_store_set_facts_total"], 1.0);
  EXPECT_GT((*samples)["pathlog_store_objects_total"], 0.0);
  EXPECT_GE((*samples)["pathlog_engine_runs_total"], 1.0);
  EXPECT_GE((*samples)["pathlog_engine_rule_evaluations_total"], 1.0);
  EXPECT_GE((*samples)["pathlog_engine_derivations_total"], 1.0);
  EXPECT_EQ((*samples)["pathlog_queries_total"], kQueries + kEvals + kHolds);
  EXPECT_EQ((*samples)["pathlog_query_ms_count"], kQueries + kEvals + kHolds);
  EXPECT_GE((*samples)["pathlog_engine_run_ms_count"], 1.0);
  // Gauges reflect the store after materialisation.
  EXPECT_GT((*samples)["pathlog_store_objects"], 0.0);
  EXPECT_GT((*samples)["pathlog_store_facts"], 0.0);
}

TEST(ObsEndToEndTest, DetachStopsRecording) {
  MetricsRegistry reg;
  Database db;
  ObsSinks sinks;
  sinks.metrics = &reg;
  db.SetObsSinks(sinks);
  ASSERT_TRUE(db.Load("a : thing.").ok());
  Result<MetricsSamples> before = ParseMetricsJson(reg.ToJson());
  ASSERT_TRUE(before.ok());

  db.SetObsSinks(ObsSinks{});  // detach
  ASSERT_TRUE(db.Load("b : thing. c : thing.").ok());
  Result<MetricsSamples> after = ParseMetricsJson(reg.ToJson());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*before)["pathlog_store_isa_facts_total"],
            (*after)["pathlog_store_isa_facts_total"]);
}

TEST(ObsEndToEndTest, TriggerMetricsAccumulate) {
  MetricsRegistry reg;
  Database db;
  ObsSinks sinks;
  sinks.metrics = &reg;
  db.SetObsSinks(sinks);
  ASSERT_TRUE(db.Load(R"(
    audit[saw->>{X}] <~ X:employee.
    mary : employee.
  )").ok());
  ASSERT_TRUE(db.FireTriggers().ok());
  Result<MetricsSamples> samples = ParseMetricsJson(reg.ToJson());
  ASSERT_TRUE(samples.ok()) << samples.status();
  EXPECT_GE((*samples)["pathlog_trigger_rounds_total"], 1.0);
  EXPECT_GE((*samples)["pathlog_trigger_firings_total"], 1.0);
  EXPECT_GE((*samples)["pathlog_trigger_facts_total"], 1.0);
}

TEST(ObsEndToEndTest, TriggersReportToSinksGivenAtConstruction) {
  // Sinks set in DatabaseOptions before construction reach the
  // trigger cascade exactly as sinks attached through SetObsSinks do.
  MetricsRegistry reg;
  FlightRecorder ring(64);
  DatabaseOptions opts;
  opts.engine.obs.metrics = &reg;
  opts.engine.obs.flight = &ring;
  Database db(opts);
  ASSERT_TRUE(db.Load(R"(
    audit[saw->>{X}] <~ X:employee.
    mary : employee.
  )").ok());
  ASSERT_TRUE(db.FireTriggers().ok());
  Result<MetricsSamples> samples = ParseMetricsJson(reg.ToJson());
  ASSERT_TRUE(samples.ok()) << samples.status();
  EXPECT_EQ((*samples)["pathlog_trigger_firings_total"], 1.0);
  EXPECT_GE((*samples)["pathlog_trigger_rounds_total"], 1.0);
  std::vector<FlightEvent> events = ring.Snapshot();
  EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                          [](const FlightEvent& e) {
                            return e.name == "triggers.round";
                          }));
}

TEST(ObsEndToEndTest, GovernanceMetricsExportOnBothFormatsIdentically) {
  // Drive every resource-governance metric at least once — a retried
  // transient WAL fault, a size-triggered rotation, a degraded-mode
  // entry and exit, and a budget rejection — then require the JSON and
  // Prometheus exports to flatten to the same samples.
  using FaultKind = FaultInjectingFileOps::FaultKind;
  using FaultOp = FaultInjectingFileOps::FaultOp;
  MetricsRegistry reg;
  FaultInjectingFileOps fs;
  CancelToken token;
  DatabaseOptions opts;
  opts.engine.limits.token = token;
  opts.durability.rotate_wal_bytes = 1;  // every commit rotates
  opts.durability.backoff_sleep = [](uint64_t) {};
  Result<Database> db = Database::Open("/db", opts, &fs);
  ASSERT_TRUE(db.ok()) << db.status();
  ObsSinks sinks;
  sinks.metrics = &reg;
  db->SetObsSinks(sinks);

  // One transient fsync failure: retried, then the commit rotates.
  FaultInjectingFileOps::FaultSchedule sched;
  sched.events.push_back({FaultOp::kSync, 1, 1, FaultKind::kFail,
                          StatusCode::kUnavailable});
  fs.SetSchedule(sched);
  ASSERT_TRUE(db->Load("a[v->1].").ok());

  // A persistent failure degrades; the checkpoint probe recovers.
  sched.events[0] = {FaultOp::kAppend, 1, 1, FaultKind::kFail,
                     StatusCode::kInternal};
  fs.SetSchedule(sched);
  ASSERT_FALSE(db->Load("b[v->2].").ok());
  ASSERT_TRUE(db->degraded());
  fs.SetSchedule({});
  ASSERT_TRUE(db->Checkpoint().ok());

  // A cancelled query is a budget rejection.
  token.Cancel();
  ASSERT_FALSE(db->Query("?- X[v->V].").ok());
  token.Reset();

  Result<MetricsSamples> from_json = ParseMetricsJson(reg.ToJson());
  ASSERT_TRUE(from_json.ok()) << from_json.status();
  Result<MetricsSamples> from_prom =
      ParseMetricsPrometheusText(reg.ToPrometheusText());
  ASSERT_TRUE(from_prom.ok()) << from_prom.status();
  EXPECT_EQ(*from_json, *from_prom);

  EXPECT_DOUBLE_EQ((*from_json)["pathlog_wal_retries_total"], 1.0);
  EXPECT_GE((*from_json)["pathlog_wal_rotations_total"], 1.0);
  EXPECT_DOUBLE_EQ((*from_json)["pathlog_db_degraded_entries_total"], 1.0);
  EXPECT_DOUBLE_EQ((*from_json)["pathlog_db_degraded"], 0.0)
      << "the recovery checkpoint must clear the gauge";
  EXPECT_GE((*from_json)["pathlog_budget_rejections_total"], 1.0);
}

// ---------------------------------------------------------------------------
// Histogram quantiles.

TEST(HistogramQuantileTest, ExactValuesOnSyntheticObservations) {
  // Buckets (0,1], (1,2], (2,4], +Inf. Ten observations: 0.5 lands in
  // the first bucket, 1.5 x4 in the second, 3 x5 in the third.
  Histogram h({1, 2, 4});
  h.Observe(0.5);
  for (int i = 0; i < 4; ++i) h.Observe(1.5);
  for (int i = 0; i < 5; ++i) h.Observe(3.0);

  // rank = q * 10. p50: rank 5 -> cumulative 1, 5, 10, so it is the
  // (5-1)=4th of 4 observations inside (1,2]: 1 + 4/4 * 1 = 2.
  EXPECT_DOUBLE_EQ(h.Quantile(0.50), 2.0);
  // p90: rank 9 -> (9-5)=4th of 5 inside (2,4]: 2 + 4/5 * 2 = 3.6.
  EXPECT_DOUBLE_EQ(h.Quantile(0.90), 3.6);
  // p10: rank 1 -> first bucket, 0 + 1/1 * 1 = 1.
  EXPECT_DOUBLE_EQ(h.Quantile(0.10), 1.0);
  // p100 stays on the highest finite edge.
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 4.0);
}

TEST(HistogramQuantileTest, InfBucketClampsToHighestFiniteBound) {
  Histogram h({1, 2});
  h.Observe(100);  // +Inf bucket
  h.Observe(0.5);
  // p99: rank lands in +Inf; the estimate is clamped to 2, the highest
  // finite bound (Prometheus histogram_quantile semantics).
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 2.0);
}

TEST(HistogramQuantileTest, EdgeCases) {
  Histogram empty({1, 2});
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);

  Histogram h({10});
  h.Observe(5);
  EXPECT_DOUBLE_EQ(h.Quantile(-1.0), h.Quantile(0.0)) << "q is clamped";
  EXPECT_DOUBLE_EQ(h.Quantile(2.0), h.Quantile(1.0));
}

TEST(HistogramQuantileTest, RegistryEnumeratesHistogramsNameSorted) {
  MetricsRegistry reg;
  reg.GetHistogram("zzz_ms", {1, 2})->Observe(1);
  reg.GetHistogram("aaa_ms", {1, 2})->Observe(1);
  reg.GetCounter("not_a_histogram")->Inc();
  std::vector<std::pair<std::string, const Histogram*>> entries =
      reg.HistogramEntries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, "aaa_ms");
  EXPECT_EQ(entries[1].first, "zzz_ms");
  EXPECT_EQ(entries[0].second->total_count(), 1u);
}

// ---------------------------------------------------------------------------
// FlightRecorder.

TEST(FlightRecorderTest, RecordsAndSnapshotsInOrder) {
  FlightRecorder rec(4);
  rec.Record("a", "t", 10);
  rec.Record("b", "t");  // instant
  rec.Record("c", "t", 30, R"({"k":1})");
  EXPECT_EQ(rec.recorded(), 3u);

  std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(events[1].dur_us, 0u);
  EXPECT_EQ(events[2].name, "c");
  EXPECT_EQ(events[2].args_json, R"({"k":1})");
  EXPECT_LT(events[0].seq, events[2].seq);
}

TEST(FlightRecorderTest, RingWrapsKeepingTheNewest) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.Record(StrCat("e", i), "t", 1);
  }
  EXPECT_EQ(rec.recorded(), 10u);
  std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "e6") << "oldest survivor";
  EXPECT_EQ(events.back().name, "e9") << "newest";
}

TEST(FlightRecorderTest, TraceJsonParsesAndKeepsEventShapes) {
  FlightRecorder rec(8);
  rec.Record("span", "cat", 42, R"({"rows":3})");
  rec.Record("instant", "cat");
  Result<JsonValue> trace = ParseJson(rec.ToTraceJson());
  ASSERT_TRUE(trace.ok()) << trace.status();
  const JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 2u);
  const JsonValue& span = events->items()[0];
  EXPECT_EQ(span.Find("ph")->as_string(), "X");
  EXPECT_DOUBLE_EQ(span.Find("dur")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(span.Find("args")->Find("rows")->as_number(), 3.0);
  const JsonValue& instant = events->items()[1];
  EXPECT_EQ(instant.Find("ph")->as_string(), "i");
  EXPECT_EQ(instant.Find("s")->as_string(), "t");
}

TEST(FlightRecorderTest, WriteToGoesThroughInjectedFileOps) {
  FaultInjectingFileOps fs;
  ASSERT_TRUE(fs.CreateDir("/dir").ok());
  FlightRecorder rec(4);
  rec.Record("e", "t", 1);
  ASSERT_TRUE(rec.WriteTo("/dir/f.trace.json", &fs).ok());
  Result<std::string> bytes = fs.ReadFile("/dir/f.trace.json");
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_TRUE(ParseJson(*bytes).ok());
}

TEST(FlightRecorderTest, ResetDropsEverything) {
  FlightRecorder rec(4);
  rec.Record("e", "t", 1);
  rec.Reset();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.Snapshot().empty());
}

TEST(FlightRecorderTest, FlightSpanRecordsMeasuredDuration) {
  FlightRecorder rec(4);
  {
    FlightSpan span(&rec, "scoped", "t", "tag", 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FlightSpan no_op(nullptr, "never");  // null recorder: no crash, no record
  std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "scoped");
  EXPECT_FALSE(events[0].instant) << "spans never render as instants";
  EXPECT_GE(events[0].dur_us, 2000u);
  EXPECT_EQ(events[0].args_json, R"({"tag":7})");
}

TEST(FlightRecorderTest, NestedSpansRenderNested) {
  // Each span is drawn from where it started: an inner span opened
  // after its parent and closed before it renders inside it.
  FlightRecorder rec(8);
  {
    FlightSpan outer(&rec, "outer", "t");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      FlightSpan inner(&rec, "inner", "t");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::vector<RenderedSpan> spans = RenderedSpans(rec.ToTraceJson());
  ASSERT_EQ(spans.size(), 2u);
  const RenderedSpan& outer = spans[0].name == "outer" ? spans[0] : spans[1];
  const RenderedSpan& inner = spans[0].name == "outer" ? spans[1] : spans[0];
  EXPECT_TRUE(outer.Contains(inner))
      << "outer [" << outer.start << ", " << outer.end << "], inner ["
      << inner.start << ", " << inner.end << "]";
  EXPECT_GE(inner.start - outer.start, 2000.0) << "inner opened 2 ms in";
}

TEST(FlightRecorderTest, TraceJsonReportsDroppedEvents) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i) rec.Record("e", "t", 1);
  Result<JsonValue> trace = ParseJson(rec.ToTraceJson());
  ASSERT_TRUE(trace.ok()) << trace.status();
  EXPECT_EQ(trace->Find("traceEvents")->items().size(), 4u);
  const JsonValue* other = trace->Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_DOUBLE_EQ(other->Find("capacity")->as_number(), 4.0);
  EXPECT_DOUBLE_EQ(other->Find("recorded")->as_number(), 10.0);
  EXPECT_DOUBLE_EQ(other->Find("dropped")->as_number(), 6.0);
}

// ---------------------------------------------------------------------------
// QueryLog.

QueryLogRecord MakeRecord(const std::string& query) {
  QueryLogRecord rec;
  rec.ts_ms = 1700000000000ull;
  rec.kind = "query";
  rec.query = query;
  rec.latency_ms = 1.25;
  rec.rows = 2;
  rec.strategy = "semi-naive-delta";
  rec.plan_fingerprint = "deadbeef";
  return rec;
}

TEST(QueryLogTest, AppendsOneJsonLinePerRecord) {
  FaultInjectingFileOps fs;
  QueryLogOptions opts;
  opts.path = "/ql.jsonl";
  opts.fops = &fs;
  QueryLog log(opts);
  ASSERT_TRUE(log.Append(MakeRecord("?- a[v->V].")).ok());
  ASSERT_TRUE(log.Append(MakeRecord("?- b[v->V].")).ok());
  EXPECT_EQ(log.records_written(), 2u);

  Result<std::string> bytes = fs.ReadFile("/ql.jsonl");
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  size_t newline = bytes->find('\n');
  ASSERT_NE(newline, std::string::npos);
  Result<JsonValue> first = ParseJson(bytes->substr(0, newline));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->Find("query")->as_string(), "?- a[v->V].");
  EXPECT_DOUBLE_EQ(first->Find("latency_ms")->as_number(), 1.25);
  EXPECT_EQ(bytes->back(), '\n') << "JSONL: every record ends its line";
}

TEST(QueryLogTest, SlowFlagIsStampedAgainstTheThreshold) {
  QueryLogOptions opts;
  opts.slow_query_ms = 10.0;
  QueryLog log(opts);
  QueryLogRecord fast = MakeRecord("fast");
  fast.latency_ms = 9.9;
  QueryLogRecord slow = MakeRecord("slow");
  slow.latency_ms = 10.1;
  ASSERT_TRUE(log.Append(fast).ok());
  ASSERT_TRUE(log.Append(slow).ok());
  std::vector<std::string> recent = log.Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_FALSE(ParseJson(recent[0])->Find("slow")->as_bool());
  EXPECT_TRUE(ParseJson(recent[1])->Find("slow")->as_bool());
}

TEST(QueryLogTest, RotationRenamesAndReopens) {
  FaultInjectingFileOps fs;
  QueryLogOptions opts;
  opts.path = "/ql.jsonl";
  opts.rotate_bytes = 1;  // every record over-fills the segment
  opts.fops = &fs;
  QueryLog log(opts);
  ASSERT_TRUE(log.Append(MakeRecord("first")).ok());
  ASSERT_TRUE(log.Append(MakeRecord("second")).ok());
  EXPECT_EQ(log.rotations(), 1u);
  Result<std::string> rotated = fs.ReadFile("/ql.jsonl.1");
  ASSERT_TRUE(rotated.ok()) << rotated.status();
  EXPECT_NE(rotated->find("first"), std::string::npos);
  Result<std::string> current = fs.ReadFile("/ql.jsonl");
  ASSERT_TRUE(current.ok()) << current.status();
  EXPECT_NE(current->find("second"), std::string::npos);
}

TEST(QueryLogTest, FirstFileErrorLatchesButTheRingKeepsFilling) {
  FaultInjectingFileOps fs;
  QueryLogOptions opts;
  opts.path = "/ql.jsonl";
  opts.fops = &fs;
  QueryLog log(opts);
  ASSERT_TRUE(log.Append(MakeRecord("ok")).ok());

  fs.ArmFault(FaultInjectingFileOps::FaultKind::kFail, 1);
  EXPECT_FALSE(log.Append(MakeRecord("fails")).ok());
  EXPECT_FALSE(log.file_error().ok());

  // Later appends return the latched error but keep the recent ring
  // serving /querylogz.
  EXPECT_FALSE(log.Append(MakeRecord("after")).ok());
  std::vector<std::string> recent = log.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_NE(recent.back().find("after"), std::string::npos);
}

TEST(QueryLogTest, RecentRingIsBoundedOldestFirst) {
  QueryLogOptions opts;
  opts.recent_capacity = 3;
  QueryLog log(opts);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(log.Append(MakeRecord(StrCat("q", i))).ok());
  }
  std::vector<std::string> recent = log.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_NE(recent[0].find("q2"), std::string::npos);
  EXPECT_NE(recent[2].find("q4"), std::string::npos);
  EXPECT_EQ(log.Recent(1).size(), 1u);
}

TEST(QueryLogTest, RecordJsonRoundTripsEveryField) {
  QueryLogRecord rec = MakeRecord("?- x.");
  rec.status = "ResourceExhausted";
  rec.budget_derivations = 7;
  rec.budget_store_bytes = 1024;
  rec.budget_wall_ms = 2.5;
  rec.budget_rejected = true;
  rec.route_inverted_probes = 1;
  rec.route_extent_scans = 2;
  rec.route_universe_scans = 3;
  rec.route_duplicates_suppressed = 4;
  rec.slow = true;
  Result<JsonValue> v = ParseJson(QueryLogRecordToJson(rec));
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->Find("status")->as_string(), "ResourceExhausted");
  const JsonValue* budget = v->Find("budget");
  ASSERT_NE(budget, nullptr);
  EXPECT_DOUBLE_EQ(budget->Find("derivations")->as_number(), 7.0);
  EXPECT_TRUE(budget->Find("rejected")->as_bool());
  const JsonValue* routes = v->Find("routes");
  ASSERT_NE(routes, nullptr);
  EXPECT_DOUBLE_EQ(routes->Find("universe_scans")->as_number(), 3.0);
  EXPECT_TRUE(v->Find("slow")->as_bool());
}

}  // namespace
}  // namespace pathlog
