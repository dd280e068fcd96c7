// Tests for the embedded HTTP stats server: the routing table through
// HandleRequest (no sockets), the wire itself through HttpGet against
// a live listener (exporter parity with the in-process JSON export,
// /healthz flipping 200 -> 503 on a chaos-forced degrade without a
// server restart), and the query-log schema across every src/workload/
// scenario.

#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <vector>

#include "net/stats_server.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/query_log.h"
#include "query/database.h"
#include "store/file_ops.h"
#include "workload/company.h"
#include "workload/kinship.h"
#include "workload/people.h"

namespace pathlog {
namespace {

// ---------------------------------------------------------------------------
// Routing, socket-free: HandleRequest is the whole table.

TEST(StatsServerTest, HandleRequestRoutesEveryEndpoint) {
  MetricsRegistry metrics;
  metrics.GetCounter("pathlog_test_total")->Inc(3);
  Profiler profiler;
  FlightRecorder flight(8);
  flight.Record("test.span", "test", 5);
  QueryLog query_log{QueryLogOptions{}};  // in-memory only

  StatsServerOptions opts;
  opts.metrics = &metrics;
  opts.profiler = &profiler;
  opts.flight = &flight;
  opts.query_log = &query_log;
  StatsServer server(opts);  // never started: handlers need no socket

  HttpResponse metrics_rsp = server.HandleRequest("/metrics");
  EXPECT_EQ(metrics_rsp.status, 200);
  EXPECT_NE(metrics_rsp.body.find("pathlog_test_total 3"), std::string::npos);

  HttpResponse varz = server.HandleRequest("/varz");
  EXPECT_EQ(varz.status, 200);
  Result<JsonValue> varz_json = ParseJson(varz.body);
  ASSERT_TRUE(varz_json.ok()) << varz_json.status();
  ASSERT_NE(varz_json->Find("counters"), nullptr);

  // No health callback and no degraded gauge registered: healthy.
  HttpResponse healthz = server.HandleRequest("/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body, "ok\n");

  HttpResponse statusz = server.HandleRequest("/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("uptime"), std::string::npos);
  EXPECT_NE(statusz.body.find("build"), std::string::npos);

  HttpResponse tracez = server.HandleRequest("/tracez");
  EXPECT_EQ(tracez.status, 200);
  Result<JsonValue> trace = ParseJson(tracez.body);
  ASSERT_TRUE(trace.ok()) << trace.status();
  const JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 1u);
  EXPECT_EQ(events->items()[0].Find("name")->as_string(), "test.span");

  HttpResponse querylogz = server.HandleRequest("/querylogz");
  EXPECT_EQ(querylogz.status, 200);
  Result<JsonValue> ql = ParseJson(querylogz.body);
  ASSERT_TRUE(ql.ok()) << ql.status();
  ASSERT_NE(ql->Find("records"), nullptr);

  EXPECT_EQ(server.HandleRequest("/").status, 200);
  EXPECT_EQ(server.HandleRequest("/nope").status, 404);
}

TEST(StatsServerTest, HandleRequestDegradesGracefullyWithNoSinks) {
  StatsServer server(StatsServerOptions{});
  for (const char* path :
       {"/metrics", "/varz", "/healthz", "/statusz", "/tracez",
        "/querylogz", "/"}) {
    HttpResponse rsp = server.HandleRequest(path);
    EXPECT_EQ(rsp.status, 200) << path;
  }
}

// ---------------------------------------------------------------------------
// The wire. A real listener on an ephemeral port, scraped via HttpGet.

TEST(StatsServerTest, ServesOverARealSocket) {
  MetricsRegistry metrics;
  metrics.GetCounter("pathlog_wire_total")->Inc(7);
  StatsServerOptions opts;
  opts.metrics = &metrics;
  StatsServer server(opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);
  EXPECT_TRUE(server.running());

  Result<HttpResponse> rsp = HttpGet(server.port(), "/metrics");
  ASSERT_TRUE(rsp.ok()) << rsp.status();
  EXPECT_EQ(rsp->status, 200);
  EXPECT_NE(rsp->body.find("pathlog_wire_total 7"), std::string::npos);
  EXPECT_GE(server.requests_served(), 1u);

  Result<HttpResponse> missing = HttpGet(server.port(), "/nope");
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_EQ(missing->status, 404);

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

// The acceptance criterion verbatim: /metrics scraped over the socket
// parses via ParseMetricsPrometheusText and is sample-for-sample equal
// to the in-process ToJson() export, on a registry a real database
// populated.
TEST(StatsServerTest, WireMetricsParityWithInProcessJsonExport) {
  MetricsRegistry metrics;
  Database db;
  ObsSinks sinks;
  sinks.metrics = &metrics;
  db.SetObsSinks(sinks);
  ASSERT_TRUE(db.Load("X[desc->>{Y}] <- X[kids->>{Y}]. "
                      "X[desc->>{Z}] <- X[kids->>{Y}], Y[desc->>{Z}].")
                  .ok());
  ASSERT_TRUE(db.Load("a[kids->>{b}]. b[kids->>{c}].").ok());
  Result<ResultSet> rs = db.Query("?- a[desc->>{D}].");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->size(), 2u);

  StatsServerOptions opts;
  opts.metrics = &metrics;
  StatsServer server(opts);
  ASSERT_TRUE(server.Start().ok());

  Result<HttpResponse> scraped = HttpGet(server.port(), "/metrics");
  ASSERT_TRUE(scraped.ok()) << scraped.status();
  ASSERT_EQ(scraped->status, 200);
  EXPECT_NE(scraped->content_type.find("text/plain"), std::string::npos);

  Result<MetricsSamples> wire = ParseMetricsPrometheusText(scraped->body);
  ASSERT_TRUE(wire.ok()) << wire.status();
  Result<MetricsSamples> in_process = ParseMetricsJson(metrics.ToJson());
  ASSERT_TRUE(in_process.ok()) << in_process.status();
  ASSERT_FALSE(wire->empty());
  EXPECT_EQ(*wire, *in_process);

  // /varz must be the very same export the parity held against.
  Result<HttpResponse> varz = HttpGet(server.port(), "/varz");
  ASSERT_TRUE(varz.ok()) << varz.status();
  Result<MetricsSamples> varz_samples = ParseMetricsJson(varz->body);
  ASSERT_TRUE(varz_samples.ok()) << varz_samples.status();
  EXPECT_EQ(*varz_samples, *wire);
}

// /healthz must flip 200 -> 503 when a chaos schedule forces degraded
// mode, and heal back to 200 after a successful checkpoint — all
// against the same server instance, never restarted.
TEST(StatsServerTest, HealthzFlipsOnDegradeWithoutServerRestart) {
  using FaultKind = FaultInjectingFileOps::FaultKind;
  using FaultOp = FaultInjectingFileOps::FaultOp;

  FaultInjectingFileOps fs;
  DatabaseOptions db_opts;
  Result<Database> db = Database::Open("/db", db_opts, &fs);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->Load("a[v->1].").ok());

  // The health callback runs on the server thread; the test mutates the
  // database only between (blocking) scrapes, but the mutex keeps the
  // discipline the shell uses.
  std::mutex mu;
  StatsServerOptions opts;
  opts.health = [&]() {
    std::lock_guard<std::mutex> lock(mu);
    DatabaseHealth h = db->Health();
    ServingHealth sh;
    sh.ok = !h.degraded;
    sh.detail = h.degraded_cause;
    return sh;
  };
  StatsServer server(opts);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  Result<HttpResponse> healthy = HttpGet(port, "/healthz");
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_EQ(healthy->status, 200);
  EXPECT_EQ(healthy->body, "ok\n");

  // Persistent WAL fault: the device is gone, the next commit degrades.
  {
    std::lock_guard<std::mutex> lock(mu);
    FaultInjectingFileOps::FaultSchedule sched;
    sched.events.push_back(FaultInjectingFileOps::FaultEvent{
        FaultOp::kAppend, 1, 1, FaultKind::kFail, StatusCode::kInternal});
    fs.SetSchedule(sched);
    EXPECT_EQ(db->Load("b[v->2].").code(), StatusCode::kUnavailable);
    EXPECT_TRUE(db->degraded());
  }

  Result<HttpResponse> sick = HttpGet(port, "/healthz");
  ASSERT_TRUE(sick.ok()) << sick.status();
  EXPECT_EQ(sick->status, 503);
  EXPECT_NE(sick->body.find("unhealthy"), std::string::npos);

  // Space returns; the checkpoint probe heals the database, and the
  // same listener reports healthy again.
  {
    std::lock_guard<std::mutex> lock(mu);
    fs.SetSchedule(FaultInjectingFileOps::FaultSchedule{});
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_FALSE(db->degraded());
  }
  Result<HttpResponse> healed = HttpGet(port, "/healthz");
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(healed->status, 200);
  EXPECT_EQ(server.port(), port) << "the listener must never restart";
  EXPECT_GE(server.requests_served(), 3u);
}

// Falling back to the degraded gauge when no health callback is set.
TEST(StatsServerTest, HealthzFallsBackToDegradedGauge) {
  MetricsRegistry metrics;
  StatsServerOptions opts;
  opts.metrics = &metrics;
  StatsServer server(opts);

  EXPECT_EQ(server.HandleRequest("/healthz").status, 200);
  metrics.GetGauge("pathlog_db_degraded")->Set(1);
  EXPECT_EQ(server.HandleRequest("/healthz").status, 503);
  metrics.GetGauge("pathlog_db_degraded")->Set(0);
  EXPECT_EQ(server.HandleRequest("/healthz").status, 200);
}

// ---------------------------------------------------------------------------
// Query-log schema across every src/workload/ scenario.

/// Asserts one serialised query-log line matches the documented
/// schema: required keys, right JSON types, kind in the closed set.
void ExpectValidQueryLogRecord(const std::string& line) {
  Result<JsonValue> v = ParseJson(line);
  ASSERT_TRUE(v.ok()) << v.status() << "\nline: " << line;
  ASSERT_TRUE(v->is_object());
  for (const char* key : {"ts_ms", "latency_ms", "rows"}) {
    const JsonValue* f = v->Find(key);
    ASSERT_NE(f, nullptr) << key << "\nline: " << line;
    EXPECT_TRUE(f->is_number()) << key;
  }
  for (const char* key : {"kind", "query", "status", "strategy",
                          "plan_fingerprint"}) {
    const JsonValue* f = v->Find(key);
    ASSERT_NE(f, nullptr) << key << "\nline: " << line;
    EXPECT_TRUE(f->is_string()) << key;
  }
  const std::string& kind = v->Find("kind")->as_string();
  EXPECT_TRUE(kind == "query" || kind == "eval" || kind == "holds") << kind;
  const JsonValue* slow = v->Find("slow");
  ASSERT_NE(slow, nullptr);
  EXPECT_TRUE(slow->is_bool());

  const JsonValue* budget = v->Find("budget");
  ASSERT_NE(budget, nullptr) << line;
  ASSERT_TRUE(budget->is_object());
  for (const char* key : {"derivations", "store_bytes", "wall_ms"}) {
    const JsonValue* f = budget->Find(key);
    ASSERT_NE(f, nullptr) << key;
    EXPECT_TRUE(f->is_number()) << key;
  }
  ASSERT_NE(budget->Find("rejected"), nullptr);
  EXPECT_TRUE(budget->Find("rejected")->is_bool());

  const JsonValue* routes = v->Find("routes");
  ASSERT_NE(routes, nullptr) << line;
  ASSERT_TRUE(routes->is_object());
  for (const char* key : {"inverted_probes", "extent_scans",
                          "universe_scans", "duplicates_suppressed"}) {
    const JsonValue* f = routes->Find(key);
    ASSERT_NE(f, nullptr) << key;
    EXPECT_TRUE(f->is_number()) << key;
  }
}

TEST(QueryLogSchemaTest, CompanyWorkload) {
  QueryLog log{QueryLogOptions{}};
  DatabaseOptions opts;
  opts.engine.obs.query_log = &log;
  Database db(opts);
  CompanyConfig cfg;
  cfg.num_employees = 50;
  GenerateCompany(&db.store(), cfg);

  Result<ResultSet> rs = db.Query("?- X:employee[age->A].");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_GT(rs->size(), 0u);
  ASSERT_TRUE(db.Eval("emp0.age").ok());
  ASSERT_TRUE(db.Holds("emp0 : employee").ok());

  std::vector<std::string> recent = log.Recent();
  ASSERT_EQ(recent.size(), 3u);
  for (const std::string& line : recent) ExpectValidQueryLogRecord(line);

  // Kinds land in order, and the query record carries a plan
  // fingerprint (eval/holds have no conjunctive plan, so theirs is "").
  Result<JsonValue> first = ParseJson(recent[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->Find("kind")->as_string(), "query");
  EXPECT_EQ(first->Find("plan_fingerprint")->as_string().size(), 8u);
  EXPECT_GT(first->Find("rows")->as_number(), 0.0);
}

TEST(QueryLogSchemaTest, PeopleWorkload) {
  QueryLog log{QueryLogOptions{}};
  FlightRecorder flight(64);
  DatabaseOptions opts;
  opts.engine.obs.query_log = &log;
  opts.engine.obs.flight = &flight;
  Database db(opts);
  PeopleConfig cfg;
  cfg.num_persons = 40;
  GeneratePeople(&db.store(), cfg);

  ASSERT_TRUE(db.Query("?- X:person[city->C].").ok());
  ASSERT_TRUE(db.Eval("person0.city").ok());
  ASSERT_TRUE(db.Holds("person0 : person").ok());
  // A failing operation must still produce a schema-valid record with
  // its error code as the status — a malformed query included.
  EXPECT_FALSE(db.Eval("person0..").ok());
  EXPECT_FALSE(db.Query("?- X:person[city->").ok());

  std::vector<std::string> recent = log.Recent();
  ASSERT_EQ(recent.size(), 5u);
  for (const std::string& line : recent) ExpectValidQueryLogRecord(line);
  for (size_t i = 3; i < recent.size(); ++i) {
    Result<JsonValue> failed = ParseJson(recent[i]);
    ASSERT_TRUE(failed.ok());
    EXPECT_NE(failed->Find("status")->as_string(), "ok") << recent[i];
  }
  Result<JsonValue> last = ParseJson(recent.back());
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->Find("kind")->as_string(), "query");
  EXPECT_EQ(last->Find("query")->as_string(), "?- X:person[city->");

  // One db.<kind> flight span per call, failed calls included.
  size_t read_spans = 0;
  for (const FlightEvent& e : flight.Snapshot()) {
    if (e.name == "db.query" || e.name == "db.eval" || e.name == "db.holds") {
      ++read_spans;
    }
  }
  EXPECT_EQ(read_spans, 5u);
}

TEST(QueryLogSchemaTest, KinshipWorkloads) {
  QueryLog log{QueryLogOptions{}};
  DatabaseOptions opts;
  opts.engine.obs.query_log = &log;
  Database db(opts);
  GenerateChain(&db.store(), 12);
  GenerateTree(&db.store(), 15, 2);
  GenerateRandomDag(&db.store(), 30, 2.0, 11);
  ASSERT_TRUE(db.Load("X[desc->>{Y}] <- X[kids->>{Y}]. "
                      "X[desc->>{Z}] <- X[kids->>{Y}], Y[desc->>{Z}].")
                  .ok());

  ASSERT_TRUE(db.Query("?- p0[desc->>{D}].").ok());
  ASSERT_TRUE(db.Query("?- t0[desc->>{D}].").ok());
  ASSERT_TRUE(db.Eval("d0..kids").ok());
  ASSERT_TRUE(db.Holds("p0[desc->>{p1}]").ok());

  std::vector<std::string> recent = log.Recent();
  ASSERT_EQ(recent.size(), 4u);
  for (const std::string& line : recent) ExpectValidQueryLogRecord(line);
}

// The query log reaches /querylogz through a live server: the endpoint
// serves the same serialised records Recent() returns.
TEST(QueryLogSchemaTest, QuerylogzServesTheRecentRing) {
  QueryLog log{QueryLogOptions{}};
  DatabaseOptions opts;
  opts.engine.obs.query_log = &log;
  Database db(opts);
  ASSERT_TRUE(db.Load("a[v->1].").ok());
  ASSERT_TRUE(db.Query("?- a[v->V].").ok());

  StatsServerOptions server_opts;
  server_opts.query_log = &log;
  StatsServer server(server_opts);
  ASSERT_TRUE(server.Start().ok());
  Result<HttpResponse> rsp = HttpGet(server.port(), "/querylogz");
  ASSERT_TRUE(rsp.ok()) << rsp.status();
  Result<JsonValue> v = ParseJson(rsp->body);
  ASSERT_TRUE(v.ok()) << v.status();
  const JsonValue* records = v->Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->items().size(), 1u);
  EXPECT_EQ(records->items()[0].Find("kind")->as_string(), "query");
}

}  // namespace
}  // namespace pathlog
