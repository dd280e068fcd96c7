// The concurrency contract under fire (run under TSan by ci/check.sh).
//
// Exercises every guarantee docs/IMPLEMENTATION.md ("Concurrency
// contract") makes: concurrent read-only Query/Eval/Holds against a
// concurrent mutator answer exactly what some serial execution would
// (the differential invariant — answers match a prefix state and grow
// monotonically per reader); degraded()/Health() are readable from any
// thread while the writer enters and leaves degraded mode; the stats
// server's endpoints scrape live sinks during a degrade/heal cycle;
// the flight recorder survives span storms racing Snapshot/Reset; the
// query log rotates under concurrent appends without losing a record;
// Histogram's relaxed-atomic export is exact once writers quiesce; and
// StatsServer's Stop() joins the accept thread before borrowed sinks
// can be destroyed; and budgeted readers, each call in its own budget
// window, race nothing while another thread cancels them.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/stats_server.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "query/database.h"
#include "store/file_ops.h"

namespace pathlog {
namespace {

// ---------------------------------------------------------------------------
// Readers vs writer: the differential invariant.

/// The program applied before any concurrency starts: interns every
/// name the readers' queries mention, so their fast path stays pure.
constexpr char kBaseProgram[] =
    "e0 : employee. e0[salary->100].\n"
    "X[paid->1] <- X:employee[salary->S].\n";

/// Batch k asserts one more employee; the reader query's answer count
/// after batch k is exactly k+1.
std::string Batch(int k) {
  const std::string name = "e" + std::to_string(k);
  return name + " : employee. " + name + "[salary->" +
         std::to_string(100 + k) + "].";
}

TEST(ConcurrencyTest, ReadersMatchSomeSerialPrefixState) {
  constexpr int kBatches = 12;
  constexpr int kReaders = 4;

  // Serial oracle: the exact answer counts after each batch.
  std::set<uint64_t> serial_counts;
  {
    Database oracle;
    ASSERT_TRUE(oracle.Load(kBaseProgram).ok());
    Result<ResultSet> rs = oracle.Query("?- X:employee[salary->S].");
    ASSERT_TRUE(rs.ok()) << rs.status();
    serial_counts.insert(rs->size());
    for (int k = 1; k <= kBatches; ++k) {
      ASSERT_TRUE(oracle.Load(Batch(k)).ok());
      rs = oracle.Query("?- X:employee[salary->S].");
      ASSERT_TRUE(rs.ok()) << rs.status();
      serial_counts.insert(rs->size());
    }
  }

  Database db;
  ASSERT_TRUE(db.Load(kBaseProgram).ok());
  ASSERT_TRUE(db.Materialize().ok());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &done, &failures, &serial_counts] {
      uint64_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        Result<ResultSet> rs = db.Query("?- X:employee[salary->S].");
        if (!rs.ok()) {
          ++failures;
          return;
        }
        const uint64_t n = rs->size();
        // Differential invariant: every concurrent answer is the
        // answer of some serial prefix execution, and the store is
        // monotone, so each reader's view never shrinks.
        if (serial_counts.count(n) == 0 || n < last) {
          ++failures;
          return;
        }
        last = n;
      }
    });
  }

  for (int k = 1; k <= kBatches; ++k) {
    ASSERT_TRUE(db.Load(Batch(k)).ok());
    ASSERT_TRUE(db.Materialize().ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiesced: concurrent execution converged on the serial answer.
  Result<ResultSet> final_rs = db.Query("?- X:employee[salary->S].");
  ASSERT_TRUE(final_rs.ok());
  EXPECT_EQ(final_rs->size(), static_cast<size_t>(kBatches) + 1);
}

TEST(ConcurrencyTest, ReadersVsDurableWriterWithCheckpoints) {
  constexpr int kBatches = 8;
  FaultInjectingFileOps fs;
  Result<Database> opened = Database::Open("/db", {}, &fs);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Database db = std::move(*opened);
  ASSERT_TRUE(db.Load(kBaseProgram).ok());
  ASSERT_TRUE(db.Materialize().ok());
  // Prime the readers' references once so their names are interned and
  // committed; afterwards the readers are provably read-only.
  ASSERT_TRUE(db.Holds("e0[salary->100]").ok());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&db, &done, &failures] {
      while (!done.load(std::memory_order_acquire)) {
        Result<bool> h = db.Holds("e0[salary->100]");
        Result<std::vector<Oid>> e = db.Eval("e0.salary");
        if (!h.ok() || !*h || !e.ok() || e->size() != 1) {
          ++failures;
          return;
        }
        DatabaseHealth health = db.Health();
        if (health.degraded) {
          ++failures;
          return;
        }
      }
    });
  }

  for (int k = 1; k <= kBatches; ++k) {
    ASSERT_TRUE(db.Load(Batch(k)).ok());
    ASSERT_TRUE(db.Materialize().ok());
    if (k % 2 == 0) {
      ASSERT_TRUE(db.Checkpoint().ok());
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Recovery sees everything the concurrent run committed.
  Result<Database> reopened = Database::Open("/db", {}, &fs);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  Result<ResultSet> rs = reopened->Query("?- X:employee[salary->S].");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->size(), static_cast<size_t>(kBatches) + 1);
}

// ---------------------------------------------------------------------------
// Budgeted readers: every call builds its own budget window from the
// database's limits, so concurrent readers share no budget state; only
// the CancelToken's flag is shared, and it is atomic.

TEST(ConcurrencyTest, BudgetedReadersShareNoBudgetState) {
  constexpr int kReaders = 4;
  constexpr int kCallsPerReader = 200;
  CancelToken token;
  MetricsRegistry reg;
  DatabaseOptions opts;
  opts.engine.limits.max_wall_ms = 600'000;
  opts.engine.limits.max_derivations = 1'000'000;
  opts.engine.limits.token = token;
  opts.engine.obs.metrics = &reg;
  Database db(opts);
  ASSERT_TRUE(db.Load(kBaseProgram).ok());
  ASSERT_TRUE(db.Load(Batch(1)).ok());

  // The serial answers. These first reads materialise and intern, so
  // every later read of the same text stays on the shared-lock path.
  Result<ResultSet> query = db.Query("?- X:employee[salary->S].");
  Result<std::vector<Oid>> eval = db.Eval("e1.salary");
  Result<bool> holds = db.Holds("e1[paid->1]");
  ASSERT_TRUE(query.ok() && eval.ok() && holds.ok());
  ASSERT_EQ(query->size(), 2u);
  ASSERT_EQ(eval->size(), 1u);
  ASSERT_TRUE(*holds);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> cancelled{0};
  std::thread canceller([&token, &done] {
    while (!done.load(std::memory_order_acquire)) {
      token.Cancel();
      std::this_thread::yield();
      token.Reset();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Each read must give its serial answer or kCancelled.
      auto settle = [&](const Status& st, bool serial) {
        if (st.code() == StatusCode::kCancelled) {
          ++cancelled;
        } else if (!st.ok() || !serial) {
          ++failures;
        }
      };
      for (int i = 0; i < kCallsPerReader; ++i) {
        switch ((i + r) % 3) {
          case 0: {
            Result<ResultSet> rs = db.Query("?- X:employee[salary->S].");
            settle(rs.status(), rs.ok() && rs->rows() == query->rows());
            break;
          }
          case 1: {
            Result<std::vector<Oid>> e = db.Eval("e1.salary");
            settle(e.status(), e.ok() && *e == *eval);
            break;
          }
          default: {
            Result<bool> h = db.Holds("e1[paid->1]");
            settle(h.status(), h.ok() && *h);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  done.store(true, std::memory_order_release);
  canceller.join();
  token.Reset();
  EXPECT_EQ(failures.load(), 0);
  // One rejection per cancelled call, counted by the call's window.
  EXPECT_EQ(reg.GetCounter("pathlog_budget_rejections_total")->value(),
            cancelled.load());
}

// ---------------------------------------------------------------------------
// Degrade/heal while other threads read health and scrape endpoints.

using FaultKind = FaultInjectingFileOps::FaultKind;
using FaultOp = FaultInjectingFileOps::FaultOp;
using FaultEvent = FaultInjectingFileOps::FaultEvent;
using FaultSchedule = FaultInjectingFileOps::FaultSchedule;

TEST(ConcurrencyTest, DegradeHealCycleUnderConcurrentScrapes) {
  FaultInjectingFileOps fs;
  MetricsRegistry metrics;
  FlightRecorder flight(64);
  QueryLog query_log{QueryLogOptions{}};  // in-memory: no fs contention

  DatabaseOptions opts;
  opts.engine.obs.metrics = &metrics;
  opts.engine.obs.flight = &flight;
  opts.engine.obs.query_log = &query_log;
  opts.durability.max_transient_retries = 0;  // degrade immediately
  Result<Database> opened = Database::Open("/db", opts, &fs);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Database db = std::move(*opened);
  ASSERT_TRUE(db.Load(kBaseProgram).ok());
  ASSERT_TRUE(db.Materialize().ok());
  ASSERT_TRUE(db.Holds("e0[salary->100]").ok());

  StatsServerOptions server_opts;
  server_opts.metrics = &metrics;
  server_opts.flight = &flight;
  server_opts.query_log = &query_log;
  server_opts.health = [&db]() {
    // The satellite regression: Health()/degraded() from a non-writer
    // thread while the writer enters/leaves degraded mode.
    DatabaseHealth h = db.Health();
    ServingHealth s;
    s.ok = !h.degraded;
    s.detail = h.degraded_cause;
    return s;
  };
  StatsServer server(server_opts);  // HandleRequest needs no socket

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  // Readers: answers survive every degrade/heal transition.
  for (int r = 0; r < 2; ++r) {
    workers.emplace_back([&db, &done, &failures] {
      while (!done.load(std::memory_order_acquire)) {
        Result<bool> h = db.Holds("e0[salary->100]");
        if (!h.ok() || !*h) {
          ++failures;
          return;
        }
        (void)db.degraded();
        (void)db.Health();
      }
    });
  }
  // Scrapers: every endpoint, continuously.
  workers.emplace_back([&server, &done, &failures] {
    const std::string paths[] = {"/metrics", "/healthz", "/statusz",
                                 "/tracez", "/querylogz", "/varz"};
    while (!done.load(std::memory_order_acquire)) {
      for (const std::string& p : paths) {
        HttpResponse rsp = server.HandleRequest(p);
        if (rsp.status != 200 && rsp.status != 503) {
          ++failures;
          return;
        }
      }
    }
  });

  // Writer (this thread): three degrade/heal cycles.
  for (int cycle = 0; cycle < 3; ++cycle) {
    FaultSchedule s;
    s.events.push_back(FaultEvent{FaultOp::kAppend, 1, 1u << 20,
                                  FaultKind::kFail, StatusCode::kInternal});
    fs.SetSchedule(s);
    Status st = db.Load("probe" + std::to_string(cycle) + " : employee.");
    EXPECT_FALSE(st.ok());
    EXPECT_TRUE(db.degraded());
    EXPECT_FALSE(db.Load("x : employee.").ok());  // fail-fast while down

    fs.SetSchedule(FaultSchedule{});
    ASSERT_TRUE(db.Checkpoint().ok());  // the recovery probe
    EXPECT_FALSE(db.degraded());
    ASSERT_TRUE(db.Load("heal" + std::to_string(cycle) +
                        " : employee. heal" + std::to_string(cycle) +
                        "[salary->7].")
                    .ok());
    // Drain the dirty window before the next SetSchedule: once this
    // Materialize returns, readers are back on the shared-lock fast
    // path and this thread is the only one touching the fake fs.
    ASSERT_TRUE(db.Materialize().ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_FALSE(db.Health().degraded);
  EXPECT_GE(db.Health().degraded_entries, 3u);
}

// ---------------------------------------------------------------------------
// Flight recorder: span storms racing Snapshot/ToTraceJson/Reset.

TEST(ConcurrencyTest, FlightRecorderSpanStorm) {
  FlightRecorder flight(32);
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&flight, &done, w] {
      int i = 0;
      while (!done.load(std::memory_order_acquire)) {
        {
          FlightSpan span(&flight, "storm.span", "test");
          flight.Record("storm.instant", "test", 0,
                        "{\"writer\":" + std::to_string(w) + "}");
        }
        if (++i % 64 == 0) std::this_thread::yield();
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    std::vector<FlightEvent> events = flight.Snapshot();
    if (events.size() > 32) ++failures;
    for (size_t j = 1; j < events.size(); ++j) {
      if (events[j].seq <= events[j - 1].seq) ++failures;
    }
    Result<JsonValue> parsed = ParseJson(flight.ToTraceJson());
    if (!parsed.ok()) ++failures;
    if (i % 50 == 0) flight.Reset();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Query log: concurrent appends across rotation lose nothing.

TEST(ConcurrencyTest, QueryLogConcurrentAppendsAcrossRotation) {
  FaultInjectingFileOps fs;
  QueryLogOptions opts;
  opts.path = "/log/q.jsonl";
  opts.rotate_bytes = 4096;  // many rotations in a short run
  opts.recent_capacity = 16;
  opts.fops = &fs;
  QueryLog log(opts);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> appenders;
  for (int t = 0; t < kThreads; ++t) {
    appenders.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryLogRecord rec;
        rec.kind = "query";
        rec.query = "?- thread" + std::to_string(t) + "_" +
                    std::to_string(i) + ".";
        rec.latency_ms = 1.0;
        (void)log.Append(std::move(rec));
        if (i % 32 == 0) (void)log.Recent(8);  // concurrent ring reads
      }
    });
  }
  for (std::thread& t : appenders) t.join();

  EXPECT_TRUE(log.file_error().ok()) << log.file_error();
  EXPECT_EQ(log.records_written(), uint64_t{kThreads} * kPerThread);
  EXPECT_GT(log.rotations(), 0u);
  EXPECT_EQ(log.Recent(16).size(), 16u);
}

// ---------------------------------------------------------------------------
// Histogram: relaxed atomics, exact once writers quiesce.

TEST(ConcurrencyTest, HistogramConcurrentObserveExactAfterQuiesce) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("pathlog_test_ms",
                                       DefaultLatencyBoundsMs());
  ASSERT_NE(h, nullptr);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::atomic<bool> done{false};
  // A concurrent exporter: estimates may tear between series, but must
  // never crash or race (the TSan assertion).
  std::thread exporter([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)h->Quantile(0.99);
      (void)registry.ToPrometheusText();
    }
  });
  std::vector<std::thread> observers;
  for (int t = 0; t < kThreads; ++t) {
    observers.emplace_back([h] {
      for (int i = 0; i < kPerThread; ++i) h->Observe(1.0);
    });
  }
  for (std::thread& t : observers) t.join();
  done.store(true, std::memory_order_release);
  exporter.join();

  // Quiesced: exported count equals the sum of per-thread observations.
  EXPECT_EQ(h->total_count(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->sum(), static_cast<double>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i <= h->bounds().size(); ++i) {
    bucket_total += h->bucket_count(i);
  }
  EXPECT_EQ(bucket_total, uint64_t{kThreads} * kPerThread);
}

// ---------------------------------------------------------------------------
// StatsServer lifecycle: Stop() joins before borrowed sinks die.

TEST(ConcurrencyTest, StatsServerStopsBeforeSinksAreDestroyed) {
  // Destruction order is the contract: members declared after the
  // sinks are destroyed first, so the server (and its accept thread)
  // is gone before the sinks it borrows.
  MetricsRegistry metrics;
  metrics.GetCounter("pathlog_test_total")->Inc();
  FlightRecorder flight(8);
  StatsServerOptions opts;
  opts.metrics = &metrics;
  opts.flight = &flight;
  StatsServer server(opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);
  Result<HttpResponse> rsp = HttpGet(server.port(), "/metrics");
  ASSERT_TRUE(rsp.ok()) << rsp.status();
  EXPECT_EQ(rsp->status, 200);
  // Scope exit: ~StatsServer → Stop() → join, then the sinks.
}

TEST(ConcurrencyTest, StatsServerConcurrentStopIsIdempotent) {
  MetricsRegistry metrics;
  StatsServerOptions opts;
  opts.metrics = &metrics;
  StatsServer server(opts);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());

  std::vector<std::thread> stoppers;
  for (int i = 0; i < 3; ++i) {
    stoppers.emplace_back([&server] { server.Stop(); });
  }
  for (std::thread& t : stoppers) t.join();
  EXPECT_FALSE(server.running());

  // Restart after a concurrent shutdown storm still works.
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  HttpResponse healthz = server.HandleRequest("/healthz");
  EXPECT_EQ(healthz.status, 200);
  server.Stop();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace pathlog
