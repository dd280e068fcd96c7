// Experiment E6.4/tc: transitive closure (`desc` and the generic
// `kids.tc`).
//
// Ablations:
//   Naive vs SemiNaiveRules   evaluation strategy (DESIGN.md ablation);
//   Chain / Tree / RandomDag  closure density;
//   Specialized vs Generic    the paper's desc rules vs the
//                             higher-order-style (M.tc) rules.
//
// Expected shape: semi-naive (predicate-level change propagation)
// never loses; the generic program pays a constant factor over the
// specialised one for the same answers (method objects resolved per
// derivation); chain graphs are the worst case (Theta(n^2) closure).

#include <benchmark/benchmark.h>

#include <ctime>

#include "base/budget.h"
#include "bench_util.h"
#include "obs/flight_recorder.h"
#include "obs/query_log.h"
#include "workload/kinship.h"

namespace pathlog {
namespace {

constexpr const char* kDescRules = R"(
  X[desc->>{Y}] <- X[kids->>{Y}].
  X[desc->>{Y}] <- X..desc[kids->>{Y}].
)";
constexpr const char* kGenericTcRules = R"(
  X[(M.tc)->>{Y}] <- X[M->>{Y}].
  X[(M.tc)->>{Y}] <- X..(M.tc)[M->>{Y}].
)";

enum class Shape { kChain, kTree, kDag };

void BuildGraph(ObjectStore* store, Shape shape, int64_t n) {
  switch (shape) {
    case Shape::kChain:
      GenerateChain(store, static_cast<uint32_t>(n));
      break;
    case Shape::kTree:
      GenerateTree(store, static_cast<uint32_t>(n), 3);
      break;
    case Shape::kDag:
      GenerateRandomDag(store, static_cast<uint32_t>(n), 2.0, 99);
      break;
  }
}

void RunTc(benchmark::State& state, Shape shape, EvalStrategy strategy,
           const char* rules) {
  for (auto _ : state) {
    state.PauseTiming();
    DatabaseOptions opts;
    opts.engine.strategy = strategy;
    Database db(opts);
    BuildGraph(&db.store(), shape, state.range(0));
    bench::Check(db.Load(rules), "load rules");
    state.ResumeTiming();
    bench::Check(db.Materialize(), "materialize");
    benchmark::DoNotOptimize(db.engine_stats().derivations);
    state.counters["derivations"] =
        static_cast<double>(db.engine_stats().derivations);
    state.counters["iterations"] =
        static_cast<double>(db.engine_stats().iterations);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Tc_Chain_Naive(benchmark::State& state) {
  RunTc(state, Shape::kChain, EvalStrategy::kNaive, kDescRules);
}
BENCHMARK(BM_Tc_Chain_Naive)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_Tc_Chain_SemiNaive(benchmark::State& state) {
  RunTc(state, Shape::kChain, EvalStrategy::kSemiNaiveRules, kDescRules);
}
BENCHMARK(BM_Tc_Chain_SemiNaive)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_Tc_Chain_DeltaSemiNaive(benchmark::State& state) {
  RunTc(state, Shape::kChain, EvalStrategy::kSemiNaiveDelta, kDescRules);
}
BENCHMARK(BM_Tc_Chain_DeltaSemiNaive)->Arg(50)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_Tc_Tree_Naive(benchmark::State& state) {
  RunTc(state, Shape::kTree, EvalStrategy::kNaive, kDescRules);
}
BENCHMARK(BM_Tc_Tree_Naive)->Arg(200)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_Tc_Tree_SemiNaive(benchmark::State& state) {
  RunTc(state, Shape::kTree, EvalStrategy::kSemiNaiveRules, kDescRules);
}
BENCHMARK(BM_Tc_Tree_SemiNaive)->Arg(200)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_Tc_Tree_DeltaSemiNaive(benchmark::State& state) {
  RunTc(state, Shape::kTree, EvalStrategy::kSemiNaiveDelta, kDescRules);
}
BENCHMARK(BM_Tc_Tree_DeltaSemiNaive)->Arg(200)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_Tc_Dag_Naive(benchmark::State& state) {
  RunTc(state, Shape::kDag, EvalStrategy::kNaive, kDescRules);
}
BENCHMARK(BM_Tc_Dag_Naive)->Arg(100)->Arg(300)->Arg(600)
    ->Unit(benchmark::kMillisecond);

void BM_Tc_Dag_SemiNaive(benchmark::State& state) {
  RunTc(state, Shape::kDag, EvalStrategy::kSemiNaiveRules, kDescRules);
}
BENCHMARK(BM_Tc_Dag_SemiNaive)->Arg(100)->Arg(300)->Arg(600)
    ->Unit(benchmark::kMillisecond);

void BM_Tc_Dag_DeltaSemiNaive(benchmark::State& state) {
  RunTc(state, Shape::kDag, EvalStrategy::kSemiNaiveDelta, kDescRules);
}
BENCHMARK(BM_Tc_Dag_DeltaSemiNaive)->Arg(100)->Arg(300)->Arg(600)
    ->Unit(benchmark::kMillisecond);

void BM_Tc_Generic_Chain(benchmark::State& state) {
  RunTc(state, Shape::kChain, EvalStrategy::kSemiNaiveRules, kGenericTcRules);
}
BENCHMARK(BM_Tc_Generic_Chain)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_Tc_Generic_Tree(benchmark::State& state) {
  RunTc(state, Shape::kTree, EvalStrategy::kSemiNaiveRules, kGenericTcRules);
}
BENCHMARK(BM_Tc_Generic_Tree)->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// Observability overhead twins: the same workload with the metrics
// registry attached vs detached. ci/bench_smoke.sh gates on the
// ratio — the disabled path must stay within 5% of the enabled one
// (instrumentation is per-run, not per-tuple, so the true overhead
// is far below that; the gate catches obs accidentally moving into
// the hot loop).
void RunTcObs(benchmark::State& state, bool obs_enabled) {
  for (auto _ : state) {
    state.PauseTiming();
    DatabaseOptions opts;
    opts.engine.strategy = EvalStrategy::kSemiNaiveRules;
    Database db(opts);
    if (obs_enabled) {
      ObsSinks sinks;
      sinks.metrics = &bench::BenchMetrics();
      db.SetObsSinks(sinks);
    }
    BuildGraph(&db.store(), Shape::kTree, state.range(0));
    bench::Check(db.Load(kDescRules), "load rules");
    state.ResumeTiming();
    bench::Check(db.Materialize(), "materialize");
    benchmark::DoNotOptimize(db.engine_stats().derivations);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Tc_Tree_ObsOff(benchmark::State& state) { RunTcObs(state, false); }
BENCHMARK(BM_Tc_Tree_ObsOff)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_Tc_Tree_ObsOn(benchmark::State& state) { RunTcObs(state, true); }
BENCHMARK(BM_Tc_Tree_ObsOn)->Arg(1000)->Unit(benchmark::kMillisecond);

// Resource-budget overhead twins: the same materialisation under a
// never-tripping set of limits (every dimension set, wall clock
// included) vs the default limits (facts and objects ceilings only, no
// clock read). Every call's window is polled per rule evaluation and
// every ~1k derivations or enumeration steps, never per tuple, so
// ci/bench_smoke.sh holds the twins to the same 5% agreement the obs
// twins get.
ResourceLimits NeverTrippingLimits() {
  return ResourceLimits{.max_store_bytes = 1ull << 40,
                        .max_derivations = 1ull << 40,
                        .max_wall_ms = 600'000};
}

void RunTcBudget(benchmark::State& state, bool budget_enabled) {
  for (auto _ : state) {
    state.PauseTiming();
    DatabaseOptions opts;
    opts.engine.strategy = EvalStrategy::kSemiNaiveRules;
    if (budget_enabled) opts.engine.limits = NeverTrippingLimits();
    Database db(opts);
    BuildGraph(&db.store(), Shape::kTree, state.range(0));
    bench::Check(db.Load(kDescRules), "load rules");
    state.ResumeTiming();
    bench::Check(db.Materialize(), "materialize");
    benchmark::DoNotOptimize(db.engine_stats().derivations);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Engine_BudgetChecksOff(benchmark::State& state) {
  RunTcBudget(state, false);
}
BENCHMARK(BM_Engine_BudgetChecksOff)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_Engine_BudgetChecksOn(benchmark::State& state) {
  RunTcBudget(state, true);
}
BENCHMARK(BM_Engine_BudgetChecksOn)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// Paired overhead rows: the twins above report absolute times, but on
// a shared CI core the machine's speed drifts faster than the twins
// run, so two separately-timed blocks cannot resolve a 5% difference.
// Each iteration here times the enabled and disabled variants
// back-to-back in ABBA order (cancels linear drift) on the thread CPU
// clock (ignores preemption), and exports the on/off ratio as a
// counter — ci/bench_smoke.sh gates on the median ratio across
// repetitions.
double ThreadCpuMs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double TimedMaterializeMs(bool budget_on, bool obs_on, int64_t n) {
  DatabaseOptions opts;
  opts.engine.strategy = EvalStrategy::kSemiNaiveRules;
  if (budget_on) opts.engine.limits = NeverTrippingLimits();
  Database db(opts);
  if (obs_on) {
    ObsSinks sinks;
    sinks.metrics = &bench::BenchMetrics();
    db.SetObsSinks(sinks);
  }
  BuildGraph(&db.store(), Shape::kTree, n);
  bench::Check(db.Load(kDescRules), "load rules");
  const double t0 = ThreadCpuMs();
  bench::Check(db.Materialize(), "materialize");
  const double ms = ThreadCpuMs() - t0;
  benchmark::DoNotOptimize(db.engine_stats().derivations);
  return ms;
}

// Full serving-diagnostics twin: metrics + flight recorder + an
// in-memory query log — the sinks `\stats_server` wires up — timing a
// materialisation plus one closure lookup so the query-log append path
// is exercised, not just the engine spans.
double TimedDiagMs(bool diag_on, int64_t n) {
  DatabaseOptions opts;
  opts.engine.strategy = EvalStrategy::kSemiNaiveRules;
  Database db(opts);
  FlightRecorder flight(256);
  QueryLog query_log(QueryLogOptions{});
  if (diag_on) {
    ObsSinks sinks;
    sinks.metrics = &bench::BenchMetrics();
    sinks.flight = &flight;
    sinks.query_log = &query_log;
    db.SetObsSinks(sinks);
  }
  BuildGraph(&db.store(), Shape::kTree, n);
  bench::Check(db.Load(kDescRules), "load rules");
  const double t0 = ThreadCpuMs();
  bench::Check(db.Materialize(), "materialize");
  std::vector<Oid> descendants =
      bench::CheckResult(db.Eval("t0..desc"), "eval");
  const double ms = ThreadCpuMs() - t0;
  benchmark::DoNotOptimize(descendants);
  return ms;
}

enum class PairKind { kBudget, kObs, kDiag };

void RunPaired(benchmark::State& state, PairKind kind) {
  const int64_t n = state.range(0);
  auto run = [&](bool on) {
    switch (kind) {
      case PairKind::kBudget:
        return TimedMaterializeMs(on, false, n);
      case PairKind::kObs:
        return TimedMaterializeMs(false, on, n);
      case PairKind::kDiag:
        return TimedDiagMs(on, n);
    }
    return 0.0;
  };
  double off_ms = 0, on_ms = 0;
  for (auto _ : state) {
    off_ms += run(false);
    on_ms += run(true);
    on_ms += run(true);
    off_ms += run(false);
  }
  const double sides = 2.0 * static_cast<double>(state.iterations());
  state.counters["off_cpu_ms"] = off_ms / sides;
  state.counters["on_cpu_ms"] = on_ms / sides;
  state.counters["on_off_ratio"] = off_ms > 0 ? on_ms / off_ms : 0;
}

// Iterations are pinned (min_time would pick 1): a single ~20ms
// materialisation still carries ~10% cache/TLB noise on a shared
// core, so each repetition's ratio must average several pairs to be
// worth gating on.
void BM_Engine_BudgetChecksPaired(benchmark::State& state) {
  RunPaired(state, PairKind::kBudget);
}
BENCHMARK(BM_Engine_BudgetChecksPaired)->Arg(1000)->Iterations(6)
    ->Unit(benchmark::kMillisecond);

void BM_Tc_Tree_ObsPaired(benchmark::State& state) {
  RunPaired(state, PairKind::kObs);
}
BENCHMARK(BM_Tc_Tree_ObsPaired)->Arg(1000)->Iterations(6)
    ->Unit(benchmark::kMillisecond);

void BM_Tc_Tree_DiagPaired(benchmark::State& state) {
  RunPaired(state, PairKind::kDiag);
}
BENCHMARK(BM_Tc_Tree_DiagPaired)->Arg(1000)->Iterations(6)
    ->Unit(benchmark::kMillisecond);

// Querying the closure after materialisation: the paper's answer
// lookup `peter..(kids.tc)` as a point query.
void BM_Tc_ClosureLookup(benchmark::State& state) {
  Database db;
  BuildGraph(&db.store(), Shape::kTree, state.range(0));
  bench::Check(db.Load(kDescRules), "load rules");
  bench::Check(db.Materialize(), "materialize");
  size_t n = 0;
  for (auto _ : state) {
    std::vector<Oid> descendants =
        bench::CheckResult(db.Eval("t0..desc"), "eval");
    n = descendants.size();
    benchmark::DoNotOptimize(descendants);
  }
  state.counters["descendants"] = static_cast<double>(n);
}
BENCHMARK(BM_Tc_ClosureLookup)->Arg(1000)->Arg(5000);

// Concurrent readers on one shared Database: every thread runs the
// same closure lookup under the shared snapshot guard. Thread 0 owns
// setup/teardown (the documented google-benchmark idiom — the state
// loop's start barrier publishes the store to the other threads).
// Real time, not CPU time, is the honest scaling measure here.
Database* g_readers_db = nullptr;

void BM_Db_ConcurrentReaders(benchmark::State& state) {
  if (state.thread_index() == 0) {
    DatabaseOptions opts;
    opts.engine.strategy = EvalStrategy::kSemiNaiveRules;
    Database* db = new Database(opts);
    BuildGraph(&db->store(), Shape::kTree, state.range(0));
    bench::Check(db->Load(kDescRules), "load rules");
    bench::Check(db->Materialize(), "materialize");
    // Prime the lookup so every reader iteration stays on the
    // shared-lock fast path (names interned, nothing pending).
    bench::CheckResult(db->Eval("t0..desc"), "eval");
    g_readers_db = db;
  }
  for (auto _ : state) {
    std::vector<Oid> descendants =
        bench::CheckResult(g_readers_db->Eval("t0..desc"), "eval");
    benchmark::DoNotOptimize(descendants);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete g_readers_db;
    g_readers_db = nullptr;
  }
}
BENCHMARK(BM_Db_ConcurrentReaders)->Arg(1000)
    ->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pathlog
