// Shared helpers for the benchmark binaries.
//
// Each benchmark reproduces one experiment row of DESIGN.md /
// EXPERIMENTS.md: it builds the paper's scenario at the requested
// scale, runs the PathLog formulation and the baseline formulations of
// the same query, and reports answers/sec so the relative shape
// (who wins, where crossovers fall) is visible directly in the output.

#ifndef PATHLOG_BENCH_BENCH_UTIL_H_
#define PATHLOG_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "baseline/conjunctive.h"
#include "baseline/translate.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "query/database.h"
#include "store/file_ops.h"
#include "workload/company.h"

namespace pathlog {
namespace bench {

/// Aborts the benchmark binary on error — benchmarks must not silently
/// measure failure paths.
inline void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    fprintf(stderr, "FATAL in %s: %s\n", what, st.ToString().c_str());
    std::abort();
  }
}

template <typename T>
inline T CheckResult(Result<T> r, const char* what) {
  if (!r.ok()) {
    fprintf(stderr, "FATAL in %s: %s\n", what, r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

/// Writes the process-wide bench metrics registry as JSON to the path
/// in $PATHLOG_METRICS_OUT, if set. Registered atexit by
/// BenchMetrics() so a metrics JSON lands next to the BENCH_*.json
/// whenever ci/bench_smoke.sh asks for one.
inline void WriteBenchMetricsAtExit();

/// Process-wide metrics registry for benchmarks that measure the
/// observability-enabled path (the *_ObsOn twins). One registry per
/// binary: counters accumulate across all benchmark runs, which is
/// exactly what the exported JSON should show.
inline MetricsRegistry& BenchMetrics() {
  static MetricsRegistry* registry = [] {
    static MetricsRegistry r;
    std::atexit(WriteBenchMetricsAtExit);
    return &r;
  }();
  return *registry;
}

inline void WriteBenchMetricsAtExit() {
  const char* path = std::getenv("PATHLOG_METRICS_OUT");
  if (path == nullptr || *path == '\0') return;
  Status st = WriteFileAtomic(DefaultFileOps(), path, BenchMetrics().ToJson());
  if (!st.ok()) {
    fprintf(stderr, "PATHLOG_METRICS_OUT: %s\n", st.ToString().c_str());
  }
}

/// Attaches the machine-readable counters every benchmark JSON row
/// carries (ci/bench_smoke.sh archives them): answer count, stored
/// fact count, and facts handled per second of wall time.
inline void ReportThroughput(benchmark::State& state, const Database& db,
                             size_t answers) {
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["facts"] = static_cast<double>(db.store().FactCount());
  state.counters["facts_per_sec"] = benchmark::Counter(
      static_cast<double>(db.store().FactCount()),
      benchmark::Counter::kIsIterationInvariantRate);
}

/// A company database at scale `num_employees` (other knobs default).
inline CompanyConfig ScaledCompany(int64_t num_employees) {
  CompanyConfig cfg;
  cfg.num_employees = static_cast<uint32_t>(num_employees);
  cfg.num_companies = std::max<uint32_t>(2, cfg.num_employees / 50);
  return cfg;
}

/// Runs a PathLog query and returns the answer count.
inline size_t RunPathLog(Database& db, const std::string& query) {
  ResultSet rs = CheckResult(db.Query(query), "PathLog query");
  return rs.size();
}

/// Flattens a query once (setup) for the baseline evaluators.
inline FlatQuery FlattenQuery(Database& db, const std::string& query) {
  Query q = CheckResult(ParseQuery(query), "parse query");
  return CheckResult(FlattenLiterals(q.body, &db.store()), "flatten");
}

inline size_t RunJoinPlan(Database& db, const FlatQuery& fq) {
  Relation rel = CheckResult(EvalJoinPlan(db.store(), fq), "join plan");
  return rel.NumRows();
}

inline size_t RunNestedLoop(Database& db, const FlatQuery& fq) {
  Relation rel = CheckResult(EvalNestedLoop(db.store(), fq), "nested loop");
  return rel.NumRows();
}

}  // namespace bench
}  // namespace pathlog

#endif  // PATHLOG_BENCH_BENCH_UTIL_H_
