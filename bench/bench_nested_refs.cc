// Experiment E2.3: paths nested inside filters — "a path may be used
// wherever we expect an object". Query: employees living in the same
// city as their boss, written with a nested path [city->X.boss.city]
// versus the decomposed conjunction with an explicit join variable.

#include "bench_util.h"

namespace pathlog {
namespace {

constexpr const char* kNested = "?- X:employee[city->X.boss.city].";
constexpr const char* kDecomposed =
    "?- X:employee[boss->B], B[city->C], X[city->C].";

void BM_NestedRef_PathLog(benchmark::State& state) {
  Database db;
  GenerateCompany(&db.store(), bench::ScaledCompany(state.range(0)));
  size_t answers = 0;
  for (auto _ : state) {
    answers = bench::RunPathLog(db, kNested);
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_NestedRef_PathLog)->Arg(100)->Arg(1000)->Arg(10000);

void BM_NestedRef_Decomposed(benchmark::State& state) {
  Database db;
  GenerateCompany(&db.store(), bench::ScaledCompany(state.range(0)));
  size_t answers = 0;
  for (auto _ : state) {
    // The decomposed form binds B and C explicitly; project to X for a
    // comparable answer count.
    ResultSet rs = bench::CheckResult(db.Query(kDecomposed), "query");
    answers = rs.Column("X", db.store()).size();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_NestedRef_Decomposed)->Arg(100)->Arg(1000)->Arg(10000);

// Bound-target path matching: "who reports to manager B", written with
// the target on the receiver side — B[self->X.boss] forces the path
// X.boss to be matched against the already-bound B. With the inverted
// value→receiver index each manager costs one bucket probe instead of
// a scan of boss's whole extent.
constexpr const char* kBoundTarget = "?- B:manager[self->X.boss].";

void BM_NestedRef_BoundTarget(benchmark::State& state) {
  Database db;
  GenerateCompany(&db.store(), bench::ScaledCompany(state.range(0)));
  size_t answers = 0;
  for (auto _ : state) {
    answers = bench::RunPathLog(db, kBoundTarget);
    benchmark::DoNotOptimize(answers);
  }
  bench::ReportThroughput(state, db, answers);
}
BENCHMARK(BM_NestedRef_BoundTarget)->Arg(100)->Arg(1000)->Arg(10000);

void BM_NestedRef_Baseline_JoinPlan(benchmark::State& state) {
  Database db;
  GenerateCompany(&db.store(), bench::ScaledCompany(state.range(0)));
  FlatQuery fq = bench::FlattenQuery(db, kDecomposed);
  fq.select = {"X"};
  size_t answers = 0;
  for (auto _ : state) {
    answers = bench::RunJoinPlan(db, fq);
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_NestedRef_Baseline_JoinPlan)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace pathlog
