// Experiment E1.4/2.1/2.2: the second dimension of path expressions.
//
// Query: colors of the 4-cylinder automobiles of 30-year-old employees
// living in newYork. One-dimensional languages must break the path
// into a conjunction (paper 1.4); PathLog keeps every property test on
// the path (paper 2.1/2.2).
//
// Sweeps: database scale and filter selectivity (number of distinct
// ages — higher means the [age->30] filter prunes more). Expected
// shape: the earlier the second-dimension filters prune, the larger
// PathLog's advantage over the decomposed baselines; the join plan
// pays for full intermediate relations regardless of selectivity.

#include "bench_util.h"

namespace pathlog {
namespace {

// The [Y] selector keeps the answer variables identical to the
// decomposed form, so all formulations return the same rows.
constexpr const char* kTwoDimensional =
    "?- X:employee[age->30; city->newYork]"
    "..vehicles[Y]:automobile[cylinders->4].color[Z].";
constexpr const char* kConjunction =
    "?- X:employee[age->30], X[city->newYork], "
    "X[vehicles->>{Y:automobile}], Y[cylinders->4], Y.color[Z].";

CompanyConfig SelectivityConfig(int64_t employees, int64_t max_age) {
  CompanyConfig cfg = bench::ScaledCompany(employees);
  cfg.min_age = 30;
  cfg.max_age = static_cast<uint32_t>(max_age);
  return cfg;
}

void BM_SecondDim_PathLog_OnePath(benchmark::State& state) {
  Database db;
  GenerateCompany(&db.store(),
                  SelectivityConfig(state.range(0), state.range(1)));
  size_t answers = 0;
  for (auto _ : state) {
    answers = bench::RunPathLog(db, kTwoDimensional);
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_SecondDim_PathLog_OnePath)
    ->Args({1000, 31})   // ~half the employees are 30
    ->Args({1000, 70})   // ~1/41 of the employees are 30
    ->Args({10000, 31})
    ->Args({10000, 70});

void BM_SecondDim_PathLog_Conjunction(benchmark::State& state) {
  Database db;
  GenerateCompany(&db.store(),
                  SelectivityConfig(state.range(0), state.range(1)));
  size_t answers = 0;
  for (auto _ : state) {
    answers = bench::RunPathLog(db, kConjunction);
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_SecondDim_PathLog_Conjunction)
    ->Args({1000, 31})
    ->Args({1000, 70})
    ->Args({10000, 31})
    ->Args({10000, 70});

void BM_SecondDim_Baseline_JoinPlan(benchmark::State& state) {
  Database db;
  GenerateCompany(&db.store(),
                  SelectivityConfig(state.range(0), state.range(1)));
  FlatQuery fq = bench::FlattenQuery(db, kTwoDimensional);
  size_t answers = 0;
  for (auto _ : state) {
    answers = bench::RunJoinPlan(db, fq);
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_SecondDim_Baseline_JoinPlan)
    ->Args({1000, 31})
    ->Args({1000, 70})
    ->Args({10000, 31})
    ->Args({10000, 70});

void BM_SecondDim_Baseline_NestedLoop(benchmark::State& state) {
  Database db;
  GenerateCompany(&db.store(),
                  SelectivityConfig(state.range(0), state.range(1)));
  FlatQuery fq = bench::FlattenQuery(db, kTwoDimensional);
  size_t answers = 0;
  for (auto _ : state) {
    answers = bench::RunNestedLoop(db, fq);
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_SecondDim_Baseline_NestedLoop)
    ->Args({1000, 31})
    ->Args({1000, 70})
    ->Args({10000, 31})
    ->Args({10000, 70});

// Bound-target variant: "which newYork employees own a 4-cylinder red
// automobile". The first literal matches a path against the
// already-bound color object, starting from red's inverted
// value→receiver bucket instead of comparing every 4-cylinder
// automobile's color to red. The second literal then finds each owner
// through the inverted member index of `vehicles`.
constexpr const char* kBoundColor =
    "?- red[self->Y:automobile[cylinders->4].color], "
    "X:employee[city->newYork; vehicles->>{Y}].";

CompanyConfig ManyColorsConfig(int64_t employees) {
  CompanyConfig cfg = bench::ScaledCompany(employees);
  // 32 colors: color0 ("red") selects ~3% of vehicles, so the inverted
  // bucket probe skips the vast majority of color facts.
  cfg.num_colors = 32;
  return cfg;
}

void BM_SecondDim_BoundTarget(benchmark::State& state) {
  Database db;
  GenerateCompany(&db.store(), ManyColorsConfig(state.range(0)));
  size_t answers = 0;
  for (auto _ : state) {
    answers = bench::RunPathLog(db, kBoundColor);
    benchmark::DoNotOptimize(answers);
  }
  bench::ReportThroughput(state, db, answers);
}
BENCHMARK(BM_SecondDim_BoundTarget)->Arg(1000)->Arg(10000);

// Sanity: the two PathLog formulations agree (checked once per run).
void BM_SecondDim_AgreementCheck(benchmark::State& state) {
  Database db;
  GenerateCompany(&db.store(), SelectivityConfig(1000, 40));
  for (auto _ : state) {
    size_t a = bench::RunPathLog(db, kTwoDimensional);
    size_t b = bench::RunPathLog(db, kConjunction);
    if (a != b) {
      fprintf(stderr, "FATAL: formulations disagree: %zu vs %zu\n", a, b);
      std::abort();
    }
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_SecondDim_AgreementCheck)->Iterations(1);

}  // namespace
}  // namespace pathlog
