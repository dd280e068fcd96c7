// Planner ablation: the same conjunctive query evaluated in
// cost-planned order (what Database::Query does) versus the
// worst-case literal order, at growing scale. The gap is the value of
// anchoring evaluation at the smallest driver.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "eval/ref_eval.h"
#include "query/planner.h"
#include "semantics/structure.h"

namespace pathlog {
namespace {

// The manager query decomposed; the adversarial order puts the
// unselective age lookup first and the tiny manager extent last.
constexpr const char* kGoodToBad[] = {
    "X:manager",
    "X[vehicles->>{Y}]",
    "Y[color->red]",
};

size_t EvalInOrder(Database& db, const std::vector<Literal>& body) {
  SemanticStructure I(db.store());
  RefEvaluator eval(I);
  Bindings b;
  size_t count = 0;
  std::function<Result<bool>(size_t)> go = [&](size_t i) -> Result<bool> {
    if (i == body.size()) {
      ++count;
      return true;
    }
    return eval.Enumerate(*body[i].ref, &b, [&](Oid) { return go(i + 1); });
  };
  Result<bool> r = go(0);
  bench::Check(r.ok() ? Status::OK() : r.status(), "conjunction");
  return count;
}

std::vector<Literal> ParseLits(bool reversed) {
  std::vector<Literal> body;
  for (const char* src : kGoodToBad) {
    RefPtr ref = bench::CheckResult(ParseRef(src), "parse");
    body.push_back(Literal{ref, false});
  }
  if (reversed) std::reverse(body.begin(), body.end());
  return body;
}

void BM_Planner_PlannedOrder(benchmark::State& state) {
  Database db;
  GenerateCompany(&db.store(), bench::ScaledCompany(state.range(0)));
  std::vector<Literal> body = ParseLits(false);
  bench::Check(PlanConjunction(&body, db.store(), nullptr), "plan");
  size_t solutions = 0;
  for (auto _ : state) {
    solutions = EvalInOrder(db, body);
    benchmark::DoNotOptimize(solutions);
  }
  state.counters["solutions"] = static_cast<double>(solutions);
}
BENCHMARK(BM_Planner_PlannedOrder)->Arg(1000)->Arg(10000);

void BM_Planner_AdversarialOrder(benchmark::State& state) {
  Database db;
  GenerateCompany(&db.store(), bench::ScaledCompany(state.range(0)));
  std::vector<Literal> body = ParseLits(true);  // color scan first
  size_t solutions = 0;
  for (auto _ : state) {
    solutions = EvalInOrder(db, body);
    benchmark::DoNotOptimize(solutions);
  }
  state.counters["solutions"] = static_cast<double>(solutions);
}
BENCHMARK(BM_Planner_AdversarialOrder)->Arg(1000)->Arg(10000);

// Skewed distribution: one city bucket holds `hot` objects while an
// equal number of singleton buckets drag the average down to ~1. An
// average-bucket estimate would price the runtime-bound Y[city->C]
// probe at that average and drive the whole hot bucket through a
// resident check; the skew-aware estimator reads the top-k
// heavy-hitter list, prices the probe at the hot-bucket size, and
// drives the resident extent (hot/100 objects) instead.
void BuildSkewedCity(Database* db, int64_t hot) {
  std::string program = "hub[site->metro].\n";
  for (int64_t i = 0; i < hot; ++i) {
    program += "m" + std::to_string(i) + "[city->metro].\n";
    program += "u" + std::to_string(i) + "[city->only" + std::to_string(i) +
               "].\n";
  }
  for (int64_t i = 0; i < hot / 100; ++i) {
    program += "m" + std::to_string(i) + " : resident.\n";
  }
  bench::Check(db->Load(program), "load skewed fixture");
}

constexpr const char* kSkewQuery = "?- hub[site->C], Y[city->C], Y:resident.";

void BM_Planner_SkewAware(benchmark::State& state) {
  Database db;
  const int64_t hot = state.range(0);
  BuildSkewedCity(&db, hot);
  std::vector<Literal> body =
      bench::CheckResult(ParseQuery(kSkewQuery), "parse skew query").body;
  bench::Check(PlanConjunction(&body, db.store(), nullptr), "plan skew query");
  size_t solutions = 0;
  for (auto _ : state) {
    solutions = EvalInOrder(db, body);
    benchmark::DoNotOptimize(solutions);
  }
  if (solutions != static_cast<size_t>(hot / 100)) {
    fprintf(stderr, "FATAL: skew answer mismatch: got %zu want %lld\n",
            solutions, static_cast<long long>(hot / 100));
    std::abort();
  }
  state.counters["solutions"] = static_cast<double>(solutions);
}
BENCHMARK(BM_Planner_SkewAware)->Arg(2000)->Arg(10000);

void BM_Planner_PlanningCost(benchmark::State& state) {
  Database db;
  GenerateCompany(&db.store(), bench::ScaledCompany(1000));
  for (auto _ : state) {
    std::vector<Literal> body = ParseLits(true);
    bench::Check(PlanConjunction(&body, db.store(), nullptr), "plan");
    benchmark::DoNotOptimize(body);
  }
}
BENCHMARK(BM_Planner_PlanningCost);

}  // namespace
}  // namespace pathlog
