// Experiment E6.strat: stratification. Measures (a) the cost of the
// dependency/stratification analysis itself as rule count grows, (b)
// the cost of loading rules, each checked against the installed ones
// as Load admits it, and of rejecting an unstratifiable one, and (c)
// end-to-end evaluation of a two-stratum program (derived set, then a
// needs-complete consumer) versus the equivalent single-stratum
// program that copies memberships one at a time.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/strings.h"
#include "bench_util.h"
#include "eval/dependency.h"
#include "eval/stratify.h"

namespace pathlog {
namespace {

// A layered program: methods m0..m{k-1}, each defined from the
// complete extent of the previous one — k strata. Its rules come in
// dependency order (order 0), reversed (1), or every other layer first
// (2).
std::string LayeredProgram(int64_t layers, int64_t order = 0) {
  std::vector<int64_t> layer;
  for (int64_t i = 1; i < layers; ++i) layer.push_back(i);
  if (order == 1) std::reverse(layer.begin(), layer.end());
  if (order == 2) {
    std::stable_partition(layer.begin(), layer.end(),
                          [](int64_t i) { return i % 2 == 0; });
  }
  std::string text = "seed[m0->>{a,b,c}].\n";
  for (int64_t i : layer) {
    text += StrCat("X[m", i, "->>seed..m", i - 1, "] <- X[self->seed].\n");
  }
  return text;
}

void BM_Strat_AnalysisCost(benchmark::State& state) {
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Result<Program> prog = ParseProgram(LayeredProgram(state.range(0)));
  bench::Check(prog.status(), "parse");
  std::vector<Rule> rules;
  for (const Rule& r : prog->rules) {
    if (!r.IsFact()) rules.push_back(r);
  }
  for (auto _ : state) {
    DependencyGraph graph = bench::CheckResult(
        DependencyGraph::Build(rules, &store, HeadValueMode::kRequireDefined),
        "build graph");
    Stratification strata =
        bench::CheckResult(Stratify(graph, rules.size()), "stratify");
    benchmark::DoNotOptimize(strata.num_strata);
    state.counters["strata"] = static_cast<double>(strata.num_strata);
  }
}
BENCHMARK(BM_Strat_AnalysisCost)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// One Load of a layered program. Load re-stratifies the installed rules
// only for a rule that may close a cycle (MayCloseCycle): in dependency
// order or reversed, no rule reads a symbol installed rules define and
// defines one they read, so the cost is linear in the rule count;
// every other layer first, each later rule does, so it is quadratic.
void BM_Strat_LoadRules(benchmark::State& state) {
  const std::string text = LayeredProgram(state.range(0), state.range(1));
  for (auto _ : state) {
    Database db;
    bench::Check(db.Load(text), "load");
  }
  state.counters["rules"] = static_cast<double>(state.range(0) - 1);
}
BENCHMARK(BM_Strat_LoadRules)
    ->ArgNames({"layers", "order"})
    ->Args({64, 0})->Args({256, 0})->Args({1024, 0})
    ->Args({64, 1})->Args({256, 1})->Args({1024, 1})
    ->Args({64, 2})->Args({256, 2})
    ->Unit(benchmark::kMillisecond);

void BM_Strat_LayeredEvaluation(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    bench::Check(db.Load(LayeredProgram(state.range(0))), "load");
    state.ResumeTiming();
    bench::Check(db.Materialize(), "materialize");
    state.counters["strata"] =
        static_cast<double>(db.engine_stats().num_strata);
  }
}
BENCHMARK(BM_Strat_LayeredEvaluation)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// The same copy expressed member-at-a-time needs no stratification.
std::string MemberAtATimeProgram(int64_t layers) {
  std::string text = "seed[m0->>{a,b,c}].\n";
  for (int64_t i = 1; i < layers; ++i) {
    text += StrCat("X[m", i, "->>{Y}] <- X[m", i - 1, "->>{Y}].\n");
  }
  return text;
}

void BM_Strat_MemberAtATimeEquivalent(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    bench::Check(db.Load(MemberAtATimeProgram(state.range(0))), "load");
    state.ResumeTiming();
    bench::Check(db.Materialize(), "materialize");
    state.counters["strata"] =
        static_cast<double>(db.engine_stats().num_strata);
  }
}
BENCHMARK(BM_Strat_MemberAtATimeEquivalent)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Detecting unstratifiability must be fast: the Load that brings the
// rule rejects it, before any fixpoint work.
void BM_Strat_RejectionCost(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    bench::Check(db.Load("p[assistants->>{a}]. p : person."), "load facts");
    state.ResumeTiming();
    Status st = db.Load("X[assistants->>p..assistants] <- X : person.");
    if (st.code() != StatusCode::kNotStratifiable) {
      fprintf(stderr, "FATAL: expected kNotStratifiable, got %s\n",
              st.ToString().c_str());
      std::abort();
    }
  }
}
BENCHMARK(BM_Strat_RejectionCost)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pathlog
