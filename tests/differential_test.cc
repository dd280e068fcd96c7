// Differential testing: the three evaluation strategies (naive,
// rule-level semi-naive, literal-level delta semi-naive) must produce
// identical fact sets on every program, and the two semi-naive
// variants must do strictly less work than naive on recursion.

#include <gtest/gtest.h>

#include <set>

#include "base/strings.h"
#include "differential_cases.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "query/database.h"
#include "store/fact.h"

namespace pathlog {
namespace {

/// Runs `rules` over workload `w` under `strategy` and returns the
/// whole store as a canonical set of fact strings, plus stats.
std::set<std::string> RunProgram(Workload w, const char* rules,
                          EvalStrategy strategy, EngineStats* stats) {
  DatabaseOptions opts;
  opts.engine.strategy = strategy;
  Database db(opts);
  Generate(&db.store(), w);
  Status st = db.Load(rules);
  EXPECT_TRUE(st.ok()) << st;
  st = db.Materialize();
  EXPECT_TRUE(st.ok()) << st;
  if (stats != nullptr) *stats = db.engine_stats();
  std::set<std::string> facts;
  for (uint64_t g = 0; g < db.store().generation(); ++g) {
    facts.insert(FactToString(db.store().FactAt(g), db.store()));
  }
  return facts;
}

class StrategyDifferentialTest : public ::testing::TestWithParam<Case> {};

TEST_P(StrategyDifferentialTest, AllStrategiesAgree) {
  const Case& c = GetParam();
  EngineStats naive_stats, rules_stats, delta_stats;
  std::set<std::string> naive =
      RunProgram(c.workload, c.rules, EvalStrategy::kNaive, &naive_stats);
  std::set<std::string> rule_level =
      RunProgram(c.workload, c.rules, EvalStrategy::kSemiNaiveRules, &rules_stats);
  std::set<std::string> delta =
      RunProgram(c.workload, c.rules, EvalStrategy::kSemiNaiveDelta, &delta_stats);
  EXPECT_EQ(naive, rule_level);
  EXPECT_EQ(naive, delta);
  // Semi-naive never does more rule evaluations than naive.
  EXPECT_LE(rules_stats.rule_evaluations, naive_stats.rule_evaluations);
  EXPECT_LE(delta_stats.rule_evaluations, naive_stats.rule_evaluations);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, StrategyDifferentialTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return param_info.param.name;
    });

class ObsDifferentialTest : public ::testing::TestWithParam<Case> {};

TEST_P(ObsDifferentialTest, ObservabilityChangesNoAnswers) {
  // Observability is pure measurement: with every sink attached
  // (metrics, flight ring, profiler) the materialised fact set and the
  // query answers must equal the unobserved run, for all strategies.
  const Case& c = GetParam();
  for (EvalStrategy s :
       {EvalStrategy::kNaive, EvalStrategy::kSemiNaiveRules,
        EvalStrategy::kSemiNaiveDelta}) {
    MetricsRegistry metrics;
    FlightRecorder ring;
    Profiler profiler;
    std::set<std::string> facts[2];
    std::string answers[2];
    for (int observed = 0; observed < 2; ++observed) {
      DatabaseOptions opts;
      opts.engine.strategy = s;
      if (observed == 1) {
        opts.engine.obs.metrics = &metrics;
        opts.engine.obs.flight = &ring;
        opts.engine.obs.profiler = &profiler;
      }
      Database db(opts);
      Generate(&db.store(), c.workload);
      Status st = db.Load(c.rules);
      ASSERT_TRUE(st.ok()) << st;
      st = db.Materialize();
      ASSERT_TRUE(st.ok()) << st;
      for (uint64_t g = 0; g < db.store().generation(); ++g) {
        facts[observed].insert(FactToString(db.store().FactAt(g),
                                            db.store()));
      }
      Result<ResultSet> rs = db.Query("?- X[kids->>{Y}].");
      ASSERT_TRUE(rs.ok()) << rs.status();
      answers[observed] = rs->ToString(db.store());
    }
    EXPECT_EQ(facts[0], facts[1]) << c.name << " strategy "
                                  << static_cast<int>(s);
    EXPECT_EQ(answers[0], answers[1]) << c.name << " strategy "
                                      << static_cast<int>(s);
    EXPECT_GT(ring.recorded(), 0u) << "the observed run recorded spans";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, ObsDifferentialTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return param_info.param.name;
    });

TEST(DeltaSemiNaiveTest, DeltaPassesHappenAndShrinkDerivations) {
  EngineStats naive_stats, delta_stats;
  const char* rules = R"(
    X[desc->>{Y}] <- X[kids->>{Y}].
    X[desc->>{Y}] <- X..desc[kids->>{Y}].
  )";
  RunProgram(Workload::kChain, rules, EvalStrategy::kNaive, &naive_stats);
  RunProgram(Workload::kChain, rules, EvalStrategy::kSemiNaiveDelta, &delta_stats);
  EXPECT_GT(delta_stats.delta_passes, 0u);
  EXPECT_EQ(naive_stats.delta_passes, 0u);
  // Naive re-derives the full closure every round; delta only touches
  // derivations involving new facts. On a 60-chain the gap is large.
  EXPECT_LT(delta_stats.derivations, naive_stats.derivations / 4);
}

TEST(DeltaSemiNaiveTest, HeadReadFallbackStaysCorrect) {
  // boss(X) is derived by one rule and consumed by another rule's head
  // value path: the delta strategy must fall back to full evaluation
  // for the consumer when boss changes.
  DatabaseOptions opts;
  opts.engine.strategy = EvalStrategy::kSemiNaiveDelta;
  Database db(opts);
  Status st = db.Load(R"(
    e1 : employee[worksFor->cs1].
    m1 : manager.
    X[boss->m1] <- X:employee[worksFor->cs1].
    X[bossCopy->X.boss] <- X:employee.
  )");
  ASSERT_TRUE(st.ok()) << st;
  ASSERT_TRUE(db.Materialize().ok());
  Result<bool> holds = db.Holds("e1[bossCopy->m1]");
  ASSERT_TRUE(holds.ok());
  EXPECT_TRUE(*holds);
}

TEST(DeltaSemiNaiveTest, MultiLiteralJoinRecursionAgrees) {
  // Nonlinear recursion: desc(X,Y) <- desc(X,Z), desc(Z,Y) — two
  // recursive literals in one body, the classic semi-naive stress.
  const char* rules = R"(
    X[d->>{Y}] <- X[kids->>{Y}].
    X[d->>{Y}] <- X[d->>{Z}], Z[d->>{Y}].
  )";
  std::set<std::string> naive =
      RunProgram(Workload::kDag, rules, EvalStrategy::kNaive, nullptr);
  std::set<std::string> delta =
      RunProgram(Workload::kDag, rules, EvalStrategy::kSemiNaiveDelta, nullptr);
  EXPECT_EQ(naive, delta);
}

// ---- An integer name at a method position is one method ------------

TEST(IntegerMethodTest, StratifiesAsTheOneMethodItNames) {
  // `3` is defined by one rule and read under negation by another that
  // defines only `lonely`: there is no cycle through negation.
  const char* program = R"(
    a : c. b : c. a[q->1].
    X[3->a] <- X:c[q->1].
    Y[lonely->1] <- Y:c, not Y[3->a].
  )";
  for (EvalStrategy s :
       {EvalStrategy::kNaive, EvalStrategy::kSemiNaiveRules,
        EvalStrategy::kSemiNaiveDelta}) {
    DatabaseOptions opts;
    opts.engine.strategy = s;
    Database db(opts);
    ASSERT_TRUE(db.Load(program).ok());
    ASSERT_TRUE(db.Materialize().ok()) << "strategy " << static_cast<int>(s);
    std::set<std::string> lonely;
    for (uint64_t g = 0; g < db.store().generation(); ++g) {
      std::string fact = FactToString(db.store().FactAt(g), db.store());
      if (fact.find("lonely") != std::string::npos) lonely.insert(fact);
    }
    EXPECT_EQ(lonely, std::set<std::string>{"b[lonely->1]"})
        << "strategy " << static_cast<int>(s);
  }
}

TEST(IntegerMethodTest, SemiNaiveReevaluatesARuleThatReadsIt) {
  // The recursive rule reads `7`, which only the rules derive: the
  // semi-naive strategies must see its new facts under that oid.
  const char* rules = R"(
    X[7->>{Y}] <- X[kids->>{Y}].
    X[7->>{Y}] <- X[7->>{Z}], Z[kids->>{Y}].
  )";
  std::set<std::string> naive =
      RunProgram(Workload::kChain, rules, EvalStrategy::kNaive, nullptr);
  EXPECT_EQ(naive.count("p0[7->>{p59}]"), 1u);
  EXPECT_EQ(RunProgram(Workload::kChain, rules, EvalStrategy::kSemiNaiveRules,
                       nullptr),
            naive);
  EXPECT_EQ(RunProgram(Workload::kChain, rules, EvalStrategy::kSemiNaiveDelta,
                       nullptr),
            naive);
}

}  // namespace
}  // namespace pathlog
