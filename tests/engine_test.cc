// Tests for the deductive engine: fixpoints, virtual objects, generic
// methods, strategies, guards.

#include "eval/engine.h"

#include <gtest/gtest.h>

#include "base/strings.h"
#include "eval/ref_eval.h"
#include "parser/parser.h"
#include "semantics/structure.h"
#include "workload/kinship.h"

namespace pathlog {
namespace {

Status LoadFactsAndRules(ObjectStore* store, Engine* engine,
                         std::string_view text) {
  Result<Program> p = ParseProgram(text);
  if (!p.ok()) return p.status();
  HeadAsserter asserter(store, HeadValueMode::kRequireDefined);
  for (const Rule& r : p->rules) {
    PATHLOG_RETURN_IF_ERROR(CheckRuleWellFormed(r));
    if (r.IsFact()) {
      Bindings b;
      PATHLOG_RETURN_IF_ERROR(asserter.Assert(*r.head, &b));
    } else {
      PATHLOG_RETURN_IF_ERROR(engine->AddRule(r));
    }
  }
  return Status::OK();
}

std::set<std::string> EvalNames(const ObjectStore& store,
                                std::string_view ref_text) {
  Result<RefPtr> r = ParseRef(ref_text);
  EXPECT_TRUE(r.ok()) << r.status();
  SemanticStructure I(store);
  RefEvaluator eval(I);
  Bindings b;
  std::set<std::string> out;
  Result<bool> res = eval.Enumerate(**r, &b, [&](Oid o) -> Result<bool> {
    out.insert(store.DisplayName(o));
    return true;
  });
  EXPECT_TRUE(res.ok()) << res.status();
  return out;
}

TEST(EngineTest, TransitiveClosureDesc) {
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    peter[kids->>{tim,mary}].
    tim[kids->>{sally}].
    mary[kids->>{tom,paul}].
    X[desc->>{Y}] <- X[kids->>{Y}].
    X[desc->>{Y}] <- X..desc[kids->>{Y}].
  )").ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(EvalNames(store, "peter..desc"),
            (std::set<std::string>{"tim", "mary", "sally", "tom", "paul"}));
  EXPECT_EQ(EvalNames(store, "tim..desc"), (std::set<std::string>{"sally"}));
}

TEST(EngineTest, GenericTcMatchesThePaper) {
  // "applying kids.tc to peter yields {tim, mary, sally, tom, paul}".
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    peter[kids->>{tim,mary}].
    tim[kids->>{sally}].
    mary[kids->>{tom,paul}].
    X[(M.tc)->>{Y}] <- X[M->>{Y}].
    X[(M.tc)->>{Y}] <- X..(M.tc)[M->>{Y}].
  )").ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(EvalNames(store, "peter..(kids.tc)"),
            (std::set<std::string>{"tim", "mary", "sally", "tom", "paul"}));
}

TEST(EngineTest, GenericTcEqualsSpecializedDesc) {
  ObjectStore s1, s2;
  s1.InternSymbol(kSelfMethodName);
  s2.InternSymbol(kSelfMethodName);
  GenerateRandomDag(&s1, 60, 2.0, 3);
  GenerateRandomDag(&s2, 60, 2.0, 3);

  Engine e1(&s1);
  ASSERT_TRUE(LoadFactsAndRules(&s1, &e1, R"(
    X[desc->>{Y}] <- X[kids->>{Y}].
    X[desc->>{Y}] <- X..desc[kids->>{Y}].
  )").ok());
  ASSERT_TRUE(e1.Run().ok());

  Engine e2(&s2);
  ASSERT_TRUE(LoadFactsAndRules(&s2, &e2, R"(
    X[(M.tc)->>{Y}] <- X[M->>{Y}].
    X[(M.tc)->>{Y}] <- X..(M.tc)[M->>{Y}].
  )").ok());
  ASSERT_TRUE(e2.Run().ok());

  for (int i = 0; i < 60; ++i) {
    std::string p = StrCat("d", i);
    EXPECT_EQ(EvalNames(s1, StrCat(p, "..desc")),
              EvalNames(s2, StrCat(p, "..(kids.tc)")))
        << p;
  }
}

TEST(EngineTest, VirtualBossObjectsCreated) {
  // Paper rule (6.1): every employee gets a (possibly virtual) boss in
  // the same department.
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    p1 : employee.
    p1[worksFor->cs1].
    X.boss[worksFor->D] <- X:employee[worksFor->D].
  )").ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.stats().skolems_created, 1u);
  // The virtual boss is referenced by the path p1.boss and works for cs1.
  EXPECT_EQ(EvalNames(store, "p1.boss[worksFor->cs1]"),
            (std::set<std::string>{"_boss(p1)"}));
}

TEST(EngineTest, Rule62OnlyPropagatesToExistingBosses) {
  // Paper rule (6.2): no virtual objects; p1 has no boss, so nothing.
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    p1 : employee.
    p1[worksFor->cs1].
    p2 : employee.
    p2[worksFor->cs2].
    p2[boss->b2].
    Z[worksFor->D] <- X:employee[worksFor->D].boss[Z].
  )").ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.stats().skolems_created, 0u);
  EXPECT_EQ(EvalNames(store, "b2.worksFor"), (std::set<std::string>{"cs2"}));
  EXPECT_EQ(EvalNames(store, "p1.boss"), (std::set<std::string>{}));
}

TEST(EngineTest, SkolemIsDeterministicAcrossRederivation) {
  // Two rules deriving through X.address must reference one object.
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    p : person.
    p[street->main; city->ny].
    X.address[street->X.street] <- X:person.
    X.address[city->X.city] <- X:person.
  )").ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.stats().skolems_created, 1u);
  EXPECT_EQ(EvalNames(store, "p.address[street->main; city->ny]"),
            (std::set<std::string>{"_address(p)"}));
}

TEST(EngineTest, IntensionalMethodOnExistingObjects) {
  // Paper: X[power->Y] <- X:automobile.engine[power->Y].
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    a1 : automobile.
    a1[engine->e1].
    e1[power->200].
    X[power->Y] <- X:automobile.engine[power->Y].
  )").ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.stats().skolems_created, 0u);
  EXPECT_EQ(EvalNames(store, "a1.power"), (std::set<std::string>{"200"}));
}

TEST(EngineTest, HeadSetRefFilterCopiesMembers) {
  // (4.4) as a fact: p2[friends->>p1..assistants].
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    p1[assistants->>{a1,a2}].
    p2[friends->>p1..assistants].
  )").ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(EvalNames(store, "p2..friends"),
            (std::set<std::string>{"a1", "a2"}));
}

TEST(EngineTest, StratifiedSetRefBodyWaitsForCompletion) {
  // friends defined from the *complete* set of assistants, where
  // assistants is itself derived.
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    p1[helpers->>{a1,a2}].
    X[assistants->>{Y}] <- X[helpers->>{Y}].
    X[friends->>p1..assistants] <- X:person.
    bob : person.
  )").ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_GE(engine.stats().num_strata, 2);
  EXPECT_EQ(EvalNames(store, "bob..friends"),
            (std::set<std::string>{"a1", "a2"}));
}

TEST(EngineTest, UnstratifiableProgramRejected) {
  // assistants feeding its own completion test.
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    p1[assistants->>{a1}].
    X[assistants->>p1..assistants] <- X:person.
    p1 : person.
  )").ok());
  Status st = engine.Run();
  EXPECT_EQ(st.code(), StatusCode::kNotStratifiable);
}

TEST(EngineTest, NegationIsStratified) {
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    p1 : employee.
    p2 : employee.
    p1[boss->p2].
    X[top->1] <- X:employee, not X[boss->Y].
  )").ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(EvalNames(store, "X:employee[top->1]"),
            (std::set<std::string>{"p2"}));
}

TEST(EngineTest, NegationThroughRecursionRejected) {
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    X[odd->1] <- X:thing, not X[odd->1].
    t : thing.
  )").ok());
  EXPECT_EQ(engine.Run().code(), StatusCode::kNotStratifiable);
}

TEST(EngineTest, NaiveAndSemiNaiveAgree) {
  for (EvalStrategy strategy :
       {EvalStrategy::kNaive, EvalStrategy::kSemiNaiveRules}) {
    ObjectStore store;
    store.InternSymbol(kSelfMethodName);
    GenerateChain(&store, 30);
    EngineOptions opts;
    opts.strategy = strategy;
    Engine engine(&store, opts);
    ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
      X[desc->>{Y}] <- X[kids->>{Y}].
      X[desc->>{Y}] <- X..desc[kids->>{Y}].
    )").ok());
    ASSERT_TRUE(engine.Run().ok());
    // Chain of 30: p0's descendants are p1..p29.
    EXPECT_EQ(EvalNames(store, "p0..desc").size(), 29u);
    EXPECT_EQ(EvalNames(store, "p28..desc"), (std::set<std::string>{"p29"}));
  }
}

TEST(EngineTest, SemiNaiveSkipsUnaffectedRules) {
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  GenerateChain(&store, 40);
  // An unrelated rule should not be re-evaluated every round.
  EngineOptions semi;
  semi.strategy = EvalStrategy::kSemiNaiveRules;
  Engine engine(&store, semi);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    X[desc->>{Y}] <- X[kids->>{Y}].
    X[desc->>{Y}] <- X..desc[kids->>{Y}].
    X[hasKid->1] <- X[kids->>{Y}].
  )").ok());
  ASSERT_TRUE(engine.Run().ok());
  uint64_t semi_evals = engine.stats().rule_evaluations;

  ObjectStore store2;
  store2.InternSymbol(kSelfMethodName);
  GenerateChain(&store2, 40);
  EngineOptions naive;
  naive.strategy = EvalStrategy::kNaive;
  Engine engine2(&store2, naive);
  ASSERT_TRUE(LoadFactsAndRules(&store2, &engine2, R"(
    X[desc->>{Y}] <- X[kids->>{Y}].
    X[desc->>{Y}] <- X..desc[kids->>{Y}].
    X[hasKid->1] <- X[kids->>{Y}].
  )").ok());
  ASSERT_TRUE(engine2.Run().ok());
  EXPECT_LT(semi_evals, engine2.stats().rule_evaluations);
}

TEST(EngineTest, RunawayVirtualCreationHitsGuard) {
  // Every object gets a virtual successor with the same property: the
  // program never terminates; the guard must trip.
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  EngineOptions opts;
  opts.limits.max_facts = 2000;
  opts.limits.max_objects = 2000;
  Engine engine(&store, opts);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    z[count->1].
    X.succ[count->1] <- X[count->1].
  )").ok());
  EXPECT_EQ(engine.Run().code(), StatusCode::kResourceExhausted);
}

TEST(EngineTest, WallClockBudgetTripsAsDeadlineExceeded) {
  // The same never-terminating program, but with the count guards out
  // of reach: only the wall-clock budget can stop it. Any finite
  // budget is eventually exceeded, so this is deterministic.
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  EngineOptions opts;
  opts.limits.max_wall_ms = 50;
  Engine engine(&store, opts);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    z[count->1].
    X.succ[count->1] <- X[count->1].
  )").ok());
  EXPECT_EQ(engine.Run().code(), StatusCode::kDeadlineExceeded);
}

TEST(EngineTest, DeadlineRecordsElapsedTimeAndCulprit) {
  // A kDeadlineExceeded return must be diagnosable: the stats carry
  // the wall time spent and the stratum/rule active when the budget
  // tripped, and the error message names them.
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  EngineOptions opts;
  opts.limits.max_wall_ms = 50;
  Engine engine(&store, opts);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    z[count->1].
    X.succ[count->1] <- X[count->1].
  )").ok());
  Status st = engine.Run();
  ASSERT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  const EngineStats& stats = engine.stats();
  EXPECT_GE(stats.elapsed_ms, 50.0);
  EXPECT_EQ(stats.limit_stratum, 0);
  EXPECT_EQ(stats.limit_rule, "X.succ[count->1] <- X[count->1].");
  EXPECT_NE(st.message().find("in stratum 0"), std::string::npos) << st;
  EXPECT_NE(st.message().find("X.succ[count->1]"), std::string::npos) << st;
}

TEST(EngineTest, SuccessfulRunRecordsElapsedAndStratumIterations) {
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    a[kids->>{b}]. b[kids->>{c}].
    X[desc->>{Y}] <- X[kids->>{Y}].
    X[desc->>{Z}] <- X[kids->>{Y}], Y[desc->>{Z}].
  )").ok());
  ASSERT_TRUE(engine.Run().ok());
  const EngineStats& stats = engine.stats();
  EXPECT_GE(stats.elapsed_ms, 0.0);
  EXPECT_EQ(stats.limit_stratum, -1);
  EXPECT_TRUE(stats.limit_rule.empty());
  ASSERT_EQ(stats.stratum_iterations.size(),
            static_cast<size_t>(stats.num_strata));
  uint64_t total = 0;
  for (uint64_t n : stats.stratum_iterations) total += n;
  EXPECT_EQ(total, stats.iterations);
}

TEST(EngineTest, WallClockBudgetOffByDefault) {
  // limits.max_wall_ms = 0 must mean "no deadline", not "deadline now".
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    a[kids->>{b}]. b[kids->>{c}].
    X[desc->>{Y}] <- X[kids->>{Y}].
    X[desc->>{Z}] <- X[kids->>{Y}], Y[desc->>{Z}].
  )").ok());
  EXPECT_TRUE(engine.Run().ok());
}

TEST(EngineTest, IterationCeilingNamesItsStratum) {
  // max_iterations trips between rule evaluations, so no rule is
  // running; the stratum still is, and both the stats and the message
  // must say which one, as for every other limit.
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  GenerateChain(&store, 11);  // 10 edges
  EngineOptions opts;
  opts.max_iterations = 3;
  Engine engine(&store, opts);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    X[desc->>{Y}] <- X[kids->>{Y}].
    X[desc->>{Y}] <- X..desc[kids->>{Y}].
  )").ok());
  Status st = engine.Run();
  ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  EXPECT_EQ(engine.stats().limit_stratum, 0);
  EXPECT_TRUE(engine.stats().limit_rule.empty());
  EXPECT_NE(st.message().find("iteration limit exceeded (3) in stratum 0"),
            std::string::npos)
      << st;
}

TEST(EngineTest, ScalarConflictFromRulesReported) {
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    a[left->1].
    a[right->2].
    X[pick->Y] <- X[left->Y].
    X[pick->Y] <- X[right->Y].
  )").ok());
  EXPECT_EQ(engine.Run().code(), StatusCode::kScalarConflict);
}

TEST(EngineTest, UnsafeHeadVariableRejected) {
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  Result<Rule> rule = ParseRule("X[a->Z] <- X:thing.");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(engine.AddRule(*rule).code(), StatusCode::kUnsafeRule);
}

TEST(EngineTest, BodyReorderedForSetRefSafety) {
  // The ->> filter result mentions P, bound only by the second literal;
  // the planner must move that literal first.
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    p1[assistants->>{a1}].
    p1[marker->1].
    X[friends->>P..assistants] <- X[self->P], P[marker->1].
  )").ok());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(EvalNames(store, "p1..friends"), (std::set<std::string>{"a1"}));
}

TEST(EngineTest, HeadValueModeRequireDefinedSkips) {
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);  // default kRequireDefined
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    p : person.
    p[city->ny].
    q : person.
    X.address[street->X.street; city->X.city] <- X:person.
  )").ok());
  ASSERT_TRUE(engine.Run().ok());
  // Neither p (no street) nor q (nothing) gets an address instance.
  EXPECT_EQ(EvalNames(store, "p.address"), (std::set<std::string>{}));
  EXPECT_EQ(EvalNames(store, "q.address"), (std::set<std::string>{}));
}

TEST(EngineTest, HeadValueModeSkolemizeInvents) {
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  EngineOptions opts;
  opts.head_value_mode = HeadValueMode::kSkolemize;
  Engine engine(&store, opts);
  ASSERT_TRUE(LoadFactsAndRules(&store, &engine, R"(
    p : person.
    p[city->ny].
    X.address[street->X.street; city->X.city] <- X:person.
  )").ok());
  ASSERT_TRUE(engine.Run().ok());
  // The address exists, its street is itself a virtual object.
  EXPECT_EQ(EvalNames(store, "p.address.city"), (std::set<std::string>{"ny"}));
  EXPECT_EQ(EvalNames(store, "p.address.street"),
            (std::set<std::string>{"_street(p)"}));
  EXPECT_EQ(engine.stats().skolems_created, 2u);
}

TEST(EngineTest, FactsOnlyProgramTerminatesImmediately) {
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  Engine engine(&store);
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.stats().derivations, 0u);
}

}  // namespace
}  // namespace pathlog
