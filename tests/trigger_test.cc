// Active rules: `head <~ event, conditions.` (ECA triggers over the
// fact log). Reproduces the paper's claim (sections 1 and 7) that the
// reference machinery is independent of the rule-evaluation paradigm.

#include <gtest/gtest.h>

#include "ast/printer.h"
#include "parser/parser.h"
#include "query/database.h"

namespace pathlog {
namespace {

TEST(TriggerParseTest, TriggerClauseRecognised) {
  Result<Program> p = ParseProgram(
      "alert[for->X] <~ X:automobile[color->red], X[cylinders->8].");
  ASSERT_TRUE(p.ok()) << p.status();
  ASSERT_EQ(p->triggers.size(), 1u);
  EXPECT_TRUE(p->rules.empty());
  EXPECT_EQ(ToString(p->triggers[0]),
            "alert[for->X] <~ X:automobile[color->red], X[cylinders->8].");
}

TEST(TriggerParseTest, NegatedEventRejected) {
  Result<Program> p = ParseProgram("a[b->1] <~ not x[c->1].");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(CheckTriggerWellFormed(p->triggers[0]).code(),
            StatusCode::kIllFormed);
}

TEST(TriggerParseTest, EventlessTriggerRejected) {
  TriggerRule t;
  Result<Rule> r = ParseRule("a[b->1].");
  ASSERT_TRUE(r.ok());
  t.rule = *r;
  EXPECT_EQ(CheckTriggerWellFormed(t).code(), StatusCode::kIllFormed);
}

TEST(TriggerTest, FiresOncePerMatchingEvent) {
  Database db;
  ASSERT_TRUE(db.Load(R"(
    log[saw->>{X}] <~ X:automobile[color->red].
    car1 : automobile[color->red].
    car2 : automobile[color->blue].
  )").ok());
  ASSERT_TRUE(db.FireTriggers().ok());
  EXPECT_EQ(db.trigger_stats().firings, 1u);
  Result<bool> saw1 = db.Holds("log[saw->>{car1}]");
  ASSERT_TRUE(saw1.ok());
  EXPECT_TRUE(*saw1);
  Result<bool> saw2 = db.Holds("log[saw->>{car2}]");
  ASSERT_TRUE(saw2.ok());
  EXPECT_FALSE(*saw2);

  // Re-firing without new events does nothing.
  uint64_t firings = db.trigger_stats().firings;
  ASSERT_TRUE(db.FireTriggers().ok());
  EXPECT_EQ(db.trigger_stats().firings, firings);

  // A new matching fact fires exactly once more.
  ASSERT_TRUE(db.Load("car3 : automobile[color->red].").ok());
  ASSERT_TRUE(db.FireTriggers().ok());
  EXPECT_EQ(db.trigger_stats().firings, firings + 1);
  Result<bool> saw3 = db.Holds("log[saw->>{car3}]");
  ASSERT_TRUE(saw3.ok());
  EXPECT_TRUE(*saw3);
}

TEST(TriggerTest, ConditionsSeeCurrentState) {
  Database db;
  ASSERT_TRUE(db.Load(R"(
    bigRed[is->>{X}] <~ X[color->red], X[cylinders->C], C.geq@(8).
    car1[cylinders->8].
    car1[color->red].
    car2[cylinders->4].
    car2[color->red].
  )").ok());
  ASSERT_TRUE(db.FireTriggers().ok());
  Result<bool> c1 = db.Holds("bigRed[is->>{car1}]");
  Result<bool> c2 = db.Holds("bigRed[is->>{car2}]");
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_TRUE(*c1);
  EXPECT_FALSE(*c2);
}

TEST(TriggerTest, CascadesToQuiescence) {
  // Each ping spawns a pong and each pong a final ack: two cascade
  // levels, then quiescence.
  Database db;
  ASSERT_TRUE(db.Load(R"(
    X[pong->1] <~ X[ping->1].
    X[ack->1]  <~ X[pong->1].
    a[ping->1].
  )").ok());
  ASSERT_TRUE(db.FireTriggers().ok());
  Result<bool> ack = db.Holds("a[ack->1]");
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(*ack);
  EXPECT_GE(db.trigger_stats().rounds, 2u);
  EXPECT_EQ(db.trigger_stats().firings, 2u);
}

TEST(TriggerTest, RunawayCascadeHitsBudget) {
  DatabaseOptions opts;
  opts.triggers.max_cascade_rounds = 50;
  Database db(opts);
  // Every spawn event creates a fresh virtual object that spawns again.
  ASSERT_TRUE(db.Load(R"(
    X.next[spawn->1] <~ X[spawn->1].
    seed[spawn->1].
  )").ok());
  EXPECT_EQ(db.FireTriggers().code(), StatusCode::kResourceExhausted);
}

TEST(TriggerTest, DerivedFactsAreEventsToo) {
  DatabaseOptions opts;
  opts.fire_triggers_on_materialize = true;
  Database db(opts);
  ASSERT_TRUE(db.Load(R"(
    audit[grew->>{X}] <~ X[desc->>{Y}].
    X[desc->>{Y}] <- X[kids->>{Y}].
    p0[kids->>{p1}].
  )").ok());
  // Query triggers materialisation, which fires the triggers.
  Result<ResultSet> rs = db.Query("?- audit[grew->>{X}].");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->Column("X", db.store()), (std::vector<std::string>{"p0"}));
}

TEST(TriggerTest, OnlyTheEventLiteralNeedsAFreshFact) {
  // The event literal must consume a fact of the round; the conditions
  // read the current state. A condition fact that arrives after its
  // event was consumed fires nothing: the event is old.
  Database db;
  ASSERT_TRUE(db.Load(R"(
    X[alert->1] <~ X:car, X[color->red].
    c1 : car.
  )").ok());
  ASSERT_TRUE(db.FireTriggers().ok());
  EXPECT_EQ(db.trigger_stats().firings, 0u);

  ASSERT_TRUE(db.Load("c1[color->red].").ok());
  ASSERT_TRUE(db.FireTriggers().ok());
  EXPECT_EQ(db.trigger_stats().firings, 0u);
  Result<bool> c1 = db.Holds("c1[alert->1]");
  ASSERT_TRUE(c1.ok());
  EXPECT_FALSE(*c1);

  ASSERT_TRUE(db.Load("c2 : car[color->red].").ok());
  ASSERT_TRUE(db.FireTriggers().ok());
  EXPECT_EQ(db.trigger_stats().firings, 1u);
  Result<bool> c2 = db.Holds("c2[alert->1]");
  ASSERT_TRUE(c2.ok());
  EXPECT_TRUE(*c2);
}

TEST(TriggerTest, NegatedConditions) {
  Database db;
  ASSERT_TRUE(db.Load(R"(
    orphanAlert[for->>{X}] <~ X:vehicle, not X[owner->Y].
    v1 : vehicle.
    v2 : vehicle.
    v2[owner->mary].
  )").ok());
  ASSERT_TRUE(db.FireTriggers().ok());
  Result<bool> a1 = db.Holds("orphanAlert[for->>{v1}]");
  Result<bool> a2 = db.Holds("orphanAlert[for->>{v2}]");
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  EXPECT_TRUE(*a1);
  EXPECT_FALSE(*a2);
}

TEST(TriggerTest, TriggersSurviveDatabaseSnapshot) {
  const std::string path = ::testing::TempDir() + "/pathlog_trig.snap";
  {
    Database db;
    ASSERT_TRUE(db.Load(R"(
      log[saw->>{X}] <~ X:automobile.
      car1 : automobile.
    )").ok());
    ASSERT_TRUE(db.FireTriggers().ok());
    ASSERT_TRUE(db.SaveSnapshotFile(path).ok());
  }
  Result<Database> restored = Database::LoadSnapshotFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->num_triggers(), 1u);
  ASSERT_TRUE(restored->Load("car2 : automobile.").ok());
  ASSERT_TRUE(restored->FireTriggers().ok());
  Result<bool> saw2 = restored->Holds("log[saw->>{car2}]");
  ASSERT_TRUE(saw2.ok());
  EXPECT_TRUE(*saw2);
  std::remove(path.c_str());
}

TEST(TriggerTest, WallDeadlineStopsTheCascadeMidwayAndALaterFireCompletes) {
  // A three-round cascade under a wall deadline driven by a fake clock
  // that burns 30 fake ms per reading against a 50 ms budget: the
  // cascade must stop with kDeadlineExceeded naming the trigger round,
  // and a later fire (with time stalled) must finish the job from the
  // watermark — nothing lost, nothing fired twice.
  uint64_t now = 0;
  uint64_t step = 30;
  DatabaseOptions opts;
  opts.engine.limits.max_wall_ms = 50;
  opts.engine.limits.clock = [&now, &step] {
    now += step;
    return now;
  };
  Database db(opts);
  ASSERT_TRUE(db.Load(R"(
    X[lvl2->1] <~ X[lvl1->1].
    X[lvl3->1] <~ X[lvl2->1].
    X[lvl4->1] <~ X[lvl3->1].
    seed[lvl1->1].
  )").ok());
  Status st = db.FireTriggers();
  ASSERT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st;
  EXPECT_NE(st.message().find("during trigger round"), std::string::npos)
      << st;
  Result<bool> last = db.Holds("seed[lvl4->1]");
  ASSERT_TRUE(last.ok());
  EXPECT_FALSE(*last) << "the deadline must interrupt the cascade";

  step = 0;  // the clock stalls: the same deadline can no longer lapse
  ASSERT_TRUE(db.FireTriggers().ok());
  uint64_t firings = db.trigger_stats().firings;
  EXPECT_EQ(firings, 3u) << "each level fires exactly once across fires";
  for (const char* ref : {"seed[lvl2->1]", "seed[lvl3->1]",
                          "seed[lvl4->1]"}) {
    Result<bool> holds = db.Holds(ref);
    ASSERT_TRUE(holds.ok()) << ref;
    EXPECT_TRUE(*holds) << ref;
  }
}

}  // namespace
}  // namespace pathlog
