// The cost-based conjunction planner: ordering, estimates, safety, and
// end-to-end effect through Database::ExplainQuery.

#include "query/planner.h"

#include <gtest/gtest.h>

#include <tuple>

#include "ast/analysis.h"
#include "ast/printer.h"
#include "base/strings.h"
#include "obs/profile.h"
#include "parser/parser.h"
#include "query/database.h"
#include "semantics/structure.h"
#include "workload/company.h"

namespace pathlog {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CompanyConfig cfg;
    cfg.num_employees = 200;
    cfg.manager_fraction = 0.05;  // 10 managers, 190 plain employees
    GenerateCompany(&db_.store(), cfg);
  }

  std::vector<Literal> Plan(std::string_view query_text) {
    Result<struct Query> q = ParseQuery(query_text);
    EXPECT_TRUE(q.ok()) << q.status();
    std::vector<Literal> body = q->body;
    Status st = PlanConjunction(&body, db_.store(), nullptr);
    EXPECT_TRUE(st.ok()) << st;
    return body;
  }

  double Cost(std::string_view ref_text,
              const std::set<std::string>& bound = {}) {
    Result<RefPtr> r = ParseRef(ref_text);
    EXPECT_TRUE(r.ok()) << r.status();
    return EstimateLiteralCost(**r, bound, db_.store());
  }

  Database db_;
};

TEST_F(PlannerTest, BoundAnchorsAreCheapest) {
  // A literal costs the rows its sites produce per input binding,
  // summed: a bound receiver yields at most one row on a scalar method
  // and the average group on a set method.
  EXPECT_EQ(Cost("emp0[age->A]"), 1.0);
  EXPECT_EQ(Cost("X[age->A]", {"X"}), 1.0);
  const Oid vehicles = *db_.store().FindSymbol("vehicles");
  const double group =
      static_cast<double>(db_.store().SetMemberStats(vehicles).total) /
      static_cast<double>(db_.store().SetGroups(vehicles).size());
  // emp0..vehicles fans out to a group, and .color adds one row each.
  EXPECT_DOUBLE_EQ(Cost("emp0..vehicles.color[Z]"), 2 * group);
  EXPECT_LT(Cost("emp0[age->A]"), Cost("X:manager"));
}

TEST_F(PlannerTest, ClassExtentsEstimateByMembers) {
  double managers = Cost("X:manager");
  double employees = Cost("X:employee");
  EXPECT_LT(managers, employees);
  EXPECT_EQ(managers,
            static_cast<double>(
                db_.store().Members(*db_.store().FindSymbol("manager"))
                    .size()));
}

TEST_F(PlannerTest, UnknownAnchorCostsTheUniverse) {
  EXPECT_EQ(Cost("X[self->Y]"),
            static_cast<double>(db_.store().UniverseSize()));
}

TEST_F(PlannerTest, SmallExtentGoesFirst) {
  // manager extent (10) is far smaller than the age method (200
  // entries): the planner must start from the managers.
  std::vector<Literal> plan =
      Plan("?- X[age->A], X:manager.");
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(ToString(*plan[0].ref), "X:manager");
}

TEST_F(PlannerTest, BindingPropagatesIntoLaterEstimates) {
  // Once X is bound by the first literal, X[age->A] costs 1 and beats
  // scanning another extent.
  std::vector<Literal> plan =
      Plan("?- Y:employee, X:manager, X[age->A].");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(ToString(*plan[0].ref), "X:manager");
  EXPECT_EQ(ToString(*plan[1].ref), "X[age->A]");
}

TEST_F(PlannerTest, NegationStaysSafe) {
  std::vector<Literal> plan =
      Plan("?- not X[age->A], X:manager.");
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_FALSE(plan[0].negated);
  EXPECT_TRUE(plan[1].negated);
}

TEST_F(PlannerTest, UnsafeConjunctionRejected) {
  Result<struct Query> q =
      ParseQuery("?- X[friends->>Y..assistants].");
  ASSERT_TRUE(q.ok());
  std::vector<Literal> body = q->body;
  EXPECT_EQ(PlanConjunction(&body, db_.store(), nullptr).code(),
            StatusCode::kUnsafeRule);
}

TEST_F(PlannerTest, PlansProduceSameAnswersAsAnyOrder) {
  // Differential: both orderings of a two-literal query agree with the
  // planner's choice.
  Result<ResultSet> a = db_.Query("?- X:manager, X[age->A].");
  Result<ResultSet> b = db_.Query("?- X[age->A], X:manager.");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->rows(), b->rows());
  EXPECT_EQ(a->size(), 10u);
}

// FIXED (was the pinned "known gap"): DriverCardinality used to
// estimate a runtime-bound scalar value with the *average*
// inverted-index bucket (entries / distinct values), blind to skew:
// with one hot value holding 99 of 100 entries the average (50)
// undersold the real bucket enough to drive `Y[city->C]` ahead of the
// smaller `Y:resident` extent (60). The store now keeps exact top-k
// heavy-hitter statistics per method and the planner prices a
// runtime-bound probe at the upper quantile of those buckets, so the
// extent drives first and every estimate lands within 2x of the
// observed per-probe cardinality.
TEST(PlannerSkewTest, SkewStatisticsRankTheExtentBeforeTheHotBucket) {
  Database db;
  Profiler profiler;
  ObsSinks sinks;
  sinks.profiler = &profiler;
  db.SetObsSinks(sinks);
  std::string program = "hub[site->metro].\noutlier[city->village].\n";
  for (int i = 0; i < 99; ++i) {
    program += StrCat("m", i, "[city->metro].\n");
  }
  for (int i = 0; i < 60; ++i) {
    program += StrCat("m", i, " : resident.\n");
  }
  ASSERT_TRUE(db.Load(program).ok());

  // Skew-aware (default) plan: hub[site->C] binds C, then Y[city->C]
  // is priced at the hot bucket (99), so the Y:resident extent (60)
  // drives and the city probe degrades to a per-tuple check.
  Result<struct Query> q =
      ParseQuery("?- hub[site->C], Y[city->C], Y:resident.");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Literal> body = q->body;
  std::vector<double> estimates;
  ASSERT_TRUE(
      PlanConjunction(&body, db.store(), nullptr, &estimates).ok());
  ASSERT_EQ(body.size(), 3u);
  EXPECT_EQ(ToString(*body[0].ref), "hub[site->C]");
  EXPECT_EQ(ToString(*body[1].ref), "Y:resident");
  EXPECT_EQ(ToString(*body[2].ref), "Y[city->C]");
  EXPECT_DOUBLE_EQ(estimates[1], 60.0);

  // Run the query with the profiler attached: the answers are the
  // same as ever (60 residents of the hot metro), and the profiler's
  // estimate-vs-actual table — the oracle that used to expose the
  // misrank — now shows every literal's estimate within 2x of its
  // observed per-probe cardinality.
  Result<ResultSet> rs = db.Query("?- hub[site->C], Y[city->C], Y:resident.");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->size(), 60u);
  std::vector<Profiler::LiteralProfile> lits = profiler.LiteralProfiles();
  ASSERT_EQ(lits.size(), 3u) << db.ProfileReport();
  for (const Profiler::LiteralProfile& l : lits) {
    ASSERT_GT(l.invocations, 0u) << l.literal;
    double actual_per_probe = l.ActualPerInvocation();
    EXPECT_LE(l.estimated, std::max(actual_per_probe, 1.0) * 2.0)
        << l.literal << "\n" << db.ProfileReport();
    EXPECT_GE(l.estimated * 2.0, actual_per_probe)
        << l.literal << "\n" << db.ProfileReport();
  }
  for (const Profiler::LiteralProfile& l : lits) {
    if (l.literal == "Y:resident") {
      EXPECT_DOUBLE_EQ(l.estimated, 60.0);
      EXPECT_EQ(l.actual, 60u);
      EXPECT_EQ(l.invocations, 1u);
    }
    if (l.literal == "Y[city->C]") {
      // Re-entered once per resident; each probe is a bound check.
      EXPECT_EQ(l.invocations, 60u);
      EXPECT_EQ(l.actual, 60u);
    }
  }
}

// The set-valued twin: a runtime-bound member used to have *no*
// runtime-bound estimate at all — it fell through to the full
// SetGroups(m) count, so a cheap one-bucket probe was priced as a
// whole-method scan and the planner drove a larger class extent
// instead. With per-member heavy-hitter stats the probe is priced at
// its hot bucket, which here beats the extent.
TEST(PlannerSkewTest, SetMemberStatisticsPriceTheProbeNotTheScan) {
  Database db;
  std::string program = "hub[site->metro].\n";
  // 40 groups contain the hot member; 160 more groups hold unique
  // members, so the method has 200 groups and 161 distinct members.
  for (int i = 0; i < 40; ++i) {
    program += StrCat("g", i, "[likes->>{metro}].\n");
    program += StrCat("g", i, " : resident.\n");
  }
  for (int i = 0; i < 160; ++i) {
    program += StrCat("h", i, "[likes->>{v", i, "}].\n");
  }
  for (int i = 0; i < 60; ++i) {
    program += StrCat("h", i, " : resident.\n");
  }
  ASSERT_TRUE(db.Load(program).ok());

  Result<struct Query> q =
      ParseQuery("?- hub[site->C], Y[likes->>{C}], Y:resident.");
  ASSERT_TRUE(q.ok()) << q.status();

  // Skew-aware: the member probe is priced at the heaviest bucket
  // (40), beating the resident extent (100), so it drives.
  std::vector<Literal> body = q->body;
  std::vector<double> estimates;
  ASSERT_TRUE(
      PlanConjunction(&body, db.store(), nullptr, &estimates).ok());
  ASSERT_EQ(body.size(), 3u);
  EXPECT_EQ(ToString(*body[1].ref), "Y[likes->>{C}]");
  EXPECT_EQ(ToString(*body[2].ref), "Y:resident");
  EXPECT_DOUBLE_EQ(estimates[1], 40.0);

  // The plan answers the 40 metro-liking residents.
  Result<ResultSet> rs =
      db.Query("?- hub[site->C], Y[likes->>{C}], Y:resident.");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->size(), 40u);
}

TEST_F(PlannerTest, EstimatesAlignWithThePostReorderBody) {
  // Regression: the `estimates` out-param (and the cost log) must be
  // reported in *post-reorder* literal order — the order the body is
  // returned in and the order Query executes — not in the order the
  // query was written. Write the body backwards so any source-order
  // reporting misaligns every entry.
  Result<struct Query> q =
      ParseQuery("?- Y:employee, X[age->A], X:manager.");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Literal> body = q->body;
  std::vector<std::string> cost_log;
  std::vector<double> estimates;
  ASSERT_TRUE(
      PlanConjunction(&body, db_.store(), &cost_log, &estimates).ok());
  ASSERT_EQ(body.size(), 3u);
  ASSERT_EQ(estimates.size(), 3u);
  ASSERT_EQ(cost_log.size(), 3u);
  EXPECT_EQ(ToString(*body[0].ref), "X:manager");  // reordered

  // Each estimate must be the cost of the literal *at that plan
  // position*, under the bindings accumulated by the literals before
  // it — recomputed independently here.
  std::set<std::string> bound;
  for (size_t i = 0; i < body.size(); ++i) {
    EXPECT_DOUBLE_EQ(estimates[i],
                     EstimateLiteralCost(*body[i].ref, bound, db_.store()))
        << "plan position " << i << ": " << ToString(*body[i].ref);
    EXPECT_NE(cost_log[i].find(ToString(body[i])), std::string::npos)
        << "cost log line " << i << " is not the literal at plan position "
        << i << ": " << cost_log[i];
    if (!body[i].negated) {
      for (const std::string& v : VarsOf(*body[i].ref)) bound.insert(v);
    }
  }

  // And the profiler consumes the same alignment: each literal's
  // recorded estimate equals the estimate at its plan position.
  Profiler profiler;
  ObsSinks sinks;
  sinks.profiler = &profiler;
  db_.SetObsSinks(sinks);
  Result<ResultSet> rs = db_.Query("?- Y:employee, X[age->A], X:manager.");
  ASSERT_TRUE(rs.ok()) << rs.status();
  std::vector<Profiler::LiteralProfile> lits = profiler.LiteralProfiles();
  ASSERT_EQ(lits.size(), 3u);
  for (const Profiler::LiteralProfile& l : lits) {
    bool matched = false;
    for (size_t i = 0; i < body.size(); ++i) {
      if (l.literal == ToString(body[i])) {
        matched = true;
        EXPECT_DOUBLE_EQ(l.estimated, estimates[i]) << l.literal;
      }
    }
    EXPECT_TRUE(matched) << l.literal;
  }
  db_.SetObsSinks(ObsSinks{});
}

TEST_F(PlannerTest, ExplainQueryShowsOrderedPlan) {
  Result<std::string> plan =
      db_.ExplainQuery("?- X[age->A], X:manager.");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // One line per site: its text, its route and its estimate.
  size_t manager_pos = plan->find("1. X:manager   (class extent, "
                                  "estimated rows 10)");
  size_t age_pos = plan->find("2. X[age->A]   (receiver probe, "
                              "estimated rows 1)");
  ASSERT_NE(manager_pos, std::string::npos) << *plan;
  ASSERT_NE(age_pos, std::string::npos) << *plan;
  EXPECT_LT(manager_pos, age_pos);
  EXPECT_NE(plan->find("plan fingerprint: "), std::string::npos);
}

// The section-2 manager query on a store with serve's proportions: a
// tenth of the employees manage, and each company has 50 employees.
class ManagerPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CompanyConfig cfg;
    cfg.num_employees = 2000;
    cfg.num_companies = 40;
    GenerateCompany(&db_.store(), cfg);
  }

  /// The read's planned sites.
  SiteProgram PlannedSites(std::string_view query_text) {
    Result<struct Query> q = ParseQuery(query_text);
    EXPECT_TRUE(q.ok()) << q.status();
    queries_.push_back(*std::move(q));
    const SemanticStructure I(db_.store());
    SiteProgram program = CompileSites(queries_.back().body, I);
    Status st = PlanSites(&program, db_.store());
    EXPECT_TRUE(st.ok()) << st;
    return program;
  }

  /// Position of the first planned site whose text contains `needle`.
  static size_t SitePos(const SiteProgram& p, std::string_view needle) {
    for (size_t i = 0; i < p.sites.size(); ++i) {
      if (p.SiteText(p.sites[i]).find(needle) != std::string::npos) return i;
    }
    ADD_FAILURE() << "no site contains " << needle;
    return p.sites.size();
  }

  Database db_;
  std::vector<struct Query> queries_;  // the programs point into these
};

constexpr char kManagerReference[] =
    "?- X:manager..vehicles[color->red].producedBy[city->detroit; "
    "president->X].";
constexpr char kManagerConjunction[] =
    "?- X:manager, X[vehicles->>{V}], V[color->red], V[producedBy->C], "
    "C[city->detroit], C[president->X].";

TEST_F(ManagerPlanTest, CityIsTestedBeforeVehiclesFanOut) {
  for (const char* text : {kManagerReference, kManagerConjunction}) {
    SiteProgram p = PlannedSites(text);
    EXPECT_LT(SitePos(p, "[city->detroit]"), SitePos(p, "[vehicles->>"))
        << text;
  }
  // The literal order of the conjunction agrees.
  Result<struct Query> q = ParseQuery(kManagerConjunction);
  ASSERT_TRUE(q.ok());
  std::vector<Literal> body = q->body;
  ASSERT_TRUE(PlanConjunction(&body, db_.store()).ok());
  size_t city = body.size(), vehicles = body.size();
  for (size_t i = 0; i < body.size(); ++i) {
    const std::string lit = ToString(body[i]);
    if (lit == "C[city->detroit]") city = i;
    if (lit == "X[vehicles->>{V}]") vehicles = i;
  }
  EXPECT_LT(city, vehicles);
}

TEST_F(ManagerPlanTest, ReferenceAndConjunctionCompileToTheSamePlan) {
  const SiteProgram one = PlannedSites(kManagerReference);
  const SiteProgram six = PlannedSites(kManagerConjunction);
  auto shape = [](const SiteProgram& p) {
    std::vector<std::tuple<SiteKind, std::string, SiteRoute>> out;
    for (const Site& s : p.sites) {
      const Slot& m = p.slots[s.method];
      out.emplace_back(s.kind, ToString(*m.name), s.route);
    }
    return out;
  };
  EXPECT_EQ(shape(one), shape(six));
  ASSERT_EQ(one.sites.size(), 6u);
  // Both answer the same rows.
  Result<ResultSet> a = db_.Query(kManagerReference);
  Result<ResultSet> b = db_.Query(kManagerConjunction);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->Column("X", db_.store()), b->Column("X", db_.store()));
  EXPECT_GT(a->size(), 0u);
}

TEST_F(ManagerPlanTest, TwoBoundFiltersDriveFromTheSmallerBucket) {
  // Template 3 of the serve benchmark: filters on both dimensions.
  const char* text =
      "?- X:employee[age->30; city->detroit]..vehicles[Y]:automobile"
      "[cylinders->4].color[Z].";
  const ObjectStore& store = db_.store();
  const double age = static_cast<double>(
      store
          .ScalarEntriesByValue(*store.FindSymbol("age"), *store.FindInt(30))
          .size());
  const double city = static_cast<double>(
      store
          .ScalarEntriesByValue(*store.FindSymbol("city"),
                                *store.FindSymbol("detroit"))
          .size());
  ASSERT_NE(age, city);
  const std::string driver = age < city ? "[age->30]" : "[city->detroit]";
  const std::string other = age < city ? "[city->detroit]" : "[age->30]";
  SiteProgram p = PlannedSites(text);
  ASSERT_EQ(SitePos(p, driver), 0u);
  EXPECT_EQ(p.sites[0].route, SiteRoute::kInverted);
  EXPECT_EQ(p.sites[0].estimate, std::min(age, city));
  const size_t o = SitePos(p, other);
  ASSERT_LT(o, p.sites.size());
  EXPECT_EQ(p.sites[o].route, SiteRoute::kTest);
  // One store probe per candidate that reaches the other filter.
  const SemanticStructure I(store);
  SiteCounters counters;
  counters.per_site = true;
  auto sink = [](const Oid*) -> Result<bool> { return true; };
  ASSERT_TRUE(RunSites(p, I, nullptr, &counters, sink).ok());
  EXPECT_EQ(counters.inverted_probes, 1u);
  EXPECT_EQ(counters.entered[o], counters.produced[o - 1]);
  EXPECT_LE(counters.entered[o], static_cast<uint64_t>(std::min(age, city)));
}

}  // namespace
}  // namespace pathlog
