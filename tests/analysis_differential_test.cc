// Differential guard for the semantic analyses' planner hook
// (DatabaseOptions::use_analysis_hints): re-running every differential
// program with the analyser feeding PlannerHints to the engine and the
// query planner must change neither the materialised fact set nor any
// query answer, under all three evaluation strategies. The hints are
// proofs ("this method is empty"), so only literal order and cost
// estimates may move — never answers.

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>

#include "query/database.h"
#include "store/fact.h"
#include "workload/company.h"
#include "workload/kinship.h"
#include "workload/people.h"

namespace pathlog {
namespace {

enum class Workload { kChain, kTree, kDag, kCompany, kPeople };

void Generate(ObjectStore* store, Workload w) {
  switch (w) {
    case Workload::kChain:
      GenerateChain(store, 60);
      break;
    case Workload::kTree:
      GenerateTree(store, 80, 3);
      break;
    case Workload::kDag:
      GenerateRandomDag(store, 70, 2.0, 1234);
      break;
    case Workload::kCompany: {
      CompanyConfig cfg;
      cfg.num_employees = 60;
      cfg.num_companies = 5;
      GenerateCompany(store, cfg);
      break;
    }
    case Workload::kPeople: {
      PeopleConfig cfg;
      cfg.num_persons = 60;
      cfg.has_street_fraction = 0.6;
      GeneratePeople(store, cfg);
      break;
    }
  }
}

struct Case {
  const char* name;
  Workload workload;
  const char* rules;
};

// gtest prints the parameter into each test's ctest name; the default
// printer would dump the struct's bytes, name pointer included.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

// The same 11-program suite as tests/differential_test.cc.
const Case kCases[] = {
    {"desc_chain", Workload::kChain, R"(
       X[desc->>{Y}] <- X[kids->>{Y}].
       X[desc->>{Y}] <- X..desc[kids->>{Y}].
     )"},
    {"desc_tree", Workload::kTree, R"(
       X[desc->>{Y}] <- X[kids->>{Y}].
       X[desc->>{Y}] <- X..desc[kids->>{Y}].
     )"},
    {"desc_dag_leftrec", Workload::kDag, R"(
       X[desc->>{Y}] <- X[kids->>{Y}].
       X[desc->>{Y}] <- X[kids->>{Z}], Z[desc->>{Y}].
     )"},
    {"generic_tc_tree", Workload::kTree, R"(
       X[(M.tc)->>{Y}] <- X[M->>{Y}].
       X[(M.tc)->>{Y}] <- X..(M.tc)[M->>{Y}].
     )"},
    {"same_dept_pairs", Workload::kCompany, R"(
       X[colleague->>{Y}] <- X:employee[worksFor->D], Y:employee[worksFor->D].
     )"},
    {"virtual_boss", Workload::kCompany, R"(
       X.deputy[assists->X; inDept->D] <- X:manager, X[worksFor->D].
     )"},
    {"virtual_addresses", Workload::kPeople, R"(
       X.address[street->X.street; city->X.city] <- X:person.
     )"},
    {"stratified_sets", Workload::kChain, R"(
       X[reach->>{Y}] <- X[kids->>{Y}].
       X[reach->>{Y}] <- X..reach[kids->>{Y}].
       X[frontier->>p0..reach] <- X[self->p0].
     )"},
    {"negation_childless", Workload::kTree, R"(
       X[hasKid->1] <- X[kids->>{Y}].
       X[childless->1] <- X:thing, not X[hasKid->1].
       t0 : thing. t1 : thing.
     )"},
    {"inverted_reports", Workload::kCompany, R"(
       B[reports->>{X}] <- B[self->X.boss].
     )"},
    {"inverted_ownership", Workload::kCompany, R"(
       V[ownedBy->>{X}] <- V:automobile, X[vehicles->>{V}].
     )"},
};

class HintsDifferentialTest : public ::testing::TestWithParam<Case> {};

TEST_P(HintsDifferentialTest, AnalysisHintsChangeNoAnswers) {
  const Case& c = GetParam();
  for (EvalStrategy s :
       {EvalStrategy::kNaive, EvalStrategy::kSemiNaiveRules,
        EvalStrategy::kSemiNaiveDelta}) {
    std::set<std::string> facts[2];
    std::string answers[2];
    for (int hinted = 0; hinted < 2; ++hinted) {
      DatabaseOptions opts;
      opts.engine.strategy = s;
      opts.use_analysis_hints = hinted == 1;
      Database db(opts);
      Generate(&db.store(), c.workload);
      Status st = db.Load(c.rules);
      ASSERT_TRUE(st.ok()) << st;
      st = db.Materialize();
      ASSERT_TRUE(st.ok()) << st;
      for (uint64_t g = 0; g < db.store().generation(); ++g) {
        facts[hinted].insert(FactToString(db.store().FactAt(g), db.store()));
      }
      Result<ResultSet> rs = db.Query("?- X[kids->>{Y}].");
      ASSERT_TRUE(rs.ok()) << rs.status();
      answers[hinted] = rs->ToString(db.store());
    }
    EXPECT_EQ(facts[0], facts[1])
        << c.name << " strategy " << static_cast<int>(s);
    EXPECT_EQ(answers[0], answers[1])
        << c.name << " strategy " << static_cast<int>(s);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, HintsDifferentialTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return param_info.param.name;
    });

TEST(HintsDifferentialTest2, ProvablyEmptyLiteralStillAnswersCorrectly) {
  // A body literal over a method the analyser proves empty: the hinted
  // planner costs it at zero and may move it first, but the rule still
  // derives nothing — exactly like the unhinted run.
  for (int hinted = 0; hinted < 2; ++hinted) {
    DatabaseOptions opts;
    opts.use_analysis_hints = hinted == 1;
    Database db(opts);
    Status st = db.Load(R"(
      alice[age->30]. bob[age->40].
      X[senior->1] <- X[age->A], X[ghost->1].
      X[adult->1] <- X[age->A], A.geq@(18).
    )");
    ASSERT_TRUE(st.ok()) << st;
    ASSERT_TRUE(db.Materialize().ok());
    Result<bool> senior = db.Holds("alice[senior->1]");
    ASSERT_TRUE(senior.ok());
    EXPECT_FALSE(*senior);
    Result<bool> adult = db.Holds("alice[adult->1]");
    ASSERT_TRUE(adult.ok());
    EXPECT_TRUE(*adult);
  }
}

TEST(HintsDifferentialTest2, HintsSurviveIncrementalLoads) {
  // Hints are refreshed on every materialisation: a method that was
  // provably empty gains a producer in a later Load, and the hinted
  // database must pick up the new derivations.
  DatabaseOptions opts;
  opts.use_analysis_hints = true;
  Database db(opts);
  ASSERT_TRUE(db.Load(R"(
    alice[age->30].
    X[senior->1] <- X[age->A], X[emeritus->1].
  )").ok());
  ASSERT_TRUE(db.Materialize().ok());
  Result<bool> senior = db.Holds("alice[senior->1]");
  ASSERT_TRUE(senior.ok());
  EXPECT_FALSE(*senior);

  ASSERT_TRUE(db.Load("X[emeritus->1] <- X[age->A], A.geq@(30).").ok());
  ASSERT_TRUE(db.Materialize().ok());
  senior = db.Holds("alice[senior->1]");
  ASSERT_TRUE(senior.ok());
  EXPECT_TRUE(*senior);
}

}  // namespace
}  // namespace pathlog
