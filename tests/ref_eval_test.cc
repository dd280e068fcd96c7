// Tests for the binding-enumeration evaluator (eval/ref_eval): the
// query-answering counterpart of Definition 4, including its documented
// active-domain deviations, and its index routes checked against
// Definition 4 itself.

#include "eval/ref_eval.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "parser/parser.h"
#include "random_refs.h"
#include "semantics/structure.h"
#include "store/object_store.h"

namespace pathlog {
namespace {

class RefEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_.InternSymbol(kSelfMethodName);
    // A small company: two employees with vehicles, one automobile.
    emp_ = store_.InternSymbol("employee");
    car_class_ = store_.InternSymbol("automobile");
    veh_class_ = store_.InternSymbol("vehicle");
    ASSERT_TRUE(store_.AddIsa(car_class_, veh_class_).ok());

    mary_ = store_.InternSymbol("mary");
    john_ = store_.InternSymbol("john");
    car1_ = store_.InternSymbol("car1");
    bike1_ = store_.InternSymbol("bike1");
    red_ = store_.InternSymbol("red");
    blue_ = store_.InternSymbol("blue");

    Oid vehicles = store_.InternSymbol("vehicles");
    Oid color = store_.InternSymbol("color");
    Oid cylinders = store_.InternSymbol("cylinders");
    Oid age = store_.InternSymbol("age");

    ASSERT_TRUE(store_.AddIsa(mary_, emp_).ok());
    ASSERT_TRUE(store_.AddIsa(john_, emp_).ok());
    ASSERT_TRUE(store_.AddIsa(car1_, car_class_).ok());
    ASSERT_TRUE(store_.AddIsa(bike1_, veh_class_).ok());
    store_.AddSetMember(vehicles, mary_, {}, car1_);
    store_.AddSetMember(vehicles, mary_, {}, bike1_);
    store_.AddSetMember(vehicles, john_, {}, bike1_);
    ASSERT_TRUE(store_.SetScalar(color, car1_, {}, red_).ok());
    ASSERT_TRUE(store_.SetScalar(color, bike1_, {}, blue_).ok());
    ASSERT_TRUE(
        store_.SetScalar(cylinders, car1_, {}, store_.InternInt(4)).ok());
    ASSERT_TRUE(store_.SetScalar(age, mary_, {}, store_.InternInt(30)).ok());
    ASSERT_TRUE(store_.SetScalar(age, john_, {}, store_.InternInt(40)).ok());
  }

  /// All (object, bindings) solutions, as display-name maps with "_" for
  /// the denoted object.
  std::set<std::map<std::string, std::string>> Solutions(
      std::string_view src) {
    Result<RefPtr> r = ParseRef(src);
    EXPECT_TRUE(r.ok()) << r.status();
    std::set<std::map<std::string, std::string>> out;
    if (!r.ok()) return out;
    SemanticStructure I(store_);
    RefEvaluator eval(I);
    Bindings b;
    Result<bool> res = eval.Enumerate(**r, &b, [&](Oid o) -> Result<bool> {
      std::map<std::string, std::string> row;
      row["_"] = store_.DisplayName(o);
      for (const auto& [var, oid] : b.ToValuation()) {
        row[var] = store_.DisplayName(oid);
      }
      out.insert(std::move(row));
      return true;
    });
    EXPECT_TRUE(res.ok()) << src << ": " << res.status();
    return out;
  }

  bool Sat(std::string_view src) {
    Result<RefPtr> r = ParseRef(src);
    EXPECT_TRUE(r.ok()) << r.status();
    SemanticStructure I(store_);
    RefEvaluator eval(I);
    Bindings b;
    Result<bool> res = eval.Satisfiable(**r, &b);
    EXPECT_TRUE(res.ok()) << src << ": " << res.status();
    return res.ok() && *res;
  }

  ObjectStore store_;
  Oid emp_, car_class_, veh_class_, mary_, john_, car1_, bike1_, red_, blue_;
};

using Row = std::map<std::string, std::string>;

TEST_F(RefEvalTest, GroundPath) {
  auto sols = Solutions("car1.color");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "red"}}}));
}

TEST_F(RefEvalTest, UndefinedPathHasNoSolutions) {
  store_.InternSymbol("spouse");
  EXPECT_TRUE(Solutions("mary.spouse").empty());
  EXPECT_FALSE(Sat("mary.spouse"));
}

TEST_F(RefEvalTest, VariableBoundByClassExtent) {
  auto sols = Solutions("X:employee");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "mary"}, {"X", "mary"}},
                                 {{"_", "john"}, {"X", "john"}}}));
}

TEST_F(RefEvalTest, SelectorBindsResult) {
  auto sols = Solutions("mary..vehicles.color[Z]");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "red"}, {"Z", "red"}},
                                 {{"_", "blue"}, {"Z", "blue"}}}));
}

TEST_F(RefEvalTest, TwoDimensionalPathFromThePaper) {
  // Colors of mary-aged-30's 4-cylinder automobiles.
  auto sols =
      Solutions("X:employee[age->30]..vehicles:automobile[cylinders->4]"
                ".color[Z]");
  EXPECT_EQ(sols, (std::set<Row>{
                      {{"_", "red"}, {"X", "mary"}, {"Z", "red"}}}));
}

TEST_F(RefEvalTest, UnboundReceiverDrivenByMethodExtent) {
  // X.color[red]: receivers found through the color method's entries.
  auto sols = Solutions("X.color[self->red]");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "red"}, {"X", "car1"}}}));
}

TEST_F(RefEvalTest, UnboundVariableMethod) {
  // Which scalar methods lead from car1 to red?
  auto sols = Solutions("car1.M[self->red]");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "red"}, {"M", "color"}}}));
}

TEST_F(RefEvalTest, ClassVariableEnumeratesAncestors) {
  auto sols = Solutions("car1:C");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "car1"}, {"C", "automobile"}},
                                 {{"_", "car1"}, {"C", "vehicle"}}}));
}

TEST_F(RefEvalTest, SetEnumFilterBindsMembers) {
  auto sols = Solutions("mary[vehicles->>{V}]");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "mary"}, {"V", "car1"}},
                                 {{"_", "mary"}, {"V", "bike1"}}}));
}

TEST_F(RefEvalTest, SetEnumFilterWithNestedProperty) {
  // "access successively all assistants in this set" — here vehicles
  // with a property: members that are automobiles.
  auto sols = Solutions("mary[vehicles->>{V:automobile}]");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "mary"}, {"V", "car1"}}}));
}

TEST_F(RefEvalTest, SetRefFilterSubset) {
  Oid likes = store_.InternSymbol("likes");
  store_.AddSetMember(likes, john_, {}, car1_);
  store_.AddSetMember(likes, john_, {}, bike1_);
  // mary's vehicles {car1,bike1} are all liked by john.
  EXPECT_TRUE(Sat("john[likes->>mary..vehicles]"));
  // john's vehicles {bike1} are not a superset of mary's.
  EXPECT_FALSE(Sat("john[vehicles->>mary..vehicles]"));
}

TEST_F(RefEvalTest, ActiveDomainEmptySetRefFails) {
  // Deviation from literal Definition 4: an empty specified set is NOT
  // vacuously contained.
  store_.InternSymbol("enemies");
  EXPECT_FALSE(Sat("john[likes->>mary..enemies]"));
}

TEST_F(RefEvalTest, SetRefWithUnboundVarsIsUnsafe) {
  store_.InternSymbol("likes");
  Result<RefPtr> r = ParseRef("john[likes->>Y..vehicles]");
  ASSERT_TRUE(r.ok());
  SemanticStructure I(store_);
  RefEvaluator eval(I);
  Bindings b;
  Result<bool> res = eval.Satisfiable(**r, &b);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kUnsafeRule);
}

TEST_F(RefEvalTest, NestedPathInFilterValue) {
  Oid boss = store_.InternSymbol("boss");
  Oid city = store_.InternSymbol("city");
  Oid ny = store_.InternSymbol("newYork");
  ASSERT_TRUE(store_.SetScalar(boss, john_, {}, mary_).ok());
  ASSERT_TRUE(store_.SetScalar(city, john_, {}, ny).ok());
  ASSERT_TRUE(store_.SetScalar(city, mary_, {}, ny).ok());
  // (2.3): same city as the boss.
  auto sols = Solutions("X:employee[city->X.boss.city]");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "john"}, {"X", "john"}}}));
}

TEST_F(RefEvalTest, EvalGroundCollectsSorted) {
  Result<RefPtr> r = ParseRef("mary..vehicles");
  ASSERT_TRUE(r.ok());
  SemanticStructure I(store_);
  RefEvaluator eval(I);
  Bindings b;
  Result<std::vector<Oid>> v = eval.EvalGround(**r, &b);
  ASSERT_TRUE(v.ok());
  std::vector<Oid> expected{std::min(car1_, bike1_), std::max(car1_, bike1_)};
  EXPECT_EQ(*v, expected);
}

TEST_F(RefEvalTest, EvalGroundRejectsUnboundVars) {
  Result<RefPtr> r = ParseRef("X..vehicles");
  ASSERT_TRUE(r.ok());
  SemanticStructure I(store_);
  RefEvaluator eval(I);
  Bindings b;
  EXPECT_EQ(eval.EvalGround(**r, &b).status().code(),
            StatusCode::kUnsafeRule);
}

TEST_F(RefEvalTest, BindingsRestoredAfterEnumeration) {
  Result<RefPtr> r = ParseRef("X:employee[age->A]");
  ASSERT_TRUE(r.ok());
  SemanticStructure I(store_);
  RefEvaluator eval(I);
  Bindings b;
  int count = 0;
  Result<bool> res = eval.Enumerate(**r, &b, [&](Oid) -> Result<bool> {
    ++count;
    return true;
  });
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(count, 2);
  EXPECT_EQ(b.size(), 0u);
}

TEST_F(RefEvalTest, EarlyStopPropagates) {
  Result<RefPtr> r = ParseRef("X:employee");
  ASSERT_TRUE(r.ok());
  SemanticStructure I(store_);
  RefEvaluator eval(I);
  Bindings b;
  int count = 0;
  Result<bool> res = eval.Enumerate(**r, &b, [&](Oid) -> Result<bool> {
    ++count;
    return false;  // stop after the first
  });
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(*res);
  EXPECT_EQ(count, 1);
}

TEST_F(RefEvalTest, PreBoundVariablesRestrict) {
  Result<RefPtr> r = ParseRef("X:employee[age->A]");
  ASSERT_TRUE(r.ok());
  SemanticStructure I(store_);
  RefEvaluator eval(I);
  Bindings b;
  b.Bind("X", john_);
  std::set<std::string> ages;
  Result<bool> res = eval.Enumerate(**r, &b, [&](Oid) -> Result<bool> {
    ages.insert(store_.DisplayName(*b.Get("A")));
    return true;
  });
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(ages, (std::set<std::string>{"40"}));
}

TEST_F(RefEvalTest, MethodArgumentsMatchAndBind) {
  Oid salary = store_.InternSymbol("salary");
  Oid y94 = store_.InternInt(1994);
  Oid y95 = store_.InternInt(1995);
  ASSERT_TRUE(store_.SetScalar(salary, john_, {y94},
                               store_.InternInt(100)).ok());
  ASSERT_TRUE(store_.SetScalar(salary, john_, {y95},
                               store_.InternInt(200)).ok());
  auto sols = Solutions("john.salary@(1994)");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "100"}}}));
  // Unbound argument variable enumerates stored invocations.
  auto sols2 = Solutions("john.salary@(Y)");
  EXPECT_EQ(sols2, (std::set<Row>{{{"_", "100"}, {"Y", "1994"}},
                                  {{"_", "200"}, {"Y", "1995"}}}));
}

TEST_F(RefEvalTest, PathOverSetValuedBaseFlattens) {
  auto sols = Solutions("mary..vehicles.color");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "red"}}, {{"_", "blue"}}}));
}

TEST_F(RefEvalTest, BareUnboundVariableScansUniverse) {
  auto sols = Solutions("X[self->mary]");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "mary"}, {"X", "mary"}}}));
}

TEST_F(RefEvalTest, DuplicatePathDerivationsEmitOnce) {
  // Regression: a path denoting one object through two derivations
  // (two of mary's vehicles sharing a colour) used to emit it twice.
  Oid color = *store_.FindSymbol("color");
  Oid vehicles = *store_.FindSymbol("vehicles");
  Oid car2 = store_.InternSymbol("car2");
  store_.AddSetMember(vehicles, mary_, {}, car2);
  ASSERT_TRUE(store_.SetScalar(color, car2, {}, red_).ok());

  Result<RefPtr> r = ParseRef("mary..vehicles.color");
  ASSERT_TRUE(r.ok());
  SemanticStructure I(store_);
  RefEvaluator eval(I);
  Bindings b;
  std::multiset<std::string> emitted;
  Result<bool> res = eval.Enumerate(**r, &b, [&](Oid o) -> Result<bool> {
    emitted.insert(store_.DisplayName(o));
    return true;
  });
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(emitted, (std::multiset<std::string>{"blue", "red"}));
  EXPECT_EQ(eval.duplicates_suppressed(), 1u);
}

TEST_F(RefEvalTest, DuplicateSuppressionKeepsDistinctBindings) {
  // Same object, different bindings: both solutions must survive.
  Oid color = *store_.FindSymbol("color");
  Oid vehicles = *store_.FindSymbol("vehicles");
  Oid car2 = store_.InternSymbol("car2");
  store_.AddSetMember(vehicles, mary_, {}, car2);
  ASSERT_TRUE(store_.SetScalar(color, car2, {}, red_).ok());
  auto sols = Solutions("mary..vehicles[V].color");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "red"}, {"V", "car1"}},
                                 {{"_", "red"}, {"V", "car2"}},
                                 {{"_", "blue"}, {"V", "bike1"}}}));
}

TEST_F(RefEvalTest, GuardFilterDoesNotPretendToDrive) {
  // Regression: a molecule over an unbound variable whose only filter
  // is a comparison guard must fall back to scanning the universe —
  // guards have no stored extent, so "driving" from one wrongly
  // produced zero candidates.
  store_.InternSymbol("lt");
  store_.InternInt(35);
  auto sols = Solutions("X[lt@(35)->Y]");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "4"}, {"X", "4"}, {"Y", "4"}},
                                 {{"_", "30"}, {"X", "30"}, {"Y", "30"}}}));
}

TEST_F(RefEvalTest, MatchesScalarPathAgainstBoundTarget) {
  // The self filter pushes the bound object `red` into the path
  // pattern X.color: an inverted value→receiver probe.
  auto sols = Solutions("red[self->X.color]");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "red"}, {"X", "car1"}}}));
}

TEST_F(RefEvalTest, MatchesSetPathAgainstBoundTarget) {
  // member→receiver probe: whose vehicle set contains car1?
  auto sols = Solutions("car1[self->X..vehicles]");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "car1"}, {"X", "mary"}}}));
}

TEST_F(RefEvalTest, MoleculeDrivesFromInvertedValueIndex) {
  auto sols = Solutions("X[color->red]");
  EXPECT_EQ(sols, (std::set<Row>{{{"_", "car1"}, {"X", "car1"}}}));
  auto sols2 = Solutions("X[vehicles->>{car1}]");
  EXPECT_EQ(sols2, (std::set<Row>{{{"_", "mary"}, {"X", "mary"}}}));
}

TEST_F(RefEvalTest, IndexedAndUnindexedSolutionsAgree) {
  store_.InternSymbol("lt");
  store_.InternInt(35);
  const char* kRefs[] = {
      "mary..vehicles.color",
      "mary..vehicles[V].color",
      "red[self->X.color]",
      "car1[self->X..vehicles]",
      "X:employee[age->A]",
      "X[color->red]",
      "X[vehicles->>{car1}]",
      "X[vehicles->>{V:automobile}]",
      "X[lt@(35)->Y]",
      "X[color->C]",
  };
  // The inverted routes against Definition 4 under every total
  // valuation of each reference's variables.
  SemanticStructure I(store_);
  RefEvaluator eval(I);
  for (const char* s : kRefs) {
    Result<RefPtr> ref = ParseRef(s);
    ASSERT_TRUE(ref.ok()) << ref.status();
    EXPECT_TRUE(MatchesDefinition4(I, **ref, [&](const VarValuation& pre) {
      return EvaluatorSolutions(&eval, **ref, pre);
    }));
  }
}

}  // namespace
}  // namespace pathlog
