// Unit tests for head assertion: virtual-object creation, skolem
// determinism, transactional skip semantics, and rejection cases.

#include "eval/head_assert.h"

#include <gtest/gtest.h>

#include "parser/parser.h"
#include "store/fact.h"

namespace pathlog {
namespace {

class HeadAssertTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_.InternSymbol(kSelfMethodName);
    p1_ = store_.InternSymbol("p1");
  }

  Status Assert(std::string_view head_text,
                HeadValueMode mode = HeadValueMode::kRequireDefined,
                std::map<std::string, Oid> bindings = {}) {
    Result<RefPtr> head = ParseRef(head_text);
    EXPECT_TRUE(head.ok()) << head.status();
    if (!head.ok()) return head.status();
    HeadAsserter asserter(&store_, mode);
    Bindings b;
    for (const auto& [var, oid] : bindings) b.Bind(var, oid);
    return asserter.Assert(**head, &b);
  }

  ObjectStore store_;
  Oid p1_;
};

TEST_F(HeadAssertTest, GroundMoleculeAssertsFacts) {
  ASSERT_TRUE(Assert("p1[age->30; city->ny]:employee").ok());
  Oid age = *store_.FindSymbol("age");
  Oid city = *store_.FindSymbol("city");
  EXPECT_EQ(store_.GetScalar(age, p1_, {}), store_.FindInt(30));
  EXPECT_EQ(store_.GetScalar(city, p1_, {}), store_.FindSymbol("ny"));
  EXPECT_TRUE(store_.IsA(p1_, *store_.FindSymbol("employee")));
}

TEST_F(HeadAssertTest, SpinePathCreatesVirtualObject) {
  ASSERT_TRUE(Assert("p1.boss[rank->1]").ok());
  Oid boss = *store_.FindSymbol("boss");
  std::optional<Oid> vb = store_.GetScalar(boss, p1_, {});
  ASSERT_TRUE(vb.has_value());
  EXPECT_EQ(store_.kind(*vb), ObjectKind::kAnonymous);
  EXPECT_EQ(store_.DisplayName(*vb), "_boss(p1)");
  Oid rank = *store_.FindSymbol("rank");
  EXPECT_EQ(store_.GetScalar(rank, *vb, {}), store_.FindInt(1));
}

TEST_F(HeadAssertTest, SkolemIsStableAcrossAssertions) {
  ASSERT_TRUE(Assert("p1.boss[rank->1]").ok());
  uint64_t gen = store_.generation();
  size_t objects = store_.UniverseSize();
  // Re-assertion is a no-op: same skolem, no new facts, no new objects.
  ASSERT_TRUE(Assert("p1.boss[rank->1]").ok());
  EXPECT_EQ(store_.generation(), gen);
  EXPECT_EQ(store_.UniverseSize(), objects);
}

TEST_F(HeadAssertTest, ArgumentsDistinguishSkolems) {
  ASSERT_TRUE(Assert("p1.review@(2024)[score->5]").ok());
  ASSERT_TRUE(Assert("p1.review@(2025)[score->3]").ok());
  Oid review = *store_.FindSymbol("review");
  Oid y24 = *store_.FindInt(2024);
  Oid y25 = *store_.FindInt(2025);
  std::optional<Oid> r24 = store_.GetScalar(review, p1_, {y24});
  std::optional<Oid> r25 = store_.GetScalar(review, p1_, {y25});
  ASSERT_TRUE(r24.has_value());
  ASSERT_TRUE(r25.has_value());
  EXPECT_NE(*r24, *r25);
  EXPECT_EQ(store_.DisplayName(*r24), "_review(p1,2024)");
}

TEST_F(HeadAssertTest, NestedSpineCreatesChains) {
  ASSERT_TRUE(Assert("p1.dept.head[name->alice]").ok());
  Oid dept = *store_.FindSymbol("dept");
  Oid head = *store_.FindSymbol("head");
  std::optional<Oid> d = store_.GetScalar(dept, p1_, {});
  ASSERT_TRUE(d.has_value());
  std::optional<Oid> h = store_.GetScalar(head, *d, {});
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(store_.DisplayName(*h), "_head(_dept(p1))");
}

TEST_F(HeadAssertTest, RequireDefinedSkipsAtomically) {
  // The first filter is assertable, the second needs the undefined
  // p1.street: with kRequireDefined the WHOLE instance must be skipped
  // — no partial city fact.
  store_.InternSymbol("street");
  uint64_t gen = store_.generation();
  ASSERT_TRUE(
      Assert("p1.addr[city->ny; street->p1.street]").ok());
  EXPECT_EQ(store_.generation(), gen);  // nothing asserted
  Oid addr = *store_.FindSymbol("addr");
  EXPECT_EQ(store_.GetScalar(addr, p1_, {}), std::nullopt);
}

TEST_F(HeadAssertTest, SkolemizeModeInventsValues) {
  store_.InternSymbol("street");
  ASSERT_TRUE(Assert("p1.addr[city->ny; street->p1.street]",
                     HeadValueMode::kSkolemize).ok());
  Oid street = *store_.FindSymbol("street");
  std::optional<Oid> s = store_.GetScalar(street, p1_, {});
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(store_.DisplayName(*s), "_street(p1)");
}

TEST_F(HeadAssertTest, UnboundHeadVariableRejected) {
  EXPECT_EQ(Assert("p1[age->X]").code(), StatusCode::kUnsafeRule);
}

TEST_F(HeadAssertTest, BoundVariablesResolve) {
  Oid ny = store_.InternSymbol("ny");
  ASSERT_TRUE(Assert("p1[city->X]", HeadValueMode::kRequireDefined,
                     {{"X", ny}}).ok());
  Oid city = *store_.FindSymbol("city");
  EXPECT_EQ(store_.GetScalar(city, p1_, {}), ny);
}

TEST_F(HeadAssertTest, SetValuedPathInSpineRejected) {
  Result<RefPtr> head = ParseRef("p1..friends[a->1]");
  ASSERT_TRUE(head.ok());
  HeadAsserter asserter(&store_, HeadValueMode::kRequireDefined);
  Bindings b;
  EXPECT_EQ(asserter.Assert(**head, &b).code(), StatusCode::kIllFormed);
}

TEST_F(HeadAssertTest, ScalarConflictSurfaces) {
  ASSERT_TRUE(Assert("p1[age->30]").ok());
  EXPECT_EQ(Assert("p1[age->31]").code(), StatusCode::kScalarConflict);
}

TEST_F(HeadAssertTest, SetEnumAndSetRefHeads) {
  ASSERT_TRUE(Assert("p1[kids->>{tim,mary}]").ok());
  ASSERT_TRUE(Assert("p2[copies->>p1..kids]").ok());
  Oid copies = *store_.FindSymbol("copies");
  Oid p2 = *store_.FindSymbol("p2");
  const std::optional<SetGroup> g = store_.GetSetGroup(copies, p2, {});
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->members.size(), 2u);
}

TEST_F(HeadAssertTest, ClassPositionInternsAndAsserts) {
  ASSERT_TRUE(Assert("p1:manager:employee").ok());
  EXPECT_TRUE(store_.IsA(p1_, *store_.FindSymbol("manager")));
  EXPECT_TRUE(store_.IsA(p1_, *store_.FindSymbol("employee")));
}

TEST_F(HeadAssertTest, SkolemCountsReported) {
  Result<RefPtr> head = ParseRef("p1.a.b.c[x->1]");
  ASSERT_TRUE(head.ok());
  HeadAsserter asserter(&store_, HeadValueMode::kRequireDefined);
  Bindings b;
  ASSERT_TRUE(asserter.Assert(**head, &b).ok());
  EXPECT_EQ(asserter.skolems_created(), 3u);
}

}  // namespace
}  // namespace pathlog
