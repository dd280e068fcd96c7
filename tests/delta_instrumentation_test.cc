// Unit tests for the generation plumbing that powers literal-level
// semi-naive and triggers: store generation stamps, and the
// evaluator's delta-restricted mode.

#include <gtest/gtest.h>

#include "eval/ref_eval.h"
#include "parser/parser.h"
#include "semantics/structure.h"
#include "store/object_store.h"

namespace pathlog {
namespace {

TEST(StoreGenStampsTest, ScalarEntriesCarryGenerations) {
  ObjectStore s;
  Oid m = s.InternSymbol("m");
  Oid a = s.InternSymbol("a");
  Oid b = s.InternSymbol("b");
  ASSERT_TRUE(s.SetScalar(m, a, {}, b).ok());  // gen 0
  ASSERT_TRUE(s.SetScalar(m, b, {}, a).ok());  // gen 1
  EXPECT_EQ(s.ScalarEntries(m)[0].gen, 0u);
  EXPECT_EQ(s.ScalarEntries(m)[1].gen, 1u);
}

TEST(StoreGenStampsTest, SetMembersCarryGenerations) {
  ObjectStore s;
  Oid m = s.InternSymbol("m");
  Oid a = s.InternSymbol("a");
  Oid b = s.InternSymbol("b");
  Oid c = s.InternSymbol("c");
  s.AddSetMember(m, a, {}, b);  // gen 0
  s.AddSetMember(m, a, {}, c);  // gen 1
  const std::optional<SetGroup> g = s.GetSetGroup(m, a, {});
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(std::vector<uint64_t>(g->member_gens.begin(), g->member_gens.end()),
            (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(g->MemberGen(b), 0u);
  EXPECT_EQ(g->MemberGen(c), 1u);
  EXPECT_EQ(g->MemberGen(a), UINT64_MAX);
}

TEST(StoreGenStampsTest, IsaClosurePairsCarryEstablishingGeneration) {
  ObjectStore s;
  Oid x = s.InternSymbol("x");
  Oid mid = s.InternSymbol("mid");
  Oid top = s.InternSymbol("top");
  ASSERT_TRUE(s.AddIsa(x, mid).ok());    // gen 0
  ASSERT_TRUE(s.AddIsa(mid, top).ok());  // gen 1 — also establishes x<=top
  EXPECT_EQ(s.IsaGen(x, mid), 0u);
  EXPECT_EQ(s.IsaGen(mid, top), 1u);
  EXPECT_EQ(s.IsaGen(x, top), 1u);  // the closure pair came with edge 1
  EXPECT_EQ(s.IsaGen(top, x), UINT64_MAX);
  // Parallel gen vectors line up with the extent/ancestor vectors.
  ASSERT_EQ(s.Members(top).size(), s.MemberGens(top).size());
  ASSERT_EQ(s.Ancestors(x).size(), s.AncestorGens(x).size());
}

class DeltaModeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    s_.InternSymbol(kSelfMethodName);
    Oid kids = s_.InternSymbol("kids");
    Oid p0 = s_.InternSymbol("p0");
    Oid p1 = s_.InternSymbol("p1");
    Oid p2 = s_.InternSymbol("p2");
    s_.AddSetMember(kids, p0, {}, p1);  // gen 0 (old)
    cut_ = s_.generation();
    s_.AddSetMember(kids, p0, {}, p2);  // gen 1 (new)
  }

  /// Solutions of `src` that consumed at least one fact >= cut.
  std::set<std::string> DeltaSolutions(std::string_view src) {
    Result<RefPtr> r = ParseRef(src);
    EXPECT_TRUE(r.ok()) << r.status();
    SemanticStructure I(s_);
    RefEvaluator eval(I);
    Bindings b;
    std::set<std::string> out;
    eval.EnterDelta(cut_);
    Result<bool> res = eval.Enumerate(**r, &b, [&](Oid o) -> Result<bool> {
      if (eval.DeltaSeen()) out.insert(s_.DisplayName(o));
      return true;
    });
    eval.ExitDelta();
    EXPECT_TRUE(res.ok()) << res.status();
    return out;
  }

  ObjectStore s_;
  uint64_t cut_ = 0;
};

TEST_F(DeltaModeTest, OnlyNewMembersCountAsDelta) {
  EXPECT_EQ(DeltaSolutions("p0..kids"), (std::set<std::string>{"p2"}));
}

TEST_F(DeltaModeTest, OldFactsDoNotTrip) {
  // Restricting to the old member by pattern: no delta solution.
  EXPECT_EQ(DeltaSolutions("p0[kids->>{p1}]"), (std::set<std::string>{}));
  // The new member's membership fact is delta.
  EXPECT_EQ(DeltaSolutions("p0[kids->>{p2}]"),
            (std::set<std::string>{"p0"}));
}

TEST_F(DeltaModeTest, SuspendStopsCounting) {
  Result<RefPtr> r = ParseRef("p0..kids");
  ASSERT_TRUE(r.ok());
  SemanticStructure I(s_);
  RefEvaluator eval(I);
  Bindings b;
  int seen_while_suspended = 0;
  eval.EnterDelta(cut_);
  bool saved = eval.SuspendDelta();
  Result<bool> res = eval.Enumerate(**r, &b, [&](Oid) -> Result<bool> {
    seen_while_suspended += eval.DeltaSeen() ? 1 : 0;
    return true;
  });
  eval.ResumeDelta(saved);
  eval.ExitDelta();
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(seen_while_suspended, 0);
}

TEST_F(DeltaModeTest, DeltaInactiveByDefault) {
  Result<RefPtr> r = ParseRef("p0..kids");
  ASSERT_TRUE(r.ok());
  SemanticStructure I(s_);
  RefEvaluator eval(I);
  Bindings b;
  int count = 0;
  Result<bool> res = eval.Enumerate(**r, &b, [&](Oid) -> Result<bool> {
    ++count;
    EXPECT_FALSE(eval.DeltaSeen());
    return true;
  });
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(count, 2);
}

TEST_F(DeltaModeTest, IsaDeltaDetected) {
  Oid p3 = s_.InternSymbol("p3");
  Oid thing = s_.InternSymbol("thing");
  ASSERT_TRUE(s_.AddIsa(p3, thing).ok());  // after cut
  EXPECT_EQ(DeltaSolutions("X:thing"), (std::set<std::string>{"p3"}));
}

}  // namespace
}  // namespace pathlog
