#include "store/object_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "query/database.h"
#include "store/fact.h"
#include "store/snapshot.h"
#include "workload/company.h"

namespace pathlog {
namespace {

TEST(StoreInternTest, SymbolsAreStable) {
  ObjectStore s;
  Oid a = s.InternSymbol("mary");
  Oid b = s.InternSymbol("mary");
  Oid c = s.InternSymbol("john");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(s.DisplayName(a), "mary");
  EXPECT_EQ(s.kind(a), ObjectKind::kSymbol);
  EXPECT_EQ(s.FindSymbol("mary"), a);
  EXPECT_EQ(s.FindSymbol("nobody"), std::nullopt);
}

TEST(StoreInternTest, IntsAndStringsAreDistinctNamespaces) {
  ObjectStore s;
  Oid i = s.InternInt(30);
  Oid t = s.InternString("30");
  Oid y = s.InternSymbol("thirty");
  EXPECT_NE(i, t);
  EXPECT_NE(i, y);
  EXPECT_EQ(s.IntValue(i), 30);
  EXPECT_EQ(s.kind(i), ObjectKind::kInt);
  EXPECT_EQ(s.kind(t), ObjectKind::kString);
  EXPECT_EQ(s.DisplayName(i), "30");
  EXPECT_EQ(s.DisplayName(t), "\"30\"");
  EXPECT_EQ(s.FindInt(30), i);
  EXPECT_EQ(s.FindInt(31), std::nullopt);
  EXPECT_EQ(s.FindString("30"), t);
}

TEST(StoreInternTest, NegativeInts) {
  ObjectStore s;
  Oid i = s.InternInt(-5);
  EXPECT_EQ(s.IntValue(i), -5);
  EXPECT_EQ(s.DisplayName(i), "-5");
}

TEST(StoreInternTest, AnonymousObjectsAreAlwaysFresh) {
  ObjectStore s;
  Oid a = s.NewAnonymous("_boss(p1)");
  Oid b = s.NewAnonymous("_boss(p1)");
  EXPECT_NE(a, b);
  EXPECT_EQ(s.kind(a), ObjectKind::kAnonymous);
  EXPECT_EQ(s.DisplayName(a), "_boss(p1)");
  // Anonymous objects are not in the name space.
  EXPECT_EQ(s.FindSymbol("_boss(p1)"), std::nullopt);
}

TEST(StoreHierarchyTest, TransitiveMembership) {
  ObjectStore s;
  Oid v1 = s.InternSymbol("v1");
  Oid automobile = s.InternSymbol("automobile");
  Oid vehicle = s.InternSymbol("vehicle");
  ASSERT_TRUE(s.AddIsa(automobile, vehicle).ok());
  ASSERT_TRUE(s.AddIsa(v1, automobile).ok());
  EXPECT_TRUE(s.IsA(v1, automobile));
  EXPECT_TRUE(s.IsA(v1, vehicle));
  EXPECT_TRUE(s.IsA(automobile, vehicle));
  EXPECT_FALSE(s.IsA(vehicle, automobile));
  // Irreflexive by default (documented deviation).
  EXPECT_FALSE(s.IsA(vehicle, vehicle));
}

TEST(StoreHierarchyTest, ClosureUpdatesWhenEdgeAddedLate) {
  // v1 : automobile first, automobile :: vehicle later — the member
  // must still reach the new ancestor.
  ObjectStore s;
  Oid v1 = s.InternSymbol("v1");
  Oid automobile = s.InternSymbol("automobile");
  Oid vehicle = s.InternSymbol("vehicle");
  ASSERT_TRUE(s.AddIsa(v1, automobile).ok());
  ASSERT_TRUE(s.AddIsa(automobile, vehicle).ok());
  EXPECT_TRUE(s.IsA(v1, vehicle));
  const std::span<const Oid> members = s.Members(vehicle);
  EXPECT_NE(std::find(members.begin(), members.end(), v1), members.end());
}

TEST(StoreHierarchyTest, MembersAndAncestors) {
  ObjectStore s;
  Oid e1 = s.InternSymbol("e1");
  Oid e2 = s.InternSymbol("e2");
  Oid manager = s.InternSymbol("manager");
  Oid employee = s.InternSymbol("employee");
  ASSERT_TRUE(s.AddIsa(manager, employee).ok());
  ASSERT_TRUE(s.AddIsa(e1, manager).ok());
  ASSERT_TRUE(s.AddIsa(e2, employee).ok());
  EXPECT_EQ(s.Members(employee).size(), 3u);  // manager, e1, e2
  EXPECT_EQ(s.Members(manager).size(), 1u);
  EXPECT_EQ(s.Ancestors(e1).size(), 2u);
  EXPECT_EQ(s.Members(e1).size(), 0u);
}

TEST(StoreHierarchyTest, CycleRejected) {
  ObjectStore s;
  Oid a = s.InternSymbol("a");
  Oid b = s.InternSymbol("b");
  Oid c = s.InternSymbol("c");
  ASSERT_TRUE(s.AddIsa(a, b).ok());
  ASSERT_TRUE(s.AddIsa(b, c).ok());
  EXPECT_EQ(s.AddIsa(c, a).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.AddIsa(a, a).code(), StatusCode::kInvalidArgument);
}

TEST(StoreHierarchyTest, DuplicateEdgeIsIdempotent) {
  ObjectStore s;
  Oid a = s.InternSymbol("a");
  Oid b = s.InternSymbol("b");
  ASSERT_TRUE(s.AddIsa(a, b).ok());
  uint64_t gen = s.generation();
  ASSERT_TRUE(s.AddIsa(a, b).ok());
  EXPECT_EQ(s.generation(), gen);  // no new fact
  EXPECT_EQ(s.Members(b).size(), 1u);
}

TEST(StoreScalarTest, SetGetAndConflict) {
  ObjectStore s;
  Oid age = s.InternSymbol("age");
  Oid mary = s.InternSymbol("mary");
  Oid v30 = s.InternInt(30);
  Oid v31 = s.InternInt(31);
  ASSERT_TRUE(s.SetScalar(age, mary, {}, v30).ok());
  EXPECT_EQ(s.GetScalar(age, mary, {}), v30);
  // Idempotent re-assertion.
  uint64_t gen = s.generation();
  ASSERT_TRUE(s.SetScalar(age, mary, {}, v30).ok());
  EXPECT_EQ(s.generation(), gen);
  // Scalar methods are partial functions: different value conflicts.
  EXPECT_EQ(s.SetScalar(age, mary, {}, v31).code(),
            StatusCode::kScalarConflict);
}

TEST(StoreScalarTest, ArgumentsDistinguishInvocations) {
  ObjectStore s;
  Oid salary = s.InternSymbol("salary");
  Oid john = s.InternSymbol("john");
  Oid y94 = s.InternInt(1994);
  Oid y95 = s.InternInt(1995);
  Oid v1 = s.InternInt(50000);
  Oid v2 = s.InternInt(55000);
  ASSERT_TRUE(s.SetScalar(salary, john, {y94}, v1).ok());
  ASSERT_TRUE(s.SetScalar(salary, john, {y95}, v2).ok());
  EXPECT_EQ(s.GetScalar(salary, john, {y94}), v1);
  EXPECT_EQ(s.GetScalar(salary, john, {y95}), v2);
  EXPECT_EQ(s.GetScalar(salary, john, {}), std::nullopt);
  EXPECT_EQ(s.ScalarEntries(salary).size(), 2u);
  EXPECT_EQ(s.ScalarEntriesByRecv(salary, john).size(), 2u);
}

TEST(StoreSetTest, MembershipAndDedup) {
  ObjectStore s;
  Oid kids = s.InternSymbol("kids");
  Oid peter = s.InternSymbol("peter");
  Oid tim = s.InternSymbol("tim");
  Oid mary = s.InternSymbol("mary");
  EXPECT_TRUE(s.AddSetMember(kids, peter, {}, tim));
  EXPECT_TRUE(s.AddSetMember(kids, peter, {}, mary));
  EXPECT_FALSE(s.AddSetMember(kids, peter, {}, tim));  // duplicate
  const std::optional<SetGroup> g = s.GetSetGroup(kids, peter, {});
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->members.size(), 2u);
  EXPECT_TRUE(g->Contains(tim));
  EXPECT_TRUE(g->Contains(mary));
  EXPECT_FALSE(g->Contains(peter));
  EXPECT_FALSE(s.GetSetGroup(kids, tim, {}).has_value());
}

TEST(StoreSetTest, GroupsByReceiver) {
  ObjectStore s;
  Oid kids = s.InternSymbol("kids");
  Oid a = s.InternSymbol("a");
  Oid b = s.InternSymbol("b");
  Oid x = s.InternSymbol("x");
  s.AddSetMember(kids, a, {}, x);
  s.AddSetMember(kids, b, {}, x);
  EXPECT_EQ(s.SetGroups(kids).size(), 2u);
  EXPECT_EQ(s.SetGroupsByRecv(kids, a).size(), 1u);
  EXPECT_EQ(s.SetGroupsByRecv(kids, x).size(), 0u);
}

TEST(StoreScalarTest, InvertedValueIndex) {
  ObjectStore s;
  Oid color = s.InternSymbol("color");
  Oid car1 = s.InternSymbol("car1");
  Oid car2 = s.InternSymbol("car2");
  Oid bike = s.InternSymbol("bike");
  Oid red = s.InternSymbol("red");
  Oid blue = s.InternSymbol("blue");
  ASSERT_TRUE(s.SetScalar(color, car1, {}, red).ok());
  ASSERT_TRUE(s.SetScalar(color, bike, {}, blue).ok());
  ASSERT_TRUE(s.SetScalar(color, car2, {}, red).ok());

  const std::span<const uint32_t> reds = s.ScalarEntriesByValue(color, red);
  ASSERT_EQ(reds.size(), 2u);
  // Buckets keep insertion (generation) order.
  EXPECT_EQ(s.ScalarEntries(color)[reds[0]].recv, car1);
  EXPECT_EQ(s.ScalarEntries(color)[reds[1]].recv, car2);
  EXPECT_EQ(s.ScalarEntriesByValue(color, blue).size(), 1u);
  EXPECT_EQ(s.ScalarEntriesByValue(color, car1).size(), 0u);
  EXPECT_EQ(s.ScalarEntriesByValue(red, red).size(), 0u);  // not a method
  EXPECT_EQ(s.ScalarDistinctValues(color), 2u);
  EXPECT_EQ(s.ScalarDistinctValues(red), 0u);
}

TEST(StoreSetTest, InvertedMemberIndex) {
  ObjectStore s;
  Oid kids = s.InternSymbol("kids");
  Oid a = s.InternSymbol("a");
  Oid b = s.InternSymbol("b");
  Oid x = s.InternSymbol("x");
  Oid y = s.InternSymbol("y");
  s.AddSetMember(kids, a, {}, x);
  s.AddSetMember(kids, a, {}, y);
  s.AddSetMember(kids, b, {}, x);
  s.AddSetMember(kids, b, {}, x);  // duplicate: no new index entry

  const std::span<const SetMemberRef> xs = s.SetGroupsByMember(kids, x);
  ASSERT_EQ(xs.size(), 2u);
  const SetGroupList groups = s.SetGroups(kids);
  EXPECT_EQ(groups[xs[0].group].recv, a);
  EXPECT_EQ(groups[xs[0].group].members[xs[0].pos], x);
  EXPECT_EQ(groups[xs[1].group].recv, b);
  EXPECT_EQ(groups[xs[1].group].members[xs[1].pos], x);
  // The addressed membership fact carries its own generation stamp.
  EXPECT_EQ(groups[xs[0].group].member_gens[xs[0].pos],
            groups[xs[0].group].MemberGen(x));
  EXPECT_EQ(s.SetGroupsByMember(kids, y).size(), 1u);
  EXPECT_EQ(s.SetGroupsByMember(kids, a).size(), 0u);
  EXPECT_EQ(s.SetDistinctMembers(kids), 2u);
}

TEST(StoreKindTest, ValidAsChecksKindAndRange) {
  ObjectStore s;
  Oid sym = s.InternSymbol("mary");
  Oid num = s.InternInt(7);
  EXPECT_TRUE(s.ValidAs(sym, ObjectKind::kSymbol));
  EXPECT_FALSE(s.ValidAs(sym, ObjectKind::kInt));
  EXPECT_TRUE(s.ValidAs(num, ObjectKind::kInt));
  EXPECT_FALSE(s.ValidAs(static_cast<Oid>(999), ObjectKind::kSymbol));
  EXPECT_EQ(s.IntValue(num), 7);
}

TEST(StoreMethodListsTest, OnlyMethodsWithFacts) {
  ObjectStore s;
  Oid age = s.InternSymbol("age");
  Oid kids = s.InternSymbol("kids");
  s.InternSymbol("unused");
  Oid mary = s.InternSymbol("mary");
  ASSERT_TRUE(s.SetScalar(age, mary, {}, s.InternInt(30)).ok());
  s.AddSetMember(kids, mary, {}, s.InternSymbol("tim"));
  EXPECT_EQ(s.ScalarMethods(), std::vector<Oid>{age});
  EXPECT_EQ(s.SetMethods(), std::vector<Oid>{kids});
}

TEST(StoreLogTest, GenerationsStampFactsInOrder) {
  ObjectStore s;
  Oid age = s.InternSymbol("age");
  Oid mary = s.InternSymbol("mary");
  Oid employee = s.InternSymbol("employee");
  EXPECT_EQ(s.generation(), 0u);
  ASSERT_TRUE(s.AddIsa(mary, employee).ok());
  ASSERT_TRUE(s.SetScalar(age, mary, {}, s.InternInt(30)).ok());
  EXPECT_EQ(s.generation(), 2u);
  EXPECT_EQ(s.FactAt(0).kind, FactKind::kIsa);
  EXPECT_EQ(s.FactAt(1).kind, FactKind::kScalar);
  EXPECT_EQ(s.FactAt(1).method, age);
  EXPECT_EQ(s.ScalarEntries(age)[0].gen, 1u);
}

TEST(StoreLogTest, FactToStringRendersSurfaceSyntax) {
  ObjectStore s;
  Oid salary = s.InternSymbol("salary");
  Oid kids = s.InternSymbol("kids");
  Oid john = s.InternSymbol("john");
  Oid employee = s.InternSymbol("employee");
  ASSERT_TRUE(s.AddIsa(john, employee).ok());
  ASSERT_TRUE(
      s.SetScalar(salary, john, {s.InternInt(1994)}, s.InternInt(50000)).ok());
  s.AddSetMember(kids, john, {}, s.InternSymbol("tim"));
  EXPECT_EQ(FactToString(s.FactAt(0), s), "john : employee");
  EXPECT_EQ(FactToString(s.FactAt(1), s), "john[salary@(1994)->50000]");
  EXPECT_EQ(FactToString(s.FactAt(2), s), "john[kids->>{tim}]");
}

TEST(StoreStatsTest, CountsByKind) {
  ObjectStore s;
  Oid a = s.InternSymbol("a");
  Oid b = s.InternSymbol("b");
  Oid m = s.InternSymbol("m");
  ASSERT_TRUE(s.AddIsa(a, b).ok());
  ASSERT_TRUE(s.SetScalar(m, a, {}, b).ok());
  s.AddSetMember(m, b, {}, a);
  s.AddSetMember(m, b, {}, b);
  ObjectStore::Stats st = s.ComputeStats();
  EXPECT_EQ(st.isa_facts, 1u);
  EXPECT_EQ(st.scalar_facts, 1u);
  EXPECT_EQ(st.set_facts, 2u);
  EXPECT_EQ(st.objects, 3u);
}

TEST(StoreCopyTest, CopyIsIndependentSnapshot) {
  ObjectStore s;
  Oid m = s.InternSymbol("m");
  Oid a = s.InternSymbol("a");
  ASSERT_TRUE(s.SetScalar(m, a, {}, a).ok());
  ObjectStore copy = s;
  Oid b = s.InternSymbol("b");
  ASSERT_TRUE(s.SetScalar(m, b, {}, b).ok());
  EXPECT_EQ(copy.FactCount(), 1u);
  EXPECT_EQ(s.FactCount(), 2u);
  EXPECT_EQ(copy.FindSymbol("b"), std::nullopt);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerOwnsMalloc = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizerOwnsMalloc = true;
#else
constexpr bool kSanitizerOwnsMalloc = false;
#endif
#else
constexpr bool kSanitizerOwnsMalloc = false;
#endif

TEST(StoreBytesTest, ApproxBytesMatchesTheHeapOfAMaterialisedStore) {
  // ApproxBytes is what ResourceLimits::max_store_bytes governs, so it
  // must track what the store really holds: the heap that a snapshot
  // load allocates, as glibc's malloc counts it.
#if defined(__GLIBC__)
  if (kSanitizerOwnsMalloc) {
    GTEST_SKIP() << "under ASan or TSan, the sanitizer's allocator owns the "
                    "heap and mallinfo2 does not see it";
  }
  std::string snapshot;
  {
    ObjectStore generated;
    CompanyConfig config;
    config.num_employees = 2000;
    config.num_companies = 40;
    GenerateCompany(&generated, config);
    Database db;
    ASSERT_TRUE(db.Load(StoreToProgramText(generated)).ok());
    ASSERT_TRUE(db.Load("X[reports->>{Y}] <- Y[boss->X].\n"
                        "X[reports->>{Y}] <- X[reports->>{Z}], "
                        "Z[reports->>{Y}].\n"
                        "X.deputy[assists->X; inDept->D] <- X:manager, "
                        "X[worksFor->D].\n"
                        "X[ownsAutomobile->>{V}] <- V : automobile, "
                        "X[vehicles->>{V}].\n")
                    .ok());
    ASSERT_TRUE(db.Materialize().ok());
    Result<std::string> bytes = SerializeSnapshot(db.store());
    ASSERT_TRUE(bytes.ok());
    snapshot = std::move(*bytes);
  }
  auto heap = [] {
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
  };
  const double before = heap();
  Result<ObjectStore> store = DeserializeSnapshot(snapshot);
  const double grown = heap() - before;
  ASSERT_TRUE(store.ok()) << store.status();
  const double approx = static_cast<double>(store->ApproxBytes());
  RecordProperty("heap_bytes_per_fact",
                 std::to_string(grown / store->FactCount()));
  RecordProperty("approx_bytes_per_fact",
                 std::to_string(approx / store->FactCount()));
  EXPECT_NEAR(approx / grown, 1.0, 0.2)
      << "ApproxBytes " << approx << " against a heap delta of " << grown
      << " over " << store->FactCount() << " facts";
  // The compact layout holds this store in about 153 bytes per fact
  // (the node-based one took about 420); the ceiling catches a layout
  // that grows back toward that, which the comparison above, with
  // ApproxBytes counting the same capacities, would not.
  EXPECT_LT(grown / store->FactCount(), 180.0);
#else
  GTEST_SKIP() << "mallinfo2 is glibc's";
#endif
}

}  // namespace
}  // namespace pathlog
