// Binary snapshot round-trips, including virtual (anonymous) objects.

#include "store/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "base/coding.h"
#include "base/crc32.h"
#include "query/database.h"
#include "store/fact.h"
#include "store/file_ops.h"
#include "workload/company.h"

namespace pathlog {
namespace {

std::string MustSerialize(const ObjectStore& store) {
  Result<std::string> bytes = SerializeSnapshot(store);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

void ExpectStoresEqual(const ObjectStore& a, const ObjectStore& b) {
  ASSERT_EQ(a.UniverseSize(), b.UniverseSize());
  for (Oid o = 0; o < a.UniverseSize(); ++o) {
    EXPECT_EQ(a.kind(o), b.kind(o)) << o;
    EXPECT_EQ(a.DisplayName(o), b.DisplayName(o)) << o;
  }
  ASSERT_EQ(a.generation(), b.generation());
  for (uint64_t g = 0; g < a.generation(); ++g) {
    EXPECT_EQ(a.FactAt(g), b.FactAt(g)) << g;
  }
}

TEST(SnapshotTest, EmptyStore) {
  ObjectStore store;
  Result<ObjectStore> copy = DeserializeSnapshot(MustSerialize(store));
  ASSERT_TRUE(copy.ok()) << copy.status();
  ExpectStoresEqual(store, *copy);
}

TEST(SnapshotTest, AllValueKindsRoundTrip) {
  ObjectStore store;
  Oid sym = store.InternSymbol("mary");
  Oid neg = store.InternInt(-42);
  Oid str = store.InternString("hello \"world\"\n");
  Oid anon = store.NewAnonymous("_boss(mary)");
  Oid m = store.InternSymbol("m");
  ASSERT_TRUE(store.SetScalar(m, sym, {neg, str}, anon).ok());

  Result<ObjectStore> copy = DeserializeSnapshot(MustSerialize(store));
  ASSERT_TRUE(copy.ok()) << copy.status();
  ExpectStoresEqual(store, *copy);
  EXPECT_EQ(copy->IntValue(neg), -42);
  EXPECT_EQ(copy->kind(anon), ObjectKind::kAnonymous);
  EXPECT_EQ(copy->GetScalar(m, sym, {neg, str}), anon);
}

TEST(SnapshotTest, GeneratedWorkloadRoundTrips) {
  ObjectStore store;
  CompanyConfig cfg;
  cfg.num_employees = 150;
  CompanyData data = GenerateCompany(&store, cfg);

  Result<ObjectStore> copy = DeserializeSnapshot(MustSerialize(store));
  ASSERT_TRUE(copy.ok()) << copy.status();
  ExpectStoresEqual(store, *copy);
  // Derived indexes are rebuilt identically.
  EXPECT_EQ(copy->Members(data.employee_class).size(),
            store.Members(data.employee_class).size());
  EXPECT_EQ(copy->ScalarMethods(), store.ScalarMethods());
  EXPECT_EQ(copy->SetMethods(), store.SetMethods());
}

TEST(SnapshotTest, MaterializedVirtualObjectsSurvive) {
  // The whole point: a store with skolems round-trips, which the text
  // dump cannot do.
  Database db;
  ASSERT_TRUE(db.Load(R"(
    p1 : employee[worksFor->cs1].
    p2 : employee[worksFor->cs2].
    X.boss[worksFor->D] <- X:employee[worksFor->D].
  )").ok());
  ASSERT_TRUE(db.Materialize().ok());

  Result<ObjectStore> copy =
      DeserializeSnapshot(MustSerialize(db.store()));
  ASSERT_TRUE(copy.ok()) << copy.status();
  ExpectStoresEqual(db.store(), *copy);

  Oid boss = *copy->FindSymbol("boss");
  Oid p1 = *copy->FindSymbol("p1");
  std::optional<Oid> vb = copy->GetScalar(boss, p1, {});
  ASSERT_TRUE(vb.has_value());
  EXPECT_EQ(copy->DisplayName(*vb), "_boss(p1)");
  EXPECT_EQ(copy->kind(*vb), ObjectKind::kAnonymous);
}

TEST(SnapshotTest, FileRoundTrip) {
  ObjectStore store;
  CompanyConfig cfg;
  cfg.num_employees = 30;
  GenerateCompany(&store, cfg);
  const std::string path = ::testing::TempDir() + "/pathlog_snapshot.bin";
  ASSERT_TRUE(WriteSnapshotFile(store, path).ok());
  Result<ObjectStore> copy = ReadSnapshotFile(path);
  ASSERT_TRUE(copy.ok()) << copy.status();
  ExpectStoresEqual(store, *copy);
  std::remove(path.c_str());
}

TEST(SnapshotTest, CorruptionDetected) {
  ObjectStore store;
  store.InternSymbol("a");
  std::string bytes = MustSerialize(store);

  // Bad magic.
  std::string bad = bytes;
  bad[0] = 'X';
  EXPECT_EQ(DeserializeSnapshot(bad).status().code(),
            StatusCode::kInvalidArgument);

  // Truncation at every prefix must error, never crash.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Result<ObjectStore> r = DeserializeSnapshot(bytes.substr(0, cut));
    EXPECT_FALSE(r.ok()) << cut;
  }

  // Trailing garbage.
  EXPECT_EQ(DeserializeSnapshot(bytes + "junk").status().code(),
            StatusCode::kInvalidArgument);

  // Missing file.
  EXPECT_EQ(ReadSnapshotFile("/nonexistent/path.bin").status().code(),
            StatusCode::kNotFound);
}

TEST(SnapshotTest, DatabaseSnapshotRestoresRulesAndSignatures) {
  const std::string path = ::testing::TempDir() + "/pathlog_db.snap";
  {
    Database db;
    ASSERT_TRUE(db.Load(R"(
      person[age => integer].
      ann : person[street->elm; city->ny; age->33].
      X.address[street->X.street; city->X.city] <- X:person.
    )").ok());
    ASSERT_TRUE(db.Materialize().ok());
    ASSERT_TRUE(db.SaveSnapshotFile(path).ok());
  }
  Result<Database> restored = Database::LoadSnapshotFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  // Facts (including the virtual address) survived.
  Result<bool> holds = restored->Holds("ann.address[city->ny]");
  ASSERT_TRUE(holds.ok());
  EXPECT_TRUE(*holds);
  // Rules survived: new facts trigger new derivations.
  ASSERT_TRUE(restored->Load(
      "bob : person[street->oak; city->berlin].").ok());
  Result<bool> bob = restored->Holds("bob.address[city->berlin]");
  ASSERT_TRUE(bob.ok());
  EXPECT_TRUE(*bob);
  // Signatures survived: violations are still detected.
  ASSERT_TRUE(restored->Load("cleo : person[age->ancient].").ok());
  std::vector<TypeViolation> v;
  ASSERT_TRUE(restored->TypeCheck(&v).ok());
  EXPECT_EQ(v.size(), 1u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, DatabaseSnapshotEmbedsTheStoreImageByteForByte) {
  // The database image is built in one buffer with the store image
  // serialised in place; the embedded blob must equal
  // SerializeSnapshot's bytes, and both checksums must verify.
  const std::string path = ::testing::TempDir() + "/pathlog_db_embed.snap";
  Database db;
  ASSERT_TRUE(db.Load(R"(
    person[age => integer].
    ann : person[age->33; kids->>{bob, "cy"}; rank@(1)->-7].
    X[desc->>{Y}] <- X[kids->>{Y}].
    X.guardian[of->X] <- X:person.
  )").ok());
  ASSERT_TRUE(db.Materialize().ok());
  ASSERT_TRUE(db.SaveSnapshotFile(path).ok());
  Result<std::string> file = DefaultFileOps()->ReadFile(path);
  ASSERT_TRUE(file.ok()) << file.status();
  const std::string& bytes = *file;
  ASSERT_EQ(bytes.substr(0, 8), "PLGDB003");
  ByteReader header(std::string_view(bytes).substr(8));
  const uint32_t body_crc = header.U32();
  const uint64_t store_len = header.U64();
  ASSERT_TRUE(header.Ok());
  EXPECT_EQ(Crc32(std::string_view(bytes).substr(12)), body_crc);

  const std::string store_blob = bytes.substr(20, store_len);
  EXPECT_EQ(store_blob, MustSerialize(db.store()));
  EXPECT_EQ(SnapshotSize(db.store()), store_blob.size());
  ByteReader store_header(std::string_view(store_blob).substr(8));
  const uint32_t store_crc = store_header.U32();
  const uint64_t store_body_len = store_header.U64();
  ASSERT_TRUE(store_header.Ok());
  EXPECT_EQ(store_body_len, store_blob.size() - 20);
  EXPECT_EQ(Crc32(std::string_view(store_blob).substr(20)), store_crc);

  Result<Database> restored = Database::LoadSnapshotFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(MustSerialize(restored->store()), store_blob);
  EXPECT_EQ(restored->num_rules(), db.num_rules());
  Result<bool> desc = restored->Holds("ann[desc->>{bob}]");
  ASSERT_TRUE(desc.ok()) << desc.status();
  EXPECT_TRUE(*desc);
  std::remove(path.c_str());
}

TEST(SnapshotTest, DatabaseSnapshotCorruptionDetected) {
  const std::string path = ::testing::TempDir() + "/pathlog_db_bad.snap";
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage";
  }
  EXPECT_FALSE(Database::LoadSnapshotFile(path).ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, RoundTripPreservesGenerationStamps) {
  // Replay order equals log order, so every per-fact generation stamp
  // — scalar entries, set memberships, hierarchy closure — must come
  // back bit-identical; the semi-naive delta evaluator depends on it.
  ObjectStore store;
  CompanyConfig cfg;
  cfg.num_employees = 60;
  GenerateCompany(&store, cfg);

  Result<ObjectStore> copy = DeserializeSnapshot(MustSerialize(store));
  ASSERT_TRUE(copy.ok()) << copy.status();
  for (Oid m : store.ScalarMethods()) {
    const ScalarEntryList a = store.ScalarEntries(m);
    const ScalarEntryList b = copy->ScalarEntries(m);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].gen, b[i].gen);
      EXPECT_EQ(a[i].recv, b[i].recv);
      EXPECT_EQ(a[i].value, b[i].value);
    }
  }
  for (Oid m : store.SetMethods()) {
    const SetGroupList a = store.SetGroups(m);
    const SetGroupList b = copy->SetGroups(m);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].recv, b[i].recv);
      EXPECT_TRUE(std::ranges::equal(a[i].members, b[i].members));
      EXPECT_TRUE(std::ranges::equal(a[i].member_gens, b[i].member_gens));
    }
  }
  for (Oid o = 0; o < store.UniverseSize(); ++o) {
    EXPECT_TRUE(std::ranges::equal(store.Ancestors(o), copy->Ancestors(o)));
    EXPECT_TRUE(
        std::ranges::equal(store.AncestorGens(o), copy->AncestorGens(o)));
  }
}

TEST(SnapshotTest, RoundTripRebuildsInvertedIndexes) {
  // Inverted indexes are not serialized; replay must rebuild them so
  // every fact is reachable by value/member probe.
  ObjectStore store;
  CompanyConfig cfg;
  cfg.num_employees = 60;
  GenerateCompany(&store, cfg);
  Result<ObjectStore> copy = DeserializeSnapshot(MustSerialize(store));
  ASSERT_TRUE(copy.ok()) << copy.status();

  for (Oid m : copy->ScalarMethods()) {
    EXPECT_EQ(copy->ScalarDistinctValues(m), store.ScalarDistinctValues(m));
    const ScalarEntryList entries = copy->ScalarEntries(m);
    for (uint32_t i = 0; i < entries.size(); ++i) {
      const std::span<const uint32_t> bucket =
          copy->ScalarEntriesByValue(m, entries[i].value);
      EXPECT_NE(std::find(bucket.begin(), bucket.end(), i), bucket.end());
    }
  }
  for (Oid m : copy->SetMethods()) {
    EXPECT_EQ(copy->SetDistinctMembers(m), store.SetDistinctMembers(m));
    const SetGroupList groups = copy->SetGroups(m);
    for (uint32_t gi = 0; gi < groups.size(); ++gi) {
      for (uint32_t pos = 0; pos < groups[gi].members.size(); ++pos) {
        bool found = false;
        for (const SetMemberRef& r :
             copy->SetGroupsByMember(m, groups[gi].members[pos])) {
          found = found || (r.group == gi && r.pos == pos);
        }
        EXPECT_TRUE(found) << "method " << m << " group " << gi;
      }
    }
  }
}

TEST(SnapshotTest, RoundTripRebuildsMethodStatistics) {
  // The planner's per-method statistics (counters + exact top-k heavy
  // hitters, store/method_stats.h) are not serialized: replay re-runs
  // the mutators, which must rebuild them equal to the incrementally
  // maintained originals — including the generation stamps, since the
  // fact log replays in order.
  ObjectStore store;
  CompanyConfig cfg;
  cfg.num_employees = 60;
  GenerateCompany(&store, cfg);
  // Add deliberate skew on top of the generated workload so the heavy
  // list is non-trivial in both index families.
  Oid city = store.InternSymbol("city");
  Oid likes = store.InternSymbol("likes");
  Oid metro = store.InternSymbol("metro");
  for (int i = 0; i < 25; ++i) {
    const std::string i_str = std::to_string(i);
    Oid r = store.InternSymbol("skew" + i_str);
    ASSERT_TRUE(store.SetScalar(city, r, {}, metro).ok());
    ASSERT_TRUE(store.AddSetMember(likes, r, {}, metro));
    // Repeats after the first three: duplicate memberships add no
    // facts and must leave the stats untouched on both sides.
    const std::string v_str = std::to_string(i % 3);
    Oid v = store.InternSymbol("v" + v_str);
    store.AddSetMember(likes, metro, {}, v);
  }

  Result<ObjectStore> copy = DeserializeSnapshot(MustSerialize(store));
  ASSERT_TRUE(copy.ok()) << copy.status();
  for (Oid m : store.ScalarMethods()) {
    EXPECT_TRUE(copy->ScalarValueStats(m) == store.ScalarValueStats(m))
        << "scalar stats diverge for method " << store.DisplayName(m);
  }
  for (Oid m : store.SetMethods()) {
    EXPECT_TRUE(copy->SetMemberStats(m) == store.SetMemberStats(m))
        << "set stats diverge for method " << store.DisplayName(m);
  }
  // Spot-check the skewed method is actually exercising the sketch.
  const MethodStats& sc = copy->ScalarValueStats(city);
  ASSERT_FALSE(sc.heavy.empty());
  EXPECT_EQ(sc.heavy[0].value, metro);
  EXPECT_EQ(sc.heavy[0].count, 25u);
}

std::set<std::string> AllFacts(const ObjectStore& s) {
  std::set<std::string> out;
  for (uint64_t g = 0; g < s.generation(); ++g) {
    const Fact& f = s.FactAt(g);
    std::string line = std::to_string(static_cast<int>(f.kind)) + "|" +
                       s.DisplayName(f.method) + "|" + s.DisplayName(f.recv);
    for (Oid a : f.args) line += "|" + s.DisplayName(a);
    line += "->";
    line += f.value == kNilOid ? std::string("nil") : s.DisplayName(f.value);
    out.insert(std::move(line));
  }
  return out;
}

TEST(SnapshotTest, SemiNaiveDeltaResumesCorrectlyAfterRestore) {
  // The delta evaluator keys off generation stamps; a restore must not
  // desync them. Extend a recursive program after restoring and check
  // the materialised facts against a from-scratch oracle.
  DatabaseOptions opts;
  opts.engine.strategy = EvalStrategy::kSemiNaiveDelta;
  const char* kRules = R"(
    X[desc->>{Y}] <- X[kids->>{Y}].
    X[desc->>{Z}] <- X[kids->>{Y}], Y[desc->>{Z}].
  )";
  const std::string path = ::testing::TempDir() + "/pathlog_delta.snap";
  {
    Database db(opts);
    ASSERT_TRUE(db.Load(kRules).ok());
    ASSERT_TRUE(db.Load("a[kids->>{b}]. b[kids->>{c}].").ok());
    ASSERT_TRUE(db.Materialize().ok());
    ASSERT_TRUE(db.SaveSnapshotFile(path).ok());
  }
  Result<Database> restored = Database::LoadSnapshotFile(path, opts);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_TRUE(restored->Load("c[kids->>{d}].").ok());
  ASSERT_TRUE(restored->Materialize().ok());

  DatabaseOptions naive;
  naive.engine.strategy = EvalStrategy::kNaive;
  Database fresh(naive);
  ASSERT_TRUE(fresh.Load(kRules).ok());
  ASSERT_TRUE(
      fresh.Load("a[kids->>{b}]. b[kids->>{c}]. c[kids->>{d}].").ok());
  ASSERT_TRUE(fresh.Materialize().ok());
  EXPECT_EQ(AllFacts(restored->store()), AllFacts(fresh.store()));

  Result<bool> deep = restored->Holds("a[desc->>{d}]");
  ASSERT_TRUE(deep.ok());
  EXPECT_TRUE(*deep);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RestoredDatabaseRematerializesWithoutDuplicates) {
  // Re-running the rules over a restored store must derive nothing new:
  // skolem references resolve to the restored anonymous objects (their
  // display names survived) and re-derived facts deduplicate.
  const std::string path = ::testing::TempDir() + "/pathlog_idem.snap";
  uint64_t saved_gen = 0;
  {
    Database db;
    ASSERT_TRUE(db.Load(R"(
      p1 : employee[worksFor->cs1].
      X.boss[worksFor->D] <- X:employee[worksFor->D].
    )").ok());
    ASSERT_TRUE(db.Materialize().ok());
    saved_gen = db.store().generation();
    ASSERT_TRUE(db.SaveSnapshotFile(path).ok());
  }
  Result<Database> restored = Database::LoadSnapshotFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_TRUE(restored->Materialize().ok());
  EXPECT_EQ(restored->store().generation(), saved_gen);
  Oid boss = *restored->store().FindSymbol("boss");
  Oid p1 = *restored->store().FindSymbol("p1");
  std::optional<Oid> vb = restored->store().GetScalar(boss, p1, {});
  ASSERT_TRUE(vb.has_value());
  EXPECT_EQ(restored->store().DisplayName(*vb), "_boss(p1)");
}

TEST(SnapshotTest, FactWithOutOfRangeOidRejected) {
  // A corrupt fact section must not plant invalid oids in the tables.
  ObjectStore store;
  Oid a = store.InternSymbol("a");
  Oid b = store.InternSymbol("b");
  Oid m = store.InternSymbol("m");
  store.AddSetMember(m, a, {}, b);
  std::string bytes = MustSerialize(store);
  // The last four bytes are the value oid of the final (set-member)
  // fact; point it far outside the object table.
  for (size_t i = bytes.size() - 4; i < bytes.size(); ++i) {
    bytes[i] = '\xEE';
  }
  // Re-stamp the v2 checksum so the oid validation itself is reached
  // (an unpatched CRC would reject the file one layer earlier).
  const uint32_t crc = Crc32(std::string_view(bytes).substr(20));
  std::string patched;
  PutU32(&patched, crc);
  bytes.replace(8, 4, patched);
  Result<ObjectStore> r = DeserializeSnapshot(bytes);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find("oid"), std::string::npos);
}

TEST(SnapshotTest, ChecksumMismatchDetected) {
  ObjectStore store;
  CompanyConfig cfg;
  cfg.num_employees = 10;
  GenerateCompany(&store, cfg);
  std::string bytes = MustSerialize(store);
  bytes[bytes.size() / 2] ^= 0x01;
  Result<ObjectStore> r = DeserializeSnapshot(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find("checksum"), std::string::npos);
}

TEST(SnapshotTest, LegacyV1SnapshotStillLoads) {
  ObjectStore store;
  CompanyConfig cfg;
  cfg.num_employees = 25;
  GenerateCompany(&store, cfg);
  // v1 was the bare body behind a "PLGSNAP1" magic — no checksum, no
  // length. The v2 body is bit-identical, so a v1 image is
  // reconstructible from it.
  std::string v2 = MustSerialize(store);
  std::string v1 = "PLGSNAP1" + v2.substr(8 + 12);
  Result<ObjectStore> copy = DeserializeSnapshot(v1);
  ASSERT_TRUE(copy.ok()) << copy.status();
  ExpectStoresEqual(store, *copy);
}

TEST(SnapshotTest, ArgcOverflowIsTypedErrorNotTruncation) {
  // 65536 arguments cannot be represented in the u16 argc field; the
  // old serializer silently wrote argc mod 65536 and produced a file
  // that replayed to a *different* database.
  ObjectStore store;
  Oid a = store.InternSymbol("a");
  Oid m = store.InternSymbol("m");
  std::vector<Oid> args(65536, a);
  store.AddSetMember(m, a, args, a);
  Result<std::string> bytes = SerializeSnapshot(store);
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bytes.status().ToString().find("65535"), std::string::npos);
}

TEST(SnapshotTest, AtomicWriteNeverExposesAPartialFile) {
  ObjectStore store;
  CompanyConfig cfg;
  cfg.num_employees = 20;
  GenerateCompany(&store, cfg);

  ObjectStore old_store;
  old_store.InternSymbol("previous");
  const std::string old_bytes = MustSerialize(old_store);
  const std::string new_bytes = MustSerialize(store);
  const std::string path = "/db/snapshot.plgdb";

  // Crash at every write-side syscall of the snapshot write: the
  // visible file must be the complete old image or the complete new
  // one, never a prefix and never the temp file.
  FaultInjectingFileOps probe;
  ASSERT_TRUE(probe.CreateDir("/db").ok());
  ASSERT_TRUE(WriteFileAtomic(&probe, path, old_bytes).ok());
  const uint64_t before = probe.WriteOpCount();
  ASSERT_TRUE(WriteFileAtomic(&probe, path, new_bytes).ok());
  const uint64_t ops_per_write = probe.WriteOpCount() - before;
  ASSERT_GT(ops_per_write, 0u);

  for (uint64_t nth = 1; nth <= ops_per_write; ++nth) {
    FaultInjectingFileOps fs;
    ASSERT_TRUE(fs.CreateDir("/db").ok());
    ASSERT_TRUE(WriteFileAtomic(&fs, path, old_bytes).ok());
    fs.ArmFault(FaultInjectingFileOps::FaultKind::kCrash, nth);
    Status st = WriteSnapshotFile(store, path, &fs);
    if (fs.crashed()) {
      EXPECT_FALSE(st.ok()) << nth;
      fs.RecoverAfterCrash();
    }
    Result<std::string> after = fs.ReadFile(path);
    ASSERT_TRUE(after.ok()) << nth;
    EXPECT_TRUE(*after == old_bytes || *after == new_bytes) << nth;
    Result<ObjectStore> replayed = DeserializeSnapshot(*after);
    EXPECT_TRUE(replayed.ok()) << nth << ": " << replayed.status();
  }

  // Fail-fast (non-crash) faults must clean up the temp file.
  FaultInjectingFileOps fs;
  ASSERT_TRUE(fs.CreateDir("/db").ok());
  ASSERT_TRUE(WriteFileAtomic(&fs, path, old_bytes).ok());
  fs.ArmFault(FaultInjectingFileOps::FaultKind::kFail, 2);
  EXPECT_FALSE(WriteSnapshotFile(store, path, &fs).ok());
  EXPECT_FALSE(fs.Exists(path + ".tmp"));
  Result<std::string> after = fs.ReadFile(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, old_bytes);
}

TEST(SnapshotTest, SnapshotOfSnapshotIsIdentical) {
  ObjectStore store;
  CompanyConfig cfg;
  cfg.num_employees = 40;
  GenerateCompany(&store, cfg);
  std::string once = MustSerialize(store);
  Result<ObjectStore> copy = DeserializeSnapshot(once);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(MustSerialize(*copy), once);
}

}  // namespace
}  // namespace pathlog
