// Model test for the object store: a seeded random sequence of isa
// edges (cycles rejected), scalar facts (conflicts) and set memberships
// (duplicates), with and without arguments, is applied both to
// ObjectStore and to a linear-scan model kept here. After every step
// every accessor of the store must agree with the model: lookups,
// closure pairs and their generations, the four posting buckets in
// insertion order, both MethodStats, and the fact log. At the end a
// copy, a snapshot round trip and a WAL replay must agree too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "store/fact.h"
#include "store/method_stats.h"
#include "store/object_store.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace pathlog {
namespace {

template <typename Range>
std::vector<Oid> Vec(const Range& r) {
  return std::vector<Oid>(r.begin(), r.end());
}

template <typename Range>
std::vector<uint64_t> Gens(const Range& r) {
  return std::vector<uint64_t>(r.begin(), r.end());
}

template <typename Range>
std::vector<uint32_t> Idx(const Range& r) {
  return std::vector<uint32_t>(r.begin(), r.end());
}

/// The store's semantics, kept as flat lists and answered by scans.
struct Model {
  struct Pair {
    Oid sub, super;
    uint64_t gen;
  };
  struct Entry {
    Oid recv;
    std::vector<Oid> args;
    Oid value;
    uint64_t gen;
  };
  struct Group {
    Oid recv;
    std::vector<Oid> args;
    std::vector<Oid> members;
    std::vector<uint64_t> gens;
  };
  struct Membership {
    uint32_t group, pos;
    Oid member;
  };
  struct SetMethod {
    std::vector<Group> groups;
    std::vector<Membership> memberships;  // insertion order
    MethodStats stats;
  };
  struct ScalarMethod {
    std::vector<Entry> entries;
    MethodStats stats;
  };

  std::vector<Pair> pairs;  // closure pairs, insertion order
  std::map<Oid, ScalarMethod> scalar;
  std::map<Oid, SetMethod> sets;
  std::vector<Fact> log;

  const Pair* FindPair(Oid sub, Oid super) const {
    for (const Pair& p : pairs) {
      if (p.sub == sub && p.super == super) return &p;
    }
    return nullptr;
  }
  std::vector<Oid> Members(Oid c) const {
    std::vector<Oid> out;
    for (const Pair& p : pairs) {
      if (p.super == c) out.push_back(p.sub);
    }
    return out;
  }
  std::vector<Oid> Ancestors(Oid o) const {
    std::vector<Oid> out;
    for (const Pair& p : pairs) {
      if (p.sub == o) out.push_back(p.super);
    }
    return out;
  }

  /// Returns whether the store should accept the edge.
  bool AddIsa(Oid sub, Oid super) {
    if (sub == super || FindPair(super, sub) != nullptr) return false;
    if (FindPair(sub, super) != nullptr) return true;
    std::vector<Oid> below = {sub};
    for (Oid x : Members(sub)) below.push_back(x);
    std::vector<Oid> above = {super};
    for (Oid y : Ancestors(super)) above.push_back(y);
    const uint64_t gen = log.size();
    for (Oid x : below) {
      for (Oid y : above) {
        if (FindPair(x, y) == nullptr) pairs.push_back({x, y, gen});
      }
    }
    log.push_back(Fact{FactKind::kIsa, super, sub, {}, kNilOid});
    return true;
  }

  /// 0: new fact, 1: already present, 2: conflict.
  int SetScalar(Oid m, Oid recv, const std::vector<Oid>& args, Oid value) {
    ScalarMethod& t = scalar[m];
    for (const Entry& e : t.entries) {
      if (e.recv == recv && e.args == args) return e.value == value ? 1 : 2;
    }
    t.entries.push_back({recv, args, value, log.size()});
    uint64_t bucket = 0;
    for (const Entry& e : t.entries) bucket += e.value == value ? 1 : 0;
    t.stats.Update(value, bucket, bucket == 1, log.size());
    log.push_back(Fact{FactKind::kScalar, m, recv, args, value});
    return 0;
  }

  bool AddSetMember(Oid m, Oid recv, const std::vector<Oid>& args, Oid value) {
    SetMethod& t = sets[m];
    uint32_t gi = 0;
    while (gi < t.groups.size() &&
           !(t.groups[gi].recv == recv && t.groups[gi].args == args)) {
      ++gi;
    }
    if (gi == t.groups.size()) t.groups.push_back({recv, args, {}, {}});
    Group& g = t.groups[gi];
    if (std::find(g.members.begin(), g.members.end(), value) !=
        g.members.end()) {
      return false;
    }
    t.memberships.push_back(
        {gi, static_cast<uint32_t>(g.members.size()), value});
    uint64_t bucket = 0;
    for (const Membership& ms : t.memberships) {
      bucket += ms.member == value ? 1 : 0;
    }
    t.stats.Update(value, bucket, bucket == 1, log.size());
    g.members.push_back(value);
    g.gens.push_back(log.size());
    log.push_back(Fact{FactKind::kSetMember, m, recv, args, value});
    return true;
  }
};

/// "what(i) of method m", the name of one compared accessor result.
std::string Of(const char* what, uint64_t i, Oid m) {
  return std::string(what) + "(" + std::to_string(i) + ") of method " +
         std::to_string(m);
}

/// Compares every accessor of `s` against `model` over the first
/// `universe` objects. Returns false after the first mismatch so a
/// failing step reports once.
bool Agrees(const ObjectStore& s, const Model& model, Oid universe) {
  bool ok = true;
  // Checks nothing after the first mismatch, and builds a message only
  // for it.
#define AGREE(cond, what)                                        \
  do {                                                           \
    if (ok && !(cond)) {                                         \
      ADD_FAILURE() << "store and model disagree on " << (what); \
      ok = false;                                                \
    }                                                            \
  } while (0)
  AGREE(s.generation() == model.log.size(), "generation");
  for (uint64_t g = 0; ok && g < model.log.size(); ++g) {
    const Fact& f = s.FactAt(g);
    const Fact& want = model.log[g];
    AGREE(f.kind == want.kind && f.method == want.method &&
              f.recv == want.recv && Vec(f.args) == want.args &&
              f.value == want.value,
          "FactAt(" + std::to_string(g) + ")");
  }
  // The closure pairs, per object, in insertion order.
  std::vector<std::vector<Oid>> members(universe), ancestors(universe);
  std::vector<std::vector<uint64_t>> member_gens(universe),
      ancestor_gens(universe);
  std::map<std::pair<Oid, Oid>, uint64_t> pair_gen;
  for (const Model::Pair& p : model.pairs) {
    members[p.super].push_back(p.sub);
    member_gens[p.super].push_back(p.gen);
    ancestors[p.sub].push_back(p.super);
    ancestor_gens[p.sub].push_back(p.gen);
    pair_gen[{p.sub, p.super}] = p.gen;
  }
  for (Oid a = 0; ok && a < universe; ++a) {
    AGREE(Vec(s.Members(a)) == members[a] &&
              Gens(s.MemberGens(a)) == member_gens[a],
          "Members/MemberGens(" + std::to_string(a) + ")");
    AGREE(Vec(s.Ancestors(a)) == ancestors[a] &&
              Gens(s.AncestorGens(a)) == ancestor_gens[a],
          "Ancestors/AncestorGens(" + std::to_string(a) + ")");
    for (Oid b = 0; ok && b < universe; ++b) {
      auto it = pair_gen.find({a, b});
      const uint64_t gen = it != pair_gen.end() ? it->second : UINT64_MAX;
      AGREE(s.IsA(a, b) == (gen != UINT64_MAX) && s.IsaGen(a, b) == gen,
            "IsA/IsaGen(" + std::to_string(a) + ", " + std::to_string(b) +
                ")");
    }
  }

  std::vector<Oid> scalar_methods, set_methods;
  for (const auto& [m, t] : model.scalar) {
    if (!t.entries.empty()) scalar_methods.push_back(m);
  }
  for (const auto& [m, t] : model.sets) {
    if (!t.groups.empty()) set_methods.push_back(m);
  }
  AGREE(s.ScalarMethods() == scalar_methods, "ScalarMethods");
  AGREE(s.SetMethods() == set_methods, "SetMethods");

  for (const auto& [m, t] : model.scalar) {
    const auto entries = s.ScalarEntries(m);
    AGREE(entries.size() == t.entries.size(), Of("ScalarEntries", 0, m));
    for (size_t i = 0; ok && i < t.entries.size(); ++i) {
      const Model::Entry& want = t.entries[i];
      const auto& e = entries[i];
      AGREE(e.recv == want.recv && Vec(e.args) == want.args &&
                e.value == want.value && e.gen == want.gen,
            Of("ScalarEntries[i]", i, m));
      AGREE(s.GetScalar(m, want.recv, want.args) == want.value,
            Of("GetScalar of entry", i, m));
    }
    std::map<Oid, bool> values;
    for (const Model::Entry& e : t.entries) values[e.value] = true;
    AGREE(s.ScalarDistinctValues(m) == values.size() &&
              s.ScalarValueStats(m) == t.stats,
          Of("ScalarDistinctValues/ScalarValueStats", 0, m));
    for (Oid o = 0; ok && o < universe; ++o) {
      std::vector<uint32_t> by_recv, by_value;
      bool defined = false;
      for (uint32_t i = 0; i < t.entries.size(); ++i) {
        const Model::Entry& e = t.entries[i];
        if (e.recv == o) by_recv.push_back(i);
        if (e.value == o) by_value.push_back(i);
        defined = defined || (e.recv == o && e.args.empty());
      }
      AGREE(Idx(s.ScalarEntriesByRecv(m, o)) == by_recv,
            Of("ScalarEntriesByRecv", o, m));
      AGREE(Idx(s.ScalarEntriesByValue(m, o)) == by_value,
            Of("ScalarEntriesByValue", o, m));
      AGREE(defined || !s.GetScalar(m, o, {}).has_value(),
            Of("GetScalar", o, m));
    }
  }

  for (const auto& [m, t] : model.sets) {
    const auto groups = s.SetGroups(m);
    AGREE(groups.size() == t.groups.size(), Of("SetGroups", 0, m));
    for (size_t i = 0; ok && i < t.groups.size(); ++i) {
      const Model::Group& want = t.groups[i];
      const auto& g = groups[i];
      AGREE(g.recv == want.recv && Vec(g.args) == want.args &&
                Vec(g.members) == want.members &&
                Gens(g.member_gens) == want.gens,
            Of("SetGroups[i]", i, m));
      const auto found = s.GetSetGroup(m, want.recv, want.args);
      AGREE(found && Vec(found->members) == want.members,
            Of("GetSetGroup of group", i, m));
      std::vector<uint64_t> gen_of(universe, UINT64_MAX);
      for (size_t k = 0; k < want.members.size(); ++k) {
        gen_of[want.members[k]] = want.gens[k];
      }
      for (Oid o = 0; ok && o < universe; ++o) {
        AGREE(g.Contains(o) == (gen_of[o] != UINT64_MAX) &&
                  g.MemberGen(o) == gen_of[o],
              Of("Contains/MemberGen of group", i, m) + " for object " +
                  std::to_string(o));
      }
    }
    std::map<Oid, bool> distinct;
    for (const Model::Membership& ms : t.memberships) {
      distinct[ms.member] = true;
    }
    AGREE(s.SetDistinctMembers(m) == distinct.size() &&
              s.SetMemberStats(m) == t.stats,
          Of("SetDistinctMembers/SetMemberStats", 0, m));
    for (Oid o = 0; ok && o < universe; ++o) {
      std::vector<uint32_t> by_recv;
      bool grouped = false;
      for (uint32_t i = 0; i < t.groups.size(); ++i) {
        if (t.groups[i].recv == o) by_recv.push_back(i);
        grouped =
            grouped || (t.groups[i].recv == o && t.groups[i].args.empty());
      }
      AGREE(Idx(s.SetGroupsByRecv(m, o)) == by_recv,
            Of("SetGroupsByRecv", o, m));
      std::vector<std::pair<uint32_t, uint32_t>> want, got;
      for (const Model::Membership& ms : t.memberships) {
        if (ms.member == o) want.emplace_back(ms.group, ms.pos);
      }
      for (const SetMemberRef& r : s.SetGroupsByMember(m, o)) {
        got.emplace_back(r.group, r.pos);
      }
      AGREE(got == want, Of("SetGroupsByMember", o, m));
      AGREE(grouped || !s.GetSetGroup(m, o, {}), Of("GetSetGroup", o, m));
    }
  }
#undef AGREE
  return ok;
}

/// Drives one seeded sequence of `steps` mutations through both sides,
/// comparing after every step; returns the final store.
ObjectStore RunSequence(uint64_t seed, int steps, Model* model, Oid* universe) {
  ObjectStore s;
  constexpr int kObjects = 40;
  for (int i = 0; i < kObjects; ++i) {
    // Not `"o" + std::to_string(i)`: GCC 12 at -O3 flags that with a
    // false -Wrestrict, which -Werror makes fatal in Release builds.
    s.InternSymbol(std::string("o").append(std::to_string(i)));
  }
  s.InternInt(7);
  s.InternString("seven");
  *universe = static_cast<Oid>(s.UniverseSize());
  std::mt19937_64 rng(seed);
  auto pick = [&](Oid n) { return static_cast<Oid>(rng() % n); };
  // A few methods, some with hot receivers so that groups and buckets
  // grow past a handful of members.
  const Oid scalar_methods[] = {0, 1, 2};
  const Oid set_methods[] = {3, 4, 5};
  auto random_args = [&]() {
    std::vector<Oid> args;
    switch (rng() % 4) {
      case 0: args.push_back(pick(4)); break;
      case 1: args = {pick(3), pick(3)}; break;
      default: break;
    }
    return args;
  };
  for (int step = 0; step < steps; ++step) {
    const int what = static_cast<int>(rng() % 10);
    if (what < 3) {
      // Edges mostly point "up" in oid order, so most are acyclic, but
      // some are not and must be rejected.
      Oid a = pick(*universe), b = pick(*universe);
      if (rng() % 4 != 0 && a > b) std::swap(a, b);
      const bool accept = model->AddIsa(a, b);
      EXPECT_EQ(s.AddIsa(a, b).ok(), accept) << "AddIsa(" << a << ", " << b
                                             << ") at step " << step;
    } else if (what < 6) {
      const Oid m = scalar_methods[rng() % 3];
      const Oid recv = m == 0 ? pick(3) : pick(*universe);
      const std::vector<Oid> args = random_args();
      const Oid value = pick(m == 1 ? 4 : *universe);
      const int want = model->SetScalar(m, recv, args, value);
      const Status st = s.SetScalar(m, recv, args, value);
      EXPECT_EQ(st.ok(), want != 2) << "SetScalar at step " << step;
      if (want == 2) {
        EXPECT_EQ(st.code(), StatusCode::kScalarConflict);
      }
    } else {
      const Oid m = set_methods[rng() % 3];
      const Oid recv = m == 3 ? pick(2) : pick(*universe);
      const std::vector<Oid> args = m == 3 ? std::vector<Oid>{} : random_args();
      const Oid value = pick(m == 5 ? 3 : *universe);
      EXPECT_EQ(s.AddSetMember(m, recv, args, value),
                model->AddSetMember(m, recv, args, value))
          << "AddSetMember at step " << step;
    }
    if (!Agrees(s, *model, *universe)) {
      ADD_FAILURE() << "first disagreement after step " << step
                    << " of seed " << seed;
      break;
    }
  }
  return s;
}

TEST(StoreModelTest, EveryAccessorMatchesTheLinearScanModel) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Model model;
    Oid universe = 0;
    ObjectStore s = RunSequence(seed, 400, &model, &universe);
    if (::testing::Test::HasFailure()) return;

    ObjectStore copy = s;
    EXPECT_TRUE(Agrees(copy, model, universe)) << "a copy of the store";

    Result<std::string> snap = SerializeSnapshot(s);
    ASSERT_TRUE(snap.ok()) << snap.status();
    Result<ObjectStore> loaded = DeserializeSnapshot(*snap);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_TRUE(Agrees(*loaded, model, universe)) << "a snapshot round trip";
    Result<std::string> again = SerializeSnapshot(*loaded);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *snap) << "the round trip is not byte-identical";

    std::string wal(kWalMagic, kWalMagicLen);
    for (Oid o = 0; o < s.UniverseSize(); ++o) {
      const ObjectKind kind = s.kind(o);
      std::string text = kind == ObjectKind::kInt ? "" : s.DisplayName(o);
      if (kind == ObjectKind::kString) text = text.substr(1, text.size() - 2);
      const int64_t value = kind == ObjectKind::kInt ? s.IntValue(o) : 0;
      AppendWalFrame(&wal, EncodeWalIntern(o, kind, value, text));
    }
    for (uint64_t g = 0; g < s.generation(); ++g) {
      AppendWalFrame(&wal, EncodeWalFact(g, s.FactAt(g)));
    }
    Result<WalScan> scan = ScanWal(wal);
    ASSERT_TRUE(scan.ok()) << scan.status();
    ObjectStore replayed;
    for (const WalRecord& r : scan->records) {
      ASSERT_TRUE(ApplyWalRecordToStore(r, &replayed).ok());
    }
    EXPECT_TRUE(Agrees(replayed, model, universe)) << "a WAL replay";
  }
}

}  // namespace
}  // namespace pathlog
