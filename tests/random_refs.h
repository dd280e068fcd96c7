// Random references and random stores over one small vocabulary, for
// the property and site differential suites (property_test.cc,
// site_differential_test.cc).

#ifndef PATHLOG_TESTS_RANDOM_REFS_H_
#define PATHLOG_TESTS_RANDOM_REFS_H_

#include <random>
#include <string>
#include <vector>

#include "ast/analysis.h"
#include "ast/ref.h"
#include "store/object_store.h"

namespace pathlog {

inline const char* const kObjects[] = {"a", "b", "c", "d", "e", "f", "g", "h"};
inline const char* const kClasses[] = {"t0", "t1", "t2", "t3"};
inline const char* const kScalarMethods[] = {"sm0", "sm1", "sm2"};
inline const char* const kSetMethods[] = {"pm0", "pm1"};

class RefGen {
 public:
  explicit RefGen(uint64_t seed, bool with_vars)
      : rng_(seed), with_vars_(with_vars) {}

  RefPtr Gen(int depth) { return GenRef(depth); }

 private:
  size_t Pick(size_t n) { return static_cast<size_t>(rng_() % n); }
  bool Chance(int pct) { return static_cast<int>(rng_() % 100) < pct; }

  /// Canonical molecule construction mirroring the parser: a filter
  /// attached to a molecule extends its filter list (t[f1][f2] and
  /// t[f1; f2] are the same molecule).
  static RefPtr AttachFilters(RefPtr base, std::vector<Filter> filters) {
    if (base->kind == RefKind::kMolecule) {
      std::vector<Filter> combined = base->filters;
      for (Filter& f : filters) combined.push_back(std::move(f));
      return Ref::Molecule(base->base, std::move(combined));
    }
    return Ref::Molecule(std::move(base), std::move(filters));
  }

  RefPtr GenSimple(int depth) {
    if (with_vars_ && Chance(20)) {
      return Ref::Var(std::string("V") + std::to_string(Pick(3)));
    }
    if (depth > 0 && Chance(15)) return Ref::Paren(GenRef(depth - 1));
    switch (Pick(4)) {
      case 0:
        return Ref::Name(kObjects[Pick(std::size(kObjects))]);
      case 1:
        return Ref::Name(kClasses[Pick(std::size(kClasses))]);
      case 2:
        return Ref::Int(static_cast<int64_t>(Pick(4)));
      default:
        return Ref::Name(kScalarMethods[Pick(std::size(kScalarMethods))]);
    }
  }

  RefPtr GenMethod(bool set_flavor) {
    if (set_flavor) return Ref::Name(kSetMethods[Pick(std::size(kSetMethods))]);
    return Ref::Name(kScalarMethods[Pick(std::size(kScalarMethods))]);
  }

  /// Generates a *scalar* reference (for filter values, args, elems).
  RefPtr GenScalar(int depth) {
    RefPtr r = GenSimple(depth);
    while (IsSetValued(*r)) r = GenSimple(depth);  // parens may be set
    if (depth <= 0) return r;
    // Optionally extend with scalar paths/filters.
    for (int i = 0; i < 2 && Chance(40); ++i) {
      if (Chance(60)) {
        r = Ref::ScalarPath(std::move(r), GenMethod(false));
      } else {
        r = AttachFilters(std::move(r), {GenFilter(depth - 1)});
      }
    }
    return r;
  }

  /// Generates a set-valued reference.
  RefPtr GenSetValued(int depth) {
    RefPtr r = Ref::SetPath(GenScalar(depth > 0 ? depth - 1 : 0),
                            GenMethod(true));
    if (depth > 0 && Chance(30)) {
      r = AttachFilters(std::move(r), {GenFilter(depth - 1)});
    }
    return r;
  }

  Filter GenFilter(int depth) {
    int d = depth > 0 ? depth - 1 : 0;
    switch (Pick(4)) {
      case 0:
        return Ref::ScalarFilter(GenMethod(false), GenScalar(d));
      case 1: {
        std::vector<RefPtr> elems;
        size_t n = 1 + Pick(2);
        for (size_t i = 0; i < n; ++i) elems.push_back(GenScalar(d));
        return Ref::SetEnumFilter(GenMethod(true), std::move(elems));
      }
      case 2:
        return Ref::SetRefFilter(GenMethod(true), GenSetValued(d));
      default:
        return Ref::ClassFilter(
            Ref::Name(kClasses[Pick(std::size(kClasses))]));
    }
  }

  RefPtr GenRef(int depth) {
    if (depth <= 0) return GenSimple(0);
    RefPtr r = GenSimple(depth - 1);
    int steps = 1 + static_cast<int>(Pick(3));
    for (int i = 0; i < steps; ++i) {
      switch (Pick(3)) {
        case 0:
          r = Ref::ScalarPath(std::move(r), GenMethod(false));
          break;
        case 1:
          r = Ref::SetPath(std::move(r), GenMethod(true));
          break;
        default: {
          std::vector<Filter> filters;
          size_t n = 1 + Pick(2);
          for (size_t j = 0; j < n; ++j) filters.push_back(GenFilter(depth - 1));
          r = AttachFilters(std::move(r), std::move(filters));
          break;
        }
      }
    }
    return r;
  }

  std::mt19937_64 rng_;
  bool with_vars_;
};

/// A random store over the same vocabulary the generator draws from.
inline ObjectStore RandomStore(uint64_t seed) {
  ObjectStore store;
  store.InternSymbol(kSelfMethodName);
  std::mt19937_64 rng(seed);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };

  std::vector<Oid> objects;
  for (const char* o : kObjects) objects.push_back(store.InternSymbol(o));
  std::vector<Oid> classes;
  for (const char* c : kClasses) classes.push_back(store.InternSymbol(c));
  std::vector<Oid> scalars;
  for (const char* m : kScalarMethods) scalars.push_back(store.InternSymbol(m));
  std::vector<Oid> sets;
  for (const char* m : kSetMethods) sets.push_back(store.InternSymbol(m));
  for (int64_t i = 0; i < 4; ++i) store.InternInt(i);

  // Everything interned above plus ints forms the value pool.
  std::vector<Oid> pool = objects;
  for (int64_t i = 0; i < 4; ++i) pool.push_back(*store.FindInt(i));

  // Acyclic hierarchy: class i under class j>i; objects under classes.
  for (size_t i = 0; i + 1 < classes.size(); ++i) {
    if (pick(2) == 0) {
      (void)store.AddIsa(classes[i], classes[i + pick(classes.size() - i - 1) + 1]);
    }
  }
  for (Oid o : objects) {
    if (pick(3) != 0) (void)store.AddIsa(o, classes[pick(classes.size())]);
  }
  for (int i = 0; i < 25; ++i) {
    Oid m = scalars[pick(scalars.size())];
    Oid recv = objects[pick(objects.size())];
    Oid value = pool[pick(pool.size())];
    (void)store.SetScalar(m, recv, {}, value);  // conflicts ignored
  }
  for (int i = 0; i < 25; ++i) {
    Oid m = sets[pick(sets.size())];
    Oid recv = objects[pick(objects.size())];
    Oid value = pool[pick(pool.size())];
    store.AddSetMember(m, recv, {}, value);
  }
  return store;
}

/// True when `t` can exercise one of the two documented divergences
/// between the literal Definition 4 and the active-domain evaluator:
/// a `->>`-reference filter (vacuous when the specified set is empty),
/// or an explicit-set filter with a *complex* element (the literal
/// semantics silently drops elements that denote nothing; the
/// evaluator requires every element to denote).
inline bool MayDivergeFromDefinition4(const Ref& t) {
  switch (t.kind) {
    case RefKind::kName:
    case RefKind::kVar:
      return false;
    case RefKind::kParen:
      return MayDivergeFromDefinition4(*t.base);
    case RefKind::kPath: {
      if (MayDivergeFromDefinition4(*t.base)) return true;
      if (MayDivergeFromDefinition4(*t.method)) return true;
      for (const RefPtr& a : t.args) {
        if (MayDivergeFromDefinition4(*a)) return true;
      }
      return false;
    }
    case RefKind::kMolecule: {
      if (MayDivergeFromDefinition4(*t.base)) return true;
      for (const Filter& f : t.filters) {
        if (f.kind == FilterKind::kSetRef) return true;
        if (f.method && MayDivergeFromDefinition4(*f.method)) return true;
        if (f.value && MayDivergeFromDefinition4(*f.value)) return true;
        for (const RefPtr& e : f.elems) {
          const Ref* d = e.get();
          while (d->kind == RefKind::kParen) d = d->base.get();
          if (d->kind != RefKind::kName) return true;
          if (MayDivergeFromDefinition4(*e)) return true;
        }
      }
      return false;
    }
  }
  return false;
}

}  // namespace pathlog

#endif  // PATHLOG_TESTS_RANDOM_REFS_H_
