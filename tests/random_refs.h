// Random references and random stores over one small vocabulary, for
// the property and site differential suites (property_test.cc,
// site_differential_test.cc), and Definition 4 as the oracle for their
// answers, variables included (MatchesDefinition4).

#ifndef PATHLOG_TESTS_RANDOM_REFS_H_
#define PATHLOG_TESTS_RANDOM_REFS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ast/analysis.h"
#include "ast/printer.h"
#include "ast/ref.h"
#include "eval/ref_eval.h"
#include "semantics/structure.h"
#include "semantics/valuation.h"
#include "store/object_store.h"

namespace pathlog {

inline const char* const kObjects[] = {"a", "b", "c", "d", "e", "f", "g", "h"};
inline const char* const kClasses[] = {"t0", "t1", "t2", "t3"};
inline const char* const kScalarMethods[] = {"sm0", "sm1", "sm2"};
inline const char* const kSetMethods[] = {"pm0", "pm1"};
/// The arguments of the facts and references that take one (`m@(x)`):
/// two objects and two integers.
inline const char* const kArgObjects[] = {"a", "b"};
inline constexpr int64_t kArgInts = 2;

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

  /// Mostly one of the objects RandomStore files facts on, so that a
  /// reference usually denotes something; now and then a class, an
  /// integer or a method name.
  RefPtr GenSimple(int depth) {
    if (with_vars_ && Chance(20)) {
      return Ref::Var(std::string("V") + std::to_string(Pick(3)));
    }
    if (depth > 0 && Chance(15)) return Ref::Paren(GenRef(depth - 1));
    if (Chance(70)) return Ref::Name(kObjects[Pick(std::size(kObjects))]);
    switch (Pick(3)) {
      case 0:
        return Ref::Name(kClasses[Pick(std::size(kClasses))]);
      case 1:
        return Ref::Int(static_cast<int64_t>(Pick(4)));
      default:
        return Ref::Name(kScalarMethods[Pick(std::size(kScalarMethods))]);
    }
  }

  RefPtr GenMethod(bool set_flavor) {
    if (set_flavor) return Ref::Name(kSetMethods[Pick(std::size(kSetMethods))]);
    return Ref::Name(kScalarMethods[Pick(std::size(kScalarMethods))]);
  }

  /// The arguments of one invocation: none, or (one time in four) one
  /// drawn from the arguments RandomStore's facts take, or a variable.
  std::vector<RefPtr> GenArgs() {
    std::vector<RefPtr> args;
    if (!Chance(25)) return args;
    if (with_vars_ && Chance(25)) {
      args.push_back(Ref::Var(std::string("V") + std::to_string(Pick(3))));
    } else if (Chance(50)) {
      args.push_back(Ref::Name(kArgObjects[Pick(std::size(kArgObjects))]));
    } else {
      args.push_back(Ref::Int(static_cast<int64_t>(Pick(kArgInts))));
    }
    return args;
  }

  /// Generates a *scalar* reference (for filter values, args, elems).
  RefPtr GenScalar(int depth) {
    RefPtr r = GenSimple(depth);
    while (IsSetValued(*r)) r = GenSimple(depth);  // parens may be set
    if (depth <= 0) return r;
    // Optionally extend with scalar paths/filters.
    for (int i = 0; i < 2 && Chance(50); ++i) {
      if (Chance(70)) {
        r = Ref::ScalarPath(std::move(r), GenMethod(false), GenArgs());
      } else {
        r = AttachFilters(std::move(r), {GenFilter(depth - 1)});
      }
    }
    return r;
  }

  /// Generates a set-valued reference.
  RefPtr GenSetValued(int depth) {
    RefPtr r = Ref::SetPath(GenScalar(depth > 0 ? depth - 1 : 0),
                            GenMethod(true), GenArgs());
    if (depth > 0 && Chance(30)) {
      r = AttachFilters(std::move(r), {GenFilter(depth - 1)});
    }
    return r;
  }

  /// A filter whose values are references of up to `depth` (so a
  /// depth-1 filter may match a path value against a bound target).
  Filter GenFilter(int depth) {
    switch (Pick(4)) {
      case 0:
        return Ref::ScalarFilter(GenMethod(false), GenScalar(depth),
                                 GenArgs());
      case 1: {
        std::vector<RefPtr> elems;
        size_t n = 1 + Pick(2);
        for (size_t i = 0; i < n; ++i) elems.push_back(GenScalar(depth));
        return Ref::SetEnumFilter(GenMethod(true), std::move(elems), GenArgs());
      }
      case 2:
        return Ref::SetRefFilter(GenMethod(true), GenSetValued(depth),
                                 GenArgs());
      default:
        return Ref::ClassFilter(
            Ref::Name(kClasses[Pick(std::size(kClasses))]));
    }
  }

  RefPtr GenRef(int depth) {
    if (depth <= 0) return GenSimple(0);
    // An open base makes the evaluator drive the first molecule from
    // an index, so it is drawn more often here than elsewhere.
    RefPtr r = with_vars_ && Chance(25)
                   ? Ref::Var(std::string("V") + std::to_string(Pick(3)))
                   : GenSimple(depth - 1);
    int steps = 1 + static_cast<int>(Pick(3));
    for (int i = 0; i < steps; ++i) {
      switch (Pick(4)) {
        case 0:
          r = Ref::ScalarPath(std::move(r), GenMethod(false), GenArgs());
          break;
        case 1:
          r = Ref::SetPath(std::move(r), GenMethod(true), GenArgs());
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
  for (int i = 0; i < 40; ++i) {
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
  // Facts with one argument (m@(x)), on the same methods.
  std::vector<Oid> args;
  for (const char* a : kArgObjects) args.push_back(*store.FindSymbol(a));
  for (int64_t i = 0; i < kArgInts; ++i) args.push_back(*store.FindInt(i));
  for (int i = 0; i < 12; ++i) {
    Oid m = scalars[pick(scalars.size())];
    Oid recv = objects[pick(objects.size())];
    Oid value = pool[pick(pool.size())];
    (void)store.SetScalar(m, recv, {args[pick(args.size())]}, value);
  }
  for (int i = 0; i < 12; ++i) {
    Oid m = sets[pick(sets.size())];
    Oid recv = objects[pick(objects.size())];
    Oid value = pool[pick(pool.size())];
    store.AddSetMember(m, recv, {args[pick(args.size())]}, value);
  }
  return store;
}

/// True when `t` can exercise one of the two documented divergences
/// between the literal Definition 4 and the active-domain evaluator:
/// a `->>`-reference filter (vacuous when the specified set is empty),
/// or an explicit-set filter with a *complex* element (the literal
/// semantics silently drops elements that denote nothing; the
/// evaluator requires every element to denote). A name or a variable
/// always denotes exactly one object, so neither is complex.
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
          const RefKind kind = Deref(*e).kind;
          if (kind != RefKind::kName && kind != RefKind::kVar) return true;
        }
      }
      return false;
    }
  }
  return false;
}

// ---- Definition 4 as the oracle for references with variables ------

/// One solution of a reference: the object it denotes, with the value
/// of each of the reference's variables.
using RefSolution = std::pair<Oid, VarValuation>;
using RefSolutions = std::set<RefSolution>;

/// Adds the variables that occur inside the result of a `->>` filter
/// of `t`. The evaluators require them bound when the filter is
/// checked, so the oracle binds them beforehand.
inline void CollectSetResultVars(const Ref& t, std::set<std::string>* out) {
  switch (t.kind) {
    case RefKind::kName:
    case RefKind::kVar:
      return;
    case RefKind::kParen:
      CollectSetResultVars(*t.base, out);
      return;
    case RefKind::kPath:
      CollectSetResultVars(*t.base, out);
      CollectSetResultVars(*t.method, out);
      for (const RefPtr& a : t.args) CollectSetResultVars(*a, out);
      return;
    case RefKind::kMolecule:
      CollectSetResultVars(*t.base, out);
      for (const Filter& f : t.filters) {
        if (f.method) CollectSetResultVars(*f.method, out);
        for (const RefPtr& a : f.args) CollectSetResultVars(*a, out);
        for (const RefPtr& e : f.elems) CollectSetResultVars(*e, out);
        if (f.kind == FilterKind::kSetRef) {
          CollectVars(*f.value, out);
        } else if (f.value) {
          CollectSetResultVars(*f.value, out);
        }
      }
      return;
  }
}

/// Calls `fn` once for every valuation that extends `nu` with an object
/// of the universe {0, ..., universe - 1} for each of `vars[i..]`.
inline void ForEachValuation(const std::vector<std::string>& vars,
                             size_t universe, VarValuation nu,
                             const std::function<void(const VarValuation&)>& fn,
                             size_t i = 0) {
  if (i == vars.size()) {
    fn(nu);
    return;
  }
  for (Oid o = 0; o < universe; ++o) {
    nu[vars[i]] = o;
    ForEachValuation(vars, universe, nu, fn, i + 1);
  }
}

/// Definition 4 by brute force: for every total valuation ν of `t`'s
/// variables over the universe that agrees with `fixed`, each object o
/// of Valuate(I, t, ν) is one solution (o, ν).
inline Result<RefSolutions> Definition4Solutions(const SemanticStructure& I,
                                                 const Ref& t,
                                                 const VarValuation& fixed) {
  std::vector<std::string> free;
  for (const std::string& v : VarsOf(t)) {
    if (fixed.count(v) == 0) free.push_back(v);
  }
  RefSolutions out;
  Status status;
  ForEachValuation(free, I.store().UniverseSize(), fixed,
                   [&](const VarValuation& nu) {
                     if (!status.ok()) return;
                     Result<std::vector<Oid>> objects = Valuate(I, t, nu);
                     if (!objects.ok()) {
                       status = objects.status();
                       return;
                     }
                     for (Oid o : *objects) out.emplace(o, nu);
                   });
  if (!status.ok()) return status;
  return out;
}

/// RefEvaluator's solutions of `t`, the variables of `pre` bound before
/// the walk starts.
inline Result<RefSolutions> EvaluatorSolutions(RefEvaluator* eval,
                                               const Ref& t,
                                               const VarValuation& pre) {
  Bindings b;
  for (const auto& [var, o] : pre) b.Bind(var, o);
  const std::set<std::string> vars = VarsOf(t);
  RefSolutions out;
  Result<bool> r = eval->Enumerate(t, &b, [&](Oid o) -> Result<bool> {
    VarValuation nu;
    for (const std::string& v : vars) {
      std::optional<Oid> value = b.Get(v);
      if (!value) return Status(Internal(v + " is unbound in a solution"));
      nu.emplace(v, *value);
    }
    out.emplace(o, std::move(nu));
    return true;
  });
  if (!r.ok()) return r.status();
  return out;
}

inline std::string DescribeSolution(const ObjectStore& store,
                                    const RefSolution& s) {
  std::string out = store.DisplayName(s.first) + " {";
  for (const auto& [var, o] : s.second) {
    out += " " + var + "=" + store.DisplayName(o);
  }
  return out + " }";
}

/// Produces an implementation's solutions of a reference, given the
/// valuation of the variables bound beforehand.
using SolveFn = std::function<Result<RefSolutions>(const VarValuation& pre)>;

/// Completeness enumerates |U|^k valuations for a reference's k free
/// variables; above this many it is not checked. Over RandomStore's 22
/// objects that admits two variables (484) and not three (10,648).
inline constexpr size_t kMaxOracleValuations = 1000;

/// Checks `solve`'s solutions of `t` against Definition 4. They must be
/// sound: every solution (o, ν) has o in Valuate(I, t, ν). Unless
/// MayDivergeFromDefinition4(t), or `t` has more free variables than
/// kMaxOracleValuations admits, they must also be complete: equal to
/// Definition4Solutions. The variables inside `->>` results are bound
/// beforehand, `solve` being called once per valuation of them over
/// the universe.
inline ::testing::AssertionResult MatchesDefinition4(const SemanticStructure& I,
                                                     const Ref& t,
                                                     const SolveFn& solve) {
  const ObjectStore& store = I.store();
  std::set<std::string> pre_vars;
  CollectSetResultVars(t, &pre_vars);
  const double valuations =
      std::pow(static_cast<double>(store.UniverseSize()),
               static_cast<double>(VarsOf(t).size() - pre_vars.size()));
  const bool complete =
      !MayDivergeFromDefinition4(t) && valuations <= kMaxOracleValuations;
  std::string failure;
  ForEachValuation(
      {pre_vars.begin(), pre_vars.end()}, store.UniverseSize(), {},
      [&](const VarValuation& pre) {
        if (!failure.empty()) return;
        Result<RefSolutions> got = solve(pre);
        if (!got.ok()) {
          failure = "solving: " + got.status().ToString();
          return;
        }
        for (const RefSolution& s : *got) {
          Result<std::vector<Oid>> objects = Valuate(I, t, s.second);
          if (!objects.ok()) {
            failure = "Definition 4: " + objects.status().ToString();
            return;
          }
          if (!std::binary_search(objects->begin(), objects->end(), s.first)) {
            failure += "\n  not in Definition 4: " + DescribeSolution(store, s);
          }
        }
        if (!complete) return;
        Result<RefSolutions> want = Definition4Solutions(I, t, pre);
        if (!want.ok()) {
          failure = "Definition 4: " + want.status().ToString();
          return;
        }
        for (const RefSolution& s : *want) {
          if (got->count(s) == 0) {
            failure += "\n  missing: " + DescribeSolution(store, s);
          }
        }
      });
  if (failure.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << ToString(t) << failure;
}

}  // namespace pathlog

#endif  // PATHLOG_TESTS_RANDOM_REFS_H_
