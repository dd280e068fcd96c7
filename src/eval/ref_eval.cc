#include "eval/ref_eval.h"

#include <algorithm>
#include <set>
#include <unordered_set>
#include <utility>

#include "ast/analysis.h"
#include "ast/printer.h"
#include "base/strings.h"

namespace pathlog {

bool RefEvaluator::AllVarsBound(const Ref& t, const Bindings& b) const {
  for (const std::string& v : VarsOf(t)) {
    if (!b.IsBound(v)) return false;
  }
  return true;
}

Result<bool> RefEvaluator::Enumerate(const Ref& t, Bindings* b,
                                     const EmitFn& emit) {
  PATHLOG_RETURN_IF_ERROR(TickBudget());
  switch (t.kind) {
    case RefKind::kName: {
      std::optional<Oid> o = I_.FindName(t);
      if (!o) return true;  // nothing denoted in this store
      ++emit_count_;
      return emit(*o);
    }
    case RefKind::kVar: {
      if (std::optional<Oid> v = b->Get(t.text)) {
        ++emit_count_;
        return emit(*v);
      }
      // Fallback: a variable with no driving context ranges over the
      // whole universe (active domain). The molecule/path evaluators
      // avoid this with index-driven enumeration.
      ++universe_scans_;
      const size_t n = I_.store().UniverseSize();
      for (Oid o = 0; o < n; ++o) {
        size_t mark = b->Mark();
        b->Bind(t.text, o);
        ++emit_count_;
        Result<bool> r = emit(o);
        b->Undo(mark);
        if (!r.ok() || !*r) return r;
      }
      return true;
    }
    case RefKind::kParen:
      return Enumerate(*t.base, b, emit);
    case RefKind::kPath:
      return EnumPathDeduped(t, b, emit);
    case RefKind::kMolecule:
      return EnumMolecule(t, b, emit);
  }
  return Status(Internal("Enumerate: unknown reference kind"));
}

Result<bool> RefEvaluator::Satisfiable(const Ref& t, Bindings* b) {
  bool found = false;
  Result<bool> r = Enumerate(t, b, [&](Oid) -> Result<bool> {
    found = true;
    return false;  // stop at the first witness
  });
  if (!r.ok()) return r.status();
  return found;
}

Result<std::vector<Oid>> RefEvaluator::EvalGround(const Ref& t, Bindings* b) {
  if (!AllVarsBound(t, *b)) {
    return Status(UnsafeRule(
        StrCat("reference must be ground at this point, but has unbound "
               "variables: ",
               ToString(t))));
  }
  std::vector<Oid> out;
  Result<bool> r = Enumerate(t, b, [&](Oid o) -> Result<bool> {
    out.push_back(o);
    return true;
  });
  if (!r.ok()) return r.status();
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<bool> RefEvaluator::MatchRef(const Ref& t, Oid target, Bindings* b,
                                    const Cont& cont) {
  PATHLOG_RETURN_IF_ERROR(TickBudget());
  const Ref& d = Deref(t);
  switch (d.kind) {
    case RefKind::kVar: {
      if (std::optional<Oid> v = b->Get(d.text)) {
        return *v == target ? cont() : Result<bool>(true);
      }
      size_t mark = b->Mark();
      b->Bind(d.text, target);
      Result<bool> r = cont();
      b->Undo(mark);
      return r;
    }
    case RefKind::kName: {
      std::optional<Oid> o = I_.FindName(d);
      return (o && *o == target) ? cont() : Result<bool>(true);
    }
    case RefKind::kMolecule:
      // Push the known target through: the molecule denotes `target`
      // iff its base does and `target` satisfies the filters. This is
      // what makes matching a pattern like {Y:automobile} against a
      // set member O(1) instead of a scan of automobile's extent.
      return MatchRef(*d.base, target, b, [&]() -> Result<bool> {
        return CheckFilters(d.filters, 0, target, b, cont);
      });
    default:  // a path (Deref strips brackets)
      return MatchPath(d, target, b, cont);
  }
}

Result<bool> RefEvaluator::MatchPath(const Ref& t, Oid target, Bindings* b,
                                     const Cont& cont) {
  return EnumMethod(
      *t.method, t.set_valued_path, b, [&](Oid um) -> Result<bool> {
        if (!t.set_valued_path) {
          if (I_.IsSelf(um) && t.args.empty()) {
            // base.self denotes whatever base denotes.
            return MatchRef(*t.base, target, b, cont);
          }
          if (I_.IsGuard(um)) {
            // Guards are identity-preserving partial functions: the
            // path denotes the target iff the base does and the guard
            // holds on the target.
            return MatchRef(*t.base, target, b, [&]() -> Result<bool> {
              std::vector<Oid> argv(t.args.size());
              return EnumArgValues(t.args, 0, &argv, b, [&]() -> Result<bool> {
                if (I_.Scalar(um, target, argv)) return cont();
                return true;
              });
            });
          }
          // Stored scalar facts: walk value→receiver backwards. Every
          // fact with this value is one candidate derivation; the base
          // pattern and argument patterns prune the rest.
          ++inverted_probes_;
          const std::span<const uint32_t> idxs =
              I_.store().ScalarEntriesByValue(um, target);
          const ScalarEntryList entries = I_.store().ScalarEntries(um);
          for (uint32_t i : idxs) {
            const ScalarEntry& e = entries[i];
            if (e.args.size() != t.args.size()) continue;
            DeltaGuard guard(this, e.gen);
            Result<bool> r =
                MatchRef(*t.base, e.recv, b, [&]() -> Result<bool> {
                  return MatchArgs(t.args, e.args, 0, b, cont);
                });
            if (!r.ok() || !*r) return r;
          }
          return true;
        }
        // Set-valued: walk member→receiver backwards.
        ++inverted_probes_;
        const std::span<const SetMemberRef> refs =
            I_.store().SetGroupsByMember(um, target);
        const SetGroupList groups = I_.store().SetGroups(um);
        for (const SetMemberRef& mr : refs) {
          const SetGroup& g = groups[mr.group];
          if (g.args.size() != t.args.size()) continue;
          DeltaGuard guard(this, g.member_gens[mr.pos]);
          Result<bool> r = MatchRef(*t.base, g.recv, b, [&]() -> Result<bool> {
            return MatchArgs(t.args, g.args, 0, b, cont);
          });
          if (!r.ok() || !*r) return r;
        }
        return true;
      });
}

Result<bool> RefEvaluator::MatchArgs(const std::vector<RefPtr>& refs,
                                     std::span<const Oid> oids, size_t i,
                                     Bindings* b, const Cont& cont) {
  if (i == refs.size()) return cont();
  return MatchRef(*refs[i], oids[i], b, [&]() -> Result<bool> {
    return MatchArgs(refs, oids, i + 1, b, cont);
  });
}

Result<bool> RefEvaluator::EnumMethod(
    const Ref& m, bool set_flavor, Bindings* b,
    const std::function<Result<bool>(Oid)>& fn) {
  const Ref& d = Deref(m);
  switch (d.kind) {
    case RefKind::kName: {
      std::optional<Oid> o = I_.FindName(d);
      if (!o) return true;
      return fn(*o);
    }
    case RefKind::kVar: {
      if (std::optional<Oid> v = b->Get(d.text)) return fn(*v);
      // An unbound method variable ranges over the *named* methods that
      // have stored facts of the required flavour — never the built-in
      // `self` (which applies to every object) and never anonymous
      // derived method objects such as `_tc(kids)`. Without the latter
      // restriction the paper's generic tc program would be
      // non-terminating bottom-up: closing `kids` creates the method
      // object `_tc(kids)`, whose facts would re-bind M and demand
      // `_tc(_tc(kids))`, ad infinitum (documented in DESIGN.md).
      std::vector<Oid> methods =
          set_flavor ? I_.store().SetMethods() : I_.store().ScalarMethods();
      for (Oid um : methods) {
        if (I_.store().kind(um) == ObjectKind::kAnonymous) continue;
        size_t mark = b->Mark();
        b->Bind(d.text, um);
        Result<bool> r = fn(um);
        b->Undo(mark);
        if (!r.ok() || !*r) return r;
      }
      return true;
    }
    default:
      // A complex method reference (e.g. the generic `(M.tc)`): any
      // object it denotes acts as the method.
      return Enumerate(d, b, fn);
  }
}

Result<bool> RefEvaluator::EnumArgValues(const std::vector<RefPtr>& args,
                                         size_t i, std::vector<Oid>* argv,
                                         Bindings* b, const Cont& cont) {
  if (i == args.size()) return cont();
  return Enumerate(*args[i], b, [&](Oid o) -> Result<bool> {
    (*argv)[i] = o;
    return EnumArgValues(args, i + 1, argv, b, cont);
  });
}

Result<bool> RefEvaluator::EnumPath(const Ref& t, Bindings* b,
                                    const EmitFn& emit) {
  return EnumMethod(*t.method, t.set_valued_path, b,
                    [&](Oid um) -> Result<bool> {
                      if (!t.set_valued_path) {
                        return EnumScalarInvocations(um, *t.base, t.args, b,
                                                     emit);
                      }
                      return EnumSetInvocations(um, *t.base, t.args, b, emit);
                    });
}

Result<bool> RefEvaluator::EnumPathDeduped(const Ref& t, Bindings* b,
                                           const EmitFn& emit) {
  if (delta_active_) {
    // In delta mode every derivation must surface so its fact
    // generations are seen; suppression would hide whether the
    // designated literal consumed a new fact.
    return EnumPath(t, b, emit);
  }
  // A path can denote one object through several derivations (two
  // receivers sharing a value, one member in two groups). When the
  // repeat also carries identical bindings it is the same solution, so
  // it is suppressed here — the one place every path emission passes.
  const size_t entry_mark = b->Mark();
  std::set<std::pair<Oid, std::vector<std::pair<std::string, Oid>>>> seen;
  return EnumPath(t, b, [&](Oid o) -> Result<bool> {
    std::vector<std::pair<std::string, Oid>> extension;
    const size_t mark = b->Mark();
    extension.reserve(mark - entry_mark);
    for (size_t i = entry_mark; i < mark; ++i) {
      const std::string& var = b->TrailVar(i);
      extension.emplace_back(var, *b->Get(var));
    }
    if (!seen.emplace(o, std::move(extension)).second) {
      // The enumeration site already counted this emission; it is not
      // delivered, so it must not count.
      --emit_count_;
      ++duplicates_suppressed_;
      return true;
    }
    return emit(o);
  });
}

Result<bool> RefEvaluator::EnumScalarInvocations(
    Oid um, const Ref& base, const std::vector<RefPtr>& args, Bindings* b,
    const EmitFn& emit) {
  if (I_.IsSelf(um) && args.empty()) {
    // self denotes the receiver itself, for every object.
    return Enumerate(base, b, [&](Oid u0) -> Result<bool> {
      ++emit_count_;
      return emit(u0);
    });
  }
  if (I_.IsGuard(um)) {
    // Comparison guards compute from values; there is no extent to
    // drive from, so receiver and arguments enumerate normally.
    return Enumerate(base, b, [&](Oid u0) -> Result<bool> {
      std::vector<Oid> argv(args.size());
      return EnumArgValues(args, 0, &argv, b, [&]() -> Result<bool> {
        if (std::optional<Oid> r = I_.Scalar(um, u0, argv)) {
          ++emit_count_;
          return emit(*r);
        }
        return true;
      });
    });
  }
  const Ref& d = Deref(base);
  if (d.kind == RefKind::kVar && !b->IsBound(d.text)) {
    // Drive from the method's extent: bind the receiver variable.
    ++extent_scans_;
    for (const ScalarEntry& e : I_.store().ScalarEntries(um)) {
      if (e.args.size() != args.size()) continue;
      size_t mark = b->Mark();
      b->Bind(d.text, e.recv);
      DeltaGuard guard(this, e.gen);
      Result<bool> r = MatchArgs(args, e.args, 0, b, [&]() -> Result<bool> {
        ++emit_count_;
        return emit(e.value);
      });
      b->Undo(mark);
      if (!r.ok() || !*r) return r;
    }
    return true;
  }
  return Enumerate(base, b, [&](Oid u0) -> Result<bool> {
    const std::span<const uint32_t> idxs = I_.store().ScalarEntriesByRecv(um, u0);
    const ScalarEntryList entries = I_.store().ScalarEntries(um);
    for (uint32_t i : idxs) {
      const ScalarEntry& e = entries[i];
      if (e.args.size() != args.size()) continue;
      DeltaGuard guard(this, e.gen);
      Result<bool> r = MatchArgs(args, e.args, 0, b, [&]() -> Result<bool> {
        ++emit_count_;
        return emit(e.value);
      });
      if (!r.ok() || !*r) return r;
    }
    return true;
  });
}

Result<bool> RefEvaluator::EnumSetInvocations(
    Oid um, const Ref& base, const std::vector<RefPtr>& args, Bindings* b,
    const EmitFn& emit) {
  auto emit_group = [&](const SetGroup& g) -> Result<bool> {
    return MatchArgs(args, g.args, 0, b, [&]() -> Result<bool> {
      for (size_t i = 0; i < g.members.size(); ++i) {
        DeltaGuard guard(this, g.member_gens[i]);
        ++emit_count_;
        Result<bool> r = emit(g.members[i]);
        if (!r.ok() || !*r) return r;
      }
      return true;
    });
  };
  const Ref& d = Deref(base);
  if (d.kind == RefKind::kVar && !b->IsBound(d.text)) {
    ++extent_scans_;
    for (const SetGroup& g : I_.store().SetGroups(um)) {
      if (g.args.size() != args.size()) continue;
      size_t mark = b->Mark();
      b->Bind(d.text, g.recv);
      Result<bool> r = emit_group(g);
      b->Undo(mark);
      if (!r.ok() || !*r) return r;
    }
    return true;
  }
  return Enumerate(base, b, [&](Oid u0) -> Result<bool> {
    const std::span<const uint32_t> idxs = I_.store().SetGroupsByRecv(um, u0);
    const SetGroupList groups = I_.store().SetGroups(um);
    for (uint32_t i : idxs) {
      const SetGroup& g = groups[i];
      if (g.args.size() != args.size()) continue;
      Result<bool> r = emit_group(g);
      if (!r.ok() || !*r) return r;
    }
    return true;
  });
}

Result<bool> RefEvaluator::EnumMolecule(const Ref& t, Bindings* b,
                                        const EmitFn& emit) {
  const Ref& base = Deref(*t.base);
  if (!(base.kind == RefKind::kVar && !b->IsBound(base.text))) {
    return Enumerate(*t.base, b, [&](Oid u0) -> Result<bool> {
      return CheckFilters(t.filters, 0, u0, b, [&]() -> Result<bool> {
        ++emit_count_;
        return emit(u0);
      });
    });
  }

  // The base is an unbound variable: choose the cheapest index-driven
  // candidate set any filter can supply instead of scanning the
  // universe. Every option over-approximates the molecule's solutions
  // (all filters are re-checked below, with delta guards at the
  // consumption sites), so smaller is merely faster, never wrong.
  const ObjectStore& store = I_.store();
  std::vector<Oid> candidates;
  bool driven = false;

  auto method_oid = [&](const RefPtr& m) -> std::optional<Oid> {
    const Ref& dm = Deref(*m);
    if (dm.kind == RefKind::kName) return I_.FindName(dm);
    if (dm.kind == RefKind::kVar) return b->Get(dm.text);
    return std::nullopt;
  };

  enum class Drive {
    kNone,
    kClassExtent,   // members of a resolvable class filter
    kScalarValue,   // inverted probe: receivers yielding a known value
    kSetMember,     // inverted probe: receivers containing a known elem
    kScalarRecvs,   // all receivers of a scalar filter's method
    kSetRecvs,      // all receivers of a set filter's method
  };
  Drive drive = Drive::kNone;
  size_t best_cost = 0;
  Oid drive_m = kNilOid;
  Oid drive_v = kNilOid;
  auto consider = [&](Drive d, size_t cost, Oid m, Oid v) {
    if (drive == Drive::kNone || cost < best_cost) {
      drive = d;
      best_cost = cost;
      drive_m = m;
      drive_v = v;
    }
  };

  for (const Filter& f : t.filters) {
    if (f.kind == FilterKind::kClass) {
      std::optional<Oid> c = method_oid(f.value);
      if (c) {
        consider(Drive::kClassExtent, store.Members(*c).size(), *c, kNilOid);
      } else if (Deref(*f.value).kind == RefKind::kName) {
        return true;  // class name not interned: empty extent
      }
      continue;
    }
    std::optional<Oid> m = method_oid(f.method);
    // Built-ins (self, guards) have no stored extent to drive from;
    // treating them as drivers would wrongly yield zero candidates.
    if (!m || I_.IsBuiltinScalar(*m)) continue;
    if (f.kind == FilterKind::kScalar) {
      if (std::optional<Oid> v = method_oid(f.value)) {
        consider(Drive::kScalarValue,
                 store.ScalarEntriesByValue(*m, *v).size(), *m, *v);
        continue;
      }
      if (Deref(*f.value).kind == RefKind::kName) {
        return true;  // value name not interned: filter unsatisfiable
      }
      consider(Drive::kScalarRecvs, store.ScalarEntries(*m).size(), *m,
               kNilOid);
    } else {
      if (f.kind == FilterKind::kSetEnum) {
        for (const RefPtr& e : f.elems) {
          if (std::optional<Oid> v = method_oid(e)) {
            consider(Drive::kSetMember, store.SetGroupsByMember(*m, *v).size(),
                     *m, *v);
          } else if (Deref(*e).kind == RefKind::kName) {
            return true;  // element not interned: cannot be a member
          }
        }
      }
      consider(Drive::kSetRecvs, store.SetGroups(*m).size(), *m, kNilOid);
    }
  }

  switch (drive) {
    case Drive::kClassExtent: {
      ++extent_scans_;
      const std::span<const Oid> extent = store.Members(drive_m);
      candidates.assign(extent.begin(), extent.end());
      driven = true;
      break;
    }
    case Drive::kScalarValue: {
      ++inverted_probes_;
      std::unordered_set<Oid> seen;
      const ScalarEntryList entries = store.ScalarEntries(drive_m);
      for (uint32_t i : store.ScalarEntriesByValue(drive_m, drive_v)) {
        if (seen.insert(entries[i].recv).second) {
          candidates.push_back(entries[i].recv);
        }
      }
      driven = true;
      break;
    }
    case Drive::kSetMember: {
      ++inverted_probes_;
      std::unordered_set<Oid> seen;
      const SetGroupList groups = store.SetGroups(drive_m);
      for (const SetMemberRef& mr : store.SetGroupsByMember(drive_m, drive_v)) {
        if (seen.insert(groups[mr.group].recv).second) {
          candidates.push_back(groups[mr.group].recv);
        }
      }
      driven = true;
      break;
    }
    case Drive::kScalarRecvs: {
      ++extent_scans_;
      std::unordered_set<Oid> seen;
      for (const ScalarEntry& e : store.ScalarEntries(drive_m)) {
        if (seen.insert(e.recv).second) candidates.push_back(e.recv);
      }
      driven = true;
      break;
    }
    case Drive::kSetRecvs: {
      ++extent_scans_;
      std::unordered_set<Oid> seen;
      for (const SetGroup& g : store.SetGroups(drive_m)) {
        if (seen.insert(g.recv).second) candidates.push_back(g.recv);
      }
      driven = true;
      break;
    }
    case Drive::kNone:
      break;
  }

  // Fallback: a self filter with a fully bound value — its denotation
  // is the candidate set (e.g. X[self->mary]).
  if (!driven) {
    for (const Filter& f : t.filters) {
      if (f.kind != FilterKind::kScalar || !f.args.empty()) continue;
      std::optional<Oid> m = method_oid(f.method);
      if (!m || !I_.IsSelf(*m)) continue;
      if (!AllVarsBound(*f.value, *b)) continue;
      Result<std::vector<Oid>> vals = EvalGround(*f.value, b);
      if (!vals.ok()) return vals.status();
      candidates = std::move(*vals);
      driven = true;
      break;
    }
  }
  if (!driven) {
    ++universe_scans_;
    candidates.resize(I_.store().UniverseSize());
    for (Oid o = 0; o < candidates.size(); ++o) candidates[o] = o;
  }

  for (Oid u0 : candidates) {
    size_t mark = b->Mark();
    b->Bind(base.text, u0);
    Result<bool> r = CheckFilters(t.filters, 0, u0, b, [&]() -> Result<bool> {
      ++emit_count_;
      return emit(u0);
    });
    b->Undo(mark);
    if (!r.ok() || !*r) return r;
  }
  return true;
}

Result<bool> RefEvaluator::CheckFilters(const std::vector<Filter>& filters,
                                        size_t i, Oid u0, Bindings* b,
                                        const Cont& cont) {
  PATHLOG_RETURN_IF_ERROR(TickBudget());
  if (i == filters.size()) return cont();
  return CheckFilter(filters[i], u0, b, [&]() -> Result<bool> {
    return CheckFilters(filters, i + 1, u0, b, cont);
  });
}

Result<bool> RefEvaluator::CheckFilter(const Filter& f, Oid u0, Bindings* b,
                                       const Cont& cont) {
  if (f.kind == FilterKind::kClass) {
    const Ref& c = Deref(*f.value);
    if (c.kind == RefKind::kVar && !b->IsBound(c.text)) {
      const std::span<const Oid> ancestors = I_.store().Ancestors(u0);
      const std::span<const uint64_t> gens = I_.store().AncestorGens(u0);
      for (size_t i = 0; i < ancestors.size(); ++i) {
        size_t mark = b->Mark();
        b->Bind(c.text, ancestors[i]);
        DeltaGuard guard(this, gens[i]);
        Result<bool> r = cont();
        b->Undo(mark);
        if (!r.ok() || !*r) return r;
      }
      return true;
    }
    return Enumerate(*f.value, b, [&](Oid uc) -> Result<bool> {
      if (!I_.IsA(u0, uc)) return true;
      DeltaGuard guard(this, I_.store().IsaGen(u0, uc));
      return cont();
    });
  }

  return EnumMethod(*f.method, f.kind != FilterKind::kScalar, b,
                    [&](Oid um) -> Result<bool> {
    switch (f.kind) {
      case FilterKind::kScalar: {
        if (I_.IsSelf(um) && f.args.empty()) {
          return MatchRef(*f.value, u0, b, cont);
        }
        if (I_.IsGuard(um)) {
          std::vector<Oid> argv(f.args.size());
          return EnumArgValues(f.args, 0, &argv, b, [&]() -> Result<bool> {
            if (std::optional<Oid> r = I_.Scalar(um, u0, argv)) {
              return MatchRef(*f.value, *r, b, cont);
            }
            return true;
          });
        }
        const std::span<const uint32_t> idxs =
            I_.store().ScalarEntriesByRecv(um, u0);
        const ScalarEntryList entries = I_.store().ScalarEntries(um);
        for (uint32_t i : idxs) {
          const ScalarEntry& e = entries[i];
          if (e.args.size() != f.args.size()) continue;
          DeltaGuard guard(this, e.gen);
          Result<bool> r =
              MatchArgs(f.args, e.args, 0, b, [&]() -> Result<bool> {
                return MatchRef(*f.value, e.value, b, cont);
              });
          if (!r.ok() || !*r) return r;
        }
        return true;
      }
      case FilterKind::kSetRef: {
        // Active-domain semantics: the specified set must be ground
        // here and non-empty; stratification guarantees the producing
        // methods are complete (engine/stratify).
        if (!AllVarsBound(*f.value, *b)) {
          return Status(UnsafeRule(StrCat(
              "the result of a `->>` filter must be ground when checked; ",
              ToString(*f.value),
              " has unbound variables (reorder the rule body)")));
        }
        Result<std::vector<Oid>> spec = EvalGround(*f.value, b);
        if (!spec.ok()) return spec.status();
        if (spec->empty()) return true;  // no witness: filter fails
        const std::span<const uint32_t> idxs = I_.store().SetGroupsByRecv(um, u0);
        const SetGroupList groups = I_.store().SetGroups(um);
        for (uint32_t i : idxs) {
          const SetGroup& g = groups[i];
          if (g.args.size() != f.args.size()) continue;
          Result<bool> r =
              MatchArgs(f.args, g.args, 0, b, [&]() -> Result<bool> {
                uint64_t newest = 0;
                for (Oid s : *spec) {
                  uint64_t mg = g.MemberGen(s);
                  if (mg == UINT64_MAX) return true;  // not a subset
                  newest = std::max(newest, mg);
                }
                // The subset test consumed |spec| membership facts; the
                // newest one decides delta-ness.
                DeltaGuard guard(this, newest);
                return cont();
              });
          if (!r.ok() || !*r) return r;
        }
        return true;
      }
      case FilterKind::kSetEnum: {
        const std::span<const uint32_t> idxs = I_.store().SetGroupsByRecv(um, u0);
        const SetGroupList groups = I_.store().SetGroups(um);
        for (uint32_t i : idxs) {
          const SetGroup& g = groups[i];
          if (g.args.size() != f.args.size()) continue;
          Result<bool> r =
              MatchArgs(f.args, g.args, 0, b, [&]() -> Result<bool> {
                return MatchSetElems(f.elems, 0, g, b, cont);
              });
          if (!r.ok() || !*r) return r;
        }
        return true;
      }
      case FilterKind::kClass:
        break;  // unreachable
    }
    return Status(Internal("CheckFilter: unreachable"));
  });
}

Result<bool> RefEvaluator::MatchSetElems(const std::vector<RefPtr>& elems,
                                         size_t i, const SetGroup& group,
                                         Bindings* b, const Cont& cont) {
  if (i == elems.size()) return cont();
  const Ref& e = Deref(*elems[i]);

  // Fast path: the element resolves to one known object — a direct
  // membership probe instead of a member scan.
  std::optional<Oid> known;
  if (e.kind == RefKind::kName) {
    known = I_.FindName(e);
    if (!known) return true;  // name denotes nothing here
  } else if (e.kind == RefKind::kVar) {
    known = b->Get(e.text);
  }
  if (known) {
    uint64_t gen = group.MemberGen(*known);
    if (gen == UINT64_MAX) return true;  // not a member
    DeltaGuard guard(this, gen);
    return MatchSetElems(elems, i + 1, group, b, cont);
  }

  // General case: drive from the group's members and match the element
  // pattern against each — MatchRef pushes the member through molecule
  // patterns like {Y:automobile[cylinders->4]} in O(filters), not
  // O(extent).
  for (size_t m = 0; m < group.members.size(); ++m) {
    DeltaGuard guard(this, group.member_gens[m]);
    Result<bool> r =
        MatchRef(*elems[i], group.members[m], b, [&]() -> Result<bool> {
          return MatchSetElems(elems, i + 1, group, b, cont);
        });
    if (!r.ok() || !*r) return r;
  }
  return true;
}

}  // namespace pathlog
