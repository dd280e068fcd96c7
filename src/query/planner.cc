#include "query/planner.h"

#include <algorithm>
#include <map>

#include "ast/analysis.h"
#include "ast/printer.h"
#include "base/strings.h"
#include "eval/engine.h"
#include "semantics/structure.h"

namespace pathlog {

namespace {

const Ref& Deref(const Ref& t) {
  const Ref* p = &t;
  while (p->kind == RefKind::kParen) p = p->base.get();
  return *p;
}

std::optional<Oid> ResolveName(const Ref& t, const ObjectStore& store) {
  switch (t.name_kind) {
    case NameKind::kSymbol:
      return store.FindSymbol(t.text);
    case NameKind::kInt:
      return store.FindInt(t.int_value);
    case NameKind::kString:
      return store.FindString(t.text);
  }
  return std::nullopt;
}

/// True when the analyses proved the method at `m` holds no tuples.
bool HintedEmpty(const PlannerHints* hints, const Ref& m) {
  if (hints == nullptr) return false;
  const Ref& d = Deref(m);
  return d.kind == RefKind::kName && d.name_kind == NameKind::kSymbol &&
         hints->empty_methods.count(d.text) > 0;
}

/// Cardinality the evaluator's molecule driver would enumerate for an
/// unbound-variable base with these filters.
double DriverCardinality(const std::vector<Filter>& filters,
                         const std::set<std::string>& bound,
                         const ObjectStore& store, const PlannerHints* hints) {
  auto resolvable = [&](const RefPtr& m) -> std::optional<Oid> {
    const Ref& d = Deref(*m);
    if (d.kind == RefKind::kName) return ResolveName(d, store);
    if (d.kind == RefKind::kVar && bound.count(d.text)) {
      // Bound at runtime, unknown here; assume a typical method.
      return std::nullopt;
    }
    return std::nullopt;
  };
  auto runtime_bound = [&](const RefPtr& m) {
    const Ref& d = Deref(*m);
    return d.kind == RefKind::kVar && bound.count(d.text) > 0;
  };
  // Mirror ref_eval's driver: the cheapest candidate set any filter
  // can supply, with the universe as the fallback.
  double best = static_cast<double>(store.UniverseSize());
  auto consider = [&](double c) { best = std::min(best, c); };
  for (const Filter& f : filters) {
    if (f.kind == FilterKind::kClass) {
      if (std::optional<Oid> c = resolvable(f.value)) {
        consider(static_cast<double>(store.Members(*c).size()));
      }
      continue;
    }
    if (HintedEmpty(hints, *f.method)) {
      // Provably empty: the driver enumerates nothing.
      consider(0.0);
      continue;
    }
    std::optional<Oid> m = resolvable(f.method);
    if (!m) continue;
    // Built-ins (self, guards) have no extent to drive from.
    if (store.kind(*m) == ObjectKind::kSymbol &&
        IsBuiltinMethodName(store.DisplayName(*m))) {
      continue;
    }
    if (f.kind == FilterKind::kScalar) {
      if (std::optional<Oid> v = resolvable(f.value)) {
        // Inverted value→receiver probe: the bucket is the driver.
        consider(static_cast<double>(store.ScalarEntriesByValue(*m, *v).size()));
      } else if (runtime_bound(f.value)) {
        // The value is bound at runtime but unknown here: cost the
        // bucket the probe might hit. The heavy hitters are priced in
        // so one hot value cannot make this path look cheaper than a
        // smaller guaranteed extent.
        consider(SkewAwareBucketEstimate(store.ScalarValueStats(*m)));
      } else {
        consider(static_cast<double>(store.ScalarEntries(*m).size()));
      }
    } else {
      if (f.kind == FilterKind::kSetEnum) {
        for (const RefPtr& e : f.elems) {
          if (std::optional<Oid> v = resolvable(e)) {
            // Inverted member→receiver probe.
            consider(
                static_cast<double>(store.SetGroupsByMember(*m, *v).size()));
          } else if (runtime_bound(e)) {
            // A member bound at runtime probes one member bucket, the
            // exact mirror of the scalar case above.
            consider(SkewAwareBucketEstimate(store.SetMemberStats(*m)));
          }
        }
      }
      consider(static_cast<double>(store.SetGroups(*m).size()));
    }
  }
  return best;
}

/// Cost of evaluating `t`'s anchor (its leftmost primary) and walking
/// outward.
double AnchorCost(const Ref& t, const std::set<std::string>& bound,
                  const ObjectStore& store, const PlannerHints* hints) {
  const Ref& d = Deref(t);
  switch (d.kind) {
    case RefKind::kName:
      return 1.0;
    case RefKind::kVar:
      return bound.count(d.text)
                 ? 1.0
                 : static_cast<double>(store.UniverseSize());
    case RefKind::kPath: {
      // A path over an unbound variable is driven by the method extent.
      const Ref& base = Deref(*d.base);
      if (base.kind == RefKind::kVar && !bound.count(base.text)) {
        if (HintedEmpty(hints, *d.method)) return 0.0;
        const Ref& m = Deref(*d.method);
        if (m.kind == RefKind::kName) {
          if (std::optional<Oid> mo = ResolveName(m, store)) {
            return static_cast<double>(
                d.set_valued_path ? store.SetGroups(*mo).size()
                                  : store.ScalarEntries(*mo).size());
          }
          return 1.0;  // unknown method: nothing stored, nothing scanned
        }
        return static_cast<double>(store.UniverseSize());
      }
      return AnchorCost(*d.base, bound, store, hints) + 1.0;
    }
    case RefKind::kMolecule: {
      const Ref& base = Deref(*d.base);
      if (base.kind == RefKind::kVar && !bound.count(base.text)) {
        return DriverCardinality(d.filters, bound, store, hints);
      }
      return AnchorCost(*d.base, bound, store, hints) + 1.0;
    }
    case RefKind::kParen:
      break;  // stripped above
  }
  return static_cast<double>(store.UniverseSize());
}

}  // namespace

double EstimateLiteralCost(const Ref& t, const std::set<std::string>& bound,
                           const ObjectStore& store,
                           const PlannerHints* hints) {
  return AnchorCost(t, bound, store, hints);
}

Status PlanConjunction(std::vector<Literal>* body, const ObjectStore& store,
                       std::vector<std::string>* cost_log,
                       std::vector<double>* estimates,
                       const PlannerHints* hints) {
  std::vector<Literal> remaining = std::move(*body);
  std::vector<Literal> ordered;
  std::set<std::string> bound;

  std::map<std::string, int> occurrences;
  for (const Literal& lit : remaining) {
    for (const std::string& v : VarsOf(*lit.ref)) ++occurrences[v];
  }
  auto admissible = [&](const Literal& lit) {
    std::set<std::string> need;
    if (lit.negated) {
      for (const std::string& v : VarsOf(*lit.ref)) {
        if (occurrences[v] > 1) need.insert(v);
      }
    } else {
      need = SetRefValueVars(*lit.ref);
    }
    for (const std::string& v : need) {
      if (!bound.count(v)) return false;
    }
    return true;
  };

  while (!remaining.empty()) {
    double best_cost = 0;
    size_t best = remaining.size();
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (!admissible(remaining[i])) continue;
      // Negated literals are pure tests: defer them until every
      // positive literal of equal or lower cost has bound variables.
      double cost =
          EstimateLiteralCost(*remaining[i].ref, bound, store, hints) +
          (remaining[i].negated ? 0.5 : 0.0);
      if (best == remaining.size() || cost < best_cost) {
        best = i;
        best_cost = cost;
      }
    }
    if (best == remaining.size()) {
      return UnsafeRule(
          "cannot order the conjunction: a negated literal or `->>` filter "
          "result needs variables no earlier literal can bind");
    }
    if (cost_log != nullptr) {
      cost_log->push_back(StrCat(ToString(remaining[best]),
                                 "   (estimated driver cardinality ",
                                 best_cost, ")"));
    }
    if (estimates != nullptr) {
      // The raw anchor estimate, without the negation tie-break nudge.
      estimates->push_back(best_cost - (remaining[best].negated ? 0.5 : 0.0));
    }
    if (!remaining[best].negated) {
      for (const std::string& v : VarsOf(*remaining[best].ref)) {
        bound.insert(v);
      }
    }
    ordered.push_back(std::move(remaining[best]));
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(best));
  }
  *body = std::move(ordered);
  return Status::OK();
}

}  // namespace pathlog
