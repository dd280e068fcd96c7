#include "query/planner.h"

#include <algorithm>

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
  // The safety loop, picking the cheapest admissible literal. Negated
  // literals are pure tests: the 0.5 nudge defers them until every
  // positive literal of equal or lower cost has bound variables.
  constexpr double kNegationNudge = 0.5;
  std::vector<double> costs;
  const bool report = cost_log != nullptr || estimates != nullptr;
  PATHLOG_RETURN_IF_ERROR(OrderLiteralsForSafety(
      body, nullptr,
      [&store, hints](const Literal& lit, const std::set<std::string>& bound) {
        return EstimateLiteralCost(*lit.ref, bound, store, hints) +
               (lit.negated ? kNegationNudge : 0.0);
      },
      report ? &costs : nullptr));
  for (size_t i = 0; report && i < body->size(); ++i) {
    const Literal& lit = (*body)[i];
    if (cost_log != nullptr) {
      cost_log->push_back(StrCat(ToString(lit),
                                 "   (estimated driver cardinality ",
                                 costs[i], ")"));
    }
    // The raw anchor estimate, without the nudge.
    if (estimates != nullptr) {
      estimates->push_back(costs[i] - (lit.negated ? kNegationNudge : 0.0));
    }
  }
  return Status::OK();
}

}  // namespace pathlog
