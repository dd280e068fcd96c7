#include "query/planner.h"

#include <algorithm>

#include "ast/printer.h"
#include "base/strings.h"
#include "eval/engine.h"
#include "semantics/structure.h"

namespace pathlog {

namespace {

struct SiteEstimate {
  double rows = 0;
  SiteRoute route = SiteRoute::kTest;
  /// Methods an unbound method variable ranges over (0: none needed).
  double methods = 0;
};

class SitePlanner {
 public:
  SitePlanner(const SiteProgram& p, const ObjectStore& store,
              const SitePlanOptions& o)
      : p_(p),
        store_(store),
        o_(o),
        universe_(static_cast<double>(store.UniverseSize())) {}

  /// Whether `s` can run next, given the bound slots and the sites
  /// [first, end) still to place.
  bool Admissible(const Site& s, const std::vector<char>& bound,
                  const std::vector<Site>& sites, size_t first) const {
    // A method variable that another site can bind waits for it; only
    // one that occurs at method positions alone ranges over the named
    // methods (RefEvaluator::EnumMethod), so a variable bound to `self`
    // or an anonymous method object keeps that value.
    auto method_ready = [&] {
      return bound[s.method] ||
             (s.method_var && !BoundElsewhere(s.method, sites, first));
    };
    switch (s.kind) {
      case SiteKind::kIsa:
        return bound[s.recv] || bound[s.method];
      case SiteKind::kScalar:
      case SiteKind::kMember:
        return method_ready();
      case SiteKind::kSubset:
        return method_ready() && ReadsBound(s, bound);
      case SiteKind::kGuard:
        return bound[s.recv] &&
               std::all_of(s.args.begin(), s.args.end(),
                           [&](uint32_t a) { return bound[a] != 0; });
      case SiteKind::kNegation:
        return ReadsBound(s, bound);
      case SiteKind::kMethods:
      case SiteKind::kUniverse:
        return true;
    }
    return false;
  }

  /// How `s` reaches the store: a function of its bound operands.
  SiteRoute Route(const Site& s, const std::vector<char>& bound) const {
    const bool rb = s.recv != kNoSlot && bound[s.recv] != 0;
    switch (s.kind) {
      case SiteKind::kIsa:
        return rb && bound[s.method] ? SiteRoute::kTest
               : rb                  ? SiteRoute::kReceiverProbe
                                     : SiteRoute::kClassExtent;
      case SiteKind::kScalar:
      case SiteKind::kMember:
      case SiteKind::kSubset: {
        const bool vb = s.value != kNoSlot && bound[s.value] != 0;
        return rb && (vb || s.kind == SiteKind::kSubset) ? SiteRoute::kTest
               : rb ? SiteRoute::kReceiverProbe
               : vb && o_.use_inverted_indexes ? SiteRoute::kInverted
                                               : SiteRoute::kExtent;
      }
      case SiteKind::kGuard:
      case SiteKind::kNegation:
        return SiteRoute::kTest;
      case SiteKind::kMethods:
      case SiteKind::kUniverse:
        break;
    }
    return SiteRoute::kUniverse;
  }

  /// The rows `s` yields per input binding on `route`.
  SiteEstimate Estimate(const Site& s, SiteRoute route,
                        const std::vector<char>& bound) const {
    SiteEstimate e;
    e.route = route;
    switch (s.kind) {
      case SiteKind::kIsa: {
        const std::optional<Oid> c = Const(s.method);
        if (route == SiteRoute::kTest) {
          e.rows = c ? Members(*c) / std::max(universe_, 1.0) : 0.5;
        } else if (route == SiteRoute::kReceiverProbe) {
          // The ancestors of one object: a shallow hierarchy's depth.
          e.rows = 2;
        } else {
          e.rows = c ? Members(*c) : universe_;
        }
        break;
      }
      case SiteKind::kScalar:
      case SiteKind::kMember:
      case SiteKind::kSubset: {
        const bool vb = s.value != kNoSlot && bound[s.value] != 0;
        if (bound[s.method]) {
          e.rows = Rows(s, route, Const(s.method), vb);
          break;
        }
        // An unbound method variable: the sum over the methods it
        // ranges over.
        for (Oid m : s.kind == SiteKind::kScalar ? store_.ScalarMethods()
                                                 : store_.SetMethods()) {
          if (store_.kind(m) == ObjectKind::kAnonymous) continue;
          e.rows += Rows(s, route, m, vb);
          e.methods += 1;
        }
        break;
      }
      case SiteKind::kGuard:
        e.rows = 0.5;
        break;
      case SiteKind::kNegation:
        // A whole-reference test; it runs a RefEvaluator call, so it
        // waits behind the cheaper tests.
        e.rows = 1;
        break;
      case SiteKind::kMethods:
      case SiteKind::kUniverse:
        e.rows = universe_;
        break;
    }
    if (Empty(s)) e.rows = 0;
    return e;
  }

  /// The slot a universe site should bind when nothing is admissible:
  /// the first unbound operand of the first blocked site.
  uint32_t UniverseSlot(const std::vector<Site>& sites, size_t first,
                        const std::vector<char>& bound) const {
    for (size_t i = first; i < sites.size(); ++i) {
      const Site& s = sites[i];
      std::vector<uint32_t> ops;
      switch (s.kind) {
        case SiteKind::kIsa:
          ops = {s.recv};
          break;
        case SiteKind::kGuard:
          ops.push_back(s.recv);
          ops.insert(ops.end(), s.args.begin(), s.args.end());
          break;
        case SiteKind::kScalar:
        case SiteKind::kMember:
          ops = {s.method};
          break;
        case SiteKind::kSubset:
        case SiteKind::kNegation:
          for (const auto& [name, slot] : s.reads) ops.push_back(slot);
          if (s.kind == SiteKind::kSubset) ops.push_back(s.method);
          break;
        case SiteKind::kMethods:
        case SiteKind::kUniverse:
          break;
      }
      for (uint32_t slot : ops) {
        if (slot != kNoSlot && !bound[slot]) return slot;
      }
    }
    return kNoSlot;
  }

  double universe() const { return universe_; }

 private:
  std::optional<Oid> Const(uint32_t slot) const {
    const Slot& s = p_.slots[slot];
    if (!s.constant) return std::nullopt;
    return s.value;
  }

  double Members(Oid c) const {
    return static_cast<double>(store_.Members(c).size());
  }

  /// True when a site in [first, end) binds `slot` outside a method
  /// position.
  static bool BoundElsewhere(uint32_t slot, const std::vector<Site>& sites,
                             size_t first) {
    for (size_t i = first; i < sites.size(); ++i) {
      const Site& o = sites[i];
      switch (o.kind) {
        case SiteKind::kIsa:
          if (o.recv == slot || o.method == slot) return true;
          break;
        case SiteKind::kScalar:
        case SiteKind::kMember:
        case SiteKind::kSubset:
          if (o.recv == slot || o.value == slot ||
              std::find(o.args.begin(), o.args.end(), slot) != o.args.end()) {
            return true;
          }
          break;
        default:
          break;
      }
    }
    return false;
  }

  bool ReadsBound(const Site& s, const std::vector<char>& bound) const {
    return std::all_of(s.reads.begin(), s.reads.end(), [&](const auto& r) {
      return r.second != kNoSlot && bound[r.second] != 0;
    });
  }

  /// A name the store lacks makes its site empty.
  bool Empty(const Site& s) const {
    auto missing = [&](uint32_t slot) {
      return slot != kNoSlot && p_.slots[slot].constant &&
             p_.slots[slot].value == kNilOid;
    };
    return missing(s.recv) || missing(s.method) || missing(s.value) ||
           std::any_of(s.args.begin(), s.args.end(), missing);
  }

  /// One method's rows on `route`; `m` unset: a method known only at
  /// run time.
  double Rows(const Site& s, SiteRoute route, std::optional<Oid> m,
              bool vb) const {
    if (!m || *m == kNilOid) {
      return route == SiteRoute::kTest     ? 0.5
             : route == SiteRoute::kExtent ? universe_
                                           : 1;
    }
    const std::optional<Oid> v =
        s.value != kNoSlot ? Const(s.value) : std::nullopt;
    if (s.kind == SiteKind::kScalar) {
      const double extent =
          static_cast<double>(store_.ScalarEntries(*m).size());
      const double bucket =
          !vb ? 0
          : v ? static_cast<double>(store_.ScalarEntriesByValue(*m, *v).size())
              : SkewAwareBucketEstimate(store_.ScalarValueStats(*m));
      switch (route) {
        case SiteRoute::kTest:
          return extent > 0 ? std::min(1.0, bucket / extent) : 0;
        case SiteRoute::kReceiverProbe:
          return std::min(1.0, extent);
        case SiteRoute::kInverted:
          return bucket;
        default:
          return extent;
      }
    }
    const double groups = static_cast<double>(store_.SetGroups(*m).size());
    if (s.kind == SiteKind::kSubset) {
      return route == SiteRoute::kTest ? std::min(1.0, groups) : groups;
    }
    const double members =
        static_cast<double>(store_.SetMemberStats(*m).total);
    const double bucket =
        !vb ? 0
        : v ? static_cast<double>(store_.SetGroupsByMember(*m, *v).size())
            : SkewAwareBucketEstimate(store_.SetMemberStats(*m));
    switch (route) {
      case SiteRoute::kTest:
        return groups > 0 ? std::min(1.0, bucket / groups) : 0;
      case SiteRoute::kReceiverProbe:
        return groups > 0 ? members / groups : 0;
      case SiteRoute::kInverted:
        return bucket;
      default:
        return members;
    }
  }

  const SiteProgram& p_;
  const ObjectStore& store_;
  const SitePlanOptions& o_;
  const double universe_;
};

/// Marks the slots `site` binds and returns its output-operand mask, in
/// the operand order the executor binds them.
uint64_t BindOutputs(const Site& site, std::vector<char>* bound) {
  uint64_t out = 0;
  auto op = [&](size_t i, uint32_t slot) {
    if (slot == kNoSlot || (*bound)[slot]) return;
    out |= uint64_t{1} << i;
    (*bound)[slot] = 1;
  };
  switch (site.kind) {
    case SiteKind::kIsa:
      op(0, site.recv);
      op(1, site.method);
      break;
    case SiteKind::kScalar:
    case SiteKind::kMember:
    case SiteKind::kSubset:
      op(0, site.recv);
      for (size_t i = 0; i < site.args.size(); ++i) op(i + 1, site.args[i]);
      op(site.args.size() + 1, site.value);
      break;
    case SiteKind::kMethods:
      op(0, site.method);
      break;
    case SiteKind::kUniverse:
      op(0, site.recv);
      break;
    case SiteKind::kGuard:
    case SiteKind::kNegation:
      break;
  }
  return out;
}

Status Unsafe() {
  return UnsafeRule(
      "cannot order the conjunction: a negated literal or `->>` filter "
      "result needs variables no earlier literal can bind");
}

}  // namespace

Status PlanSites(SiteProgram* program, const ObjectStore& store,
                 const SitePlanOptions& options) {
  SiteProgram& p = *program;
  for (const Site& s : p.sites) {
    for (const auto& [name, slot] : s.reads) {
      if (slot == kNoSlot) return Unsafe();
    }
  }
  std::vector<char> bound(p.slots.size(), 0);
  for (size_t i = 0; i < p.slots.size(); ++i) bound[i] = p.slots[i].constant;
  if (options.bound != nullptr) {
    for (const auto& [name, slot] : p.vars) {
      if (options.bound->count(std::string(name)) > 0) bound[slot] = 1;
    }
  }
  const SitePlanner planner(p, store, options);
  // Sites [0, next) are planned; the rest keep their source order.
  std::vector<Site>& sites = p.sites;
  size_t next = 0;
  auto place = [&](Site site) {
    site.outputs = BindOutputs(site, &bound);
    sites.insert(sites.begin() + static_cast<ptrdiff_t>(next++),
                 std::move(site));
  };
  auto universe_site = [&](uint32_t slot) {
    Site u;
    u.kind = SiteKind::kUniverse;
    u.recv = slot;
    u.route = SiteRoute::kUniverse;
    u.estimate = planner.universe();
    place(std::move(u));
  };
  while (next < sites.size()) {
    size_t admissible = 0, pick = sites.size();
    for (size_t i = next; i < sites.size(); ++i) {
      if (!planner.Admissible(sites[i], bound, sites, next)) continue;
      if (admissible++ == 0) pick = i;
    }
    SiteEstimate best;
    if (admissible == 1 && !options.price_every_site) {
      // Nothing to choose between: route the site, skip the pricing.
      best.route = planner.Route(sites[pick], bound);
    } else {
      pick = sites.size();
      for (size_t i = next; i < sites.size(); ++i) {
        if (!planner.Admissible(sites[i], bound, sites, next)) continue;
        const SiteEstimate e =
            planner.Estimate(sites[i], planner.Route(sites[i], bound), bound);
        if (pick == sites.size() || e.rows < best.rows) {
          pick = i;
          best = e;
        }
      }
    }
    if (pick == sites.size()) {
      const uint32_t slot = planner.UniverseSlot(sites, next, bound);
      if (slot == kNoSlot) return Unsafe();
      universe_site(slot);
      continue;
    }
    Site site = std::move(sites[pick]);
    sites.erase(sites.begin() + static_cast<ptrdiff_t>(pick));
    site.route = best.route;
    site.estimate = best.rows;
    const bool data_site = site.kind == SiteKind::kScalar ||
                           site.kind == SiteKind::kMember ||
                           site.kind == SiteKind::kSubset;
    if (data_site && !bound[site.method]) {
      Site methods;
      methods.kind = SiteKind::kMethods;
      methods.method = site.method;
      methods.set_flavor = site.kind != SiteKind::kScalar;
      methods.route = SiteRoute::kExtent;
      methods.estimate = best.methods;
      place(std::move(methods));
      site.estimate = best.methods > 0 ? best.rows / best.methods : 0;
    }
    place(std::move(site));
  }
  // A variable no site binds ranges over the universe.
  for (const auto& [name, slot] : p.vars) {
    if (!bound[slot]) universe_site(slot);
  }
  if (p.denoted != kNoSlot && !bound[p.denoted]) universe_site(p.denoted);
  return Status::OK();
}

double EstimateLiteralCost(const Ref& t, const std::set<std::string>& bound,
                           const ObjectStore& store) {
  // A non-owning handle: the program only points into `t`.
  const std::vector<Literal> body = {Literal{RefPtr(RefPtr(), &t), false}};
  const SemanticStructure I(store);
  SiteProgram program = CompileSites(body, I);
  SitePlanOptions options;
  options.bound = &bound;
  if (!PlanSites(&program, store, options).ok()) return store.UniverseSize();
  double rows = 1, work = 0;
  for (const Site& s : program.sites) {
    rows *= s.estimate;
    work += rows;
  }
  return work;
}

Status PlanConjunction(std::vector<Literal>* body, const ObjectStore& store,
                       std::vector<std::string>* cost_log,
                       std::vector<double>* estimates) {
  // The safety loop, picking the cheapest admissible literal. Negated
  // literals are pure tests: the 0.5 nudge defers them until every
  // positive literal of equal or lower cost has bound variables.
  constexpr double kNegationNudge = 0.5;
  std::vector<double> costs;
  const bool report = cost_log != nullptr || estimates != nullptr;
  PATHLOG_RETURN_IF_ERROR(OrderLiteralsForSafety(
      body, nullptr,
      [&store](const Literal& lit, const std::set<std::string>& bound) {
        return EstimateLiteralCost(*lit.ref, bound, store) +
               (lit.negated ? kNegationNudge : 0.0);
      },
      report ? &costs : nullptr));
  for (size_t i = 0; report && i < body->size(); ++i) {
    const Literal& lit = (*body)[i];
    if (cost_log != nullptr) {
      cost_log->push_back(
          StrCat(ToString(lit), "   (estimated rows ", costs[i], ")"));
    }
    // The raw estimate, without the nudge.
    if (estimates != nullptr) {
      estimates->push_back(costs[i] - (lit.negated ? kNegationNudge : 0.0));
    }
  }
  return Status::OK();
}

}  // namespace pathlog
