// The one cost model for reads: greedy ordering of fact-access sites.
//
// A read is compiled into sites (eval/site_program.h). PlanSites
// orders them greedily, keeping the bound slots: each step picks the
// admissible site with the fewest estimated output rows per input
// binding; which of its operands are bound fixes its route. A site
// whose operands are all bound is a test, priced by its selectivity;
// a bound receiver yields at most one row on a scalar method and the
// average group on a set method; a bound value or member probes its
// inverted bucket (exact for a constant, skew-aware for a value bound
// only at run time); otherwise the site scans its method or class
// extent. When no site is admissible, a variable ranges over the
// universe.
//
// The literal-level entry points price a literal through the same
// sites: EstimateLiteralCost plans the literal's sites alone, and
// PlanConjunction orders literals by that estimate in the one ordering
// loop, OrderLiteralsForSafety (negated literals and `->>` filter
// results after their variables are bound). Nothing in the library
// calls PlanConjunction: rule bodies take the safety order. It stays
// for the benchmarks that replay a read's literal plan (perfbench's
// ReplicateRead, bench_planner) until they plan through PlanSites;
// cost-planned rule bodies will come back through PlanSites.

#ifndef PATHLOG_QUERY_PLANNER_H_
#define PATHLOG_QUERY_PLANNER_H_

#include <set>
#include <string>
#include <vector>

#include "ast/program.h"
#include "base/result.h"
#include "eval/site_program.h"
#include "store/object_store.h"

namespace pathlog {

struct SitePlanOptions {
  /// Variables bound before the program runs (for estimates only).
  const std::set<std::string>* bound = nullptr;
  /// Off, a site that is the only admissible one at its step is placed
  /// unpriced (estimate 0): a read needs estimates only to choose, and
  /// only ExplainQuery, the profiler and literal costs report them.
  bool price_every_site = true;
};

/// Orders `program`'s sites for execution, sets each site's route,
/// estimate and output operands, and adds the method-list and universe
/// sites the order needs. kUnsafeRule when a negated literal or a `->>`
/// filter result reads a variable no site can bind.
Status PlanSites(SiteProgram* program, const ObjectStore& store,
                 const SitePlanOptions& options = {});

/// The rows `t`'s planned sites produce per binding of `bound`, summed
/// over its sites: the literal's estimated work.
double EstimateLiteralCost(const Ref& t, const std::set<std::string>& bound,
                           const ObjectStore& store);

/// Reorders `body` greedily by cost subject to safety. On success the
/// body is in execution order; kUnsafeRule when no safe order exists.
/// If `cost_log` is non-null it receives one line per literal with the
/// estimate used. If `estimates` is non-null it receives the raw
/// per-literal estimates, aligned with the final body order.
Status PlanConjunction(std::vector<Literal>* body, const ObjectStore& store,
                       std::vector<std::string>* cost_log = nullptr,
                       std::vector<double>* estimates = nullptr);

}  // namespace pathlog

#endif  // PATHLOG_QUERY_PLANNER_H_
