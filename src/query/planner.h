// Cost-based ordering of conjunctions.
//
// The evaluator binds variables left-to-right, so literal order
// dominates query cost: a literal whose anchor is bound (or driven by
// a small extent) should run before one that would scan. The planner
// orders greedily by estimated driver cardinality in the one ordering
// loop, OrderLiteralsForSafety (negated literals and `->>` filter
// results after their variables are bound): it picks the cheapest
// admissible literal where the safety order picks the first.

#ifndef PATHLOG_QUERY_PLANNER_H_
#define PATHLOG_QUERY_PLANNER_H_

#include <set>
#include <string>
#include <vector>

#include "ast/program.h"
#include "base/result.h"
#include "store/object_store.h"

namespace pathlog {

/// Facts the semantic analyses (lint/dataflow/analyses.h) proved about
/// the installed program, consulted by the planner when provided.
/// Optional everywhere: a null hints pointer keeps the estimates
/// purely statistical.
struct PlannerHints {
  /// Methods that provably never hold a tuple under any evaluation
  /// strategy (AnalysisSummary::empty_methods). A literal driven by
  /// one enumerates nothing, so it costs nothing and short-circuits
  /// its conjunction.
  std::set<std::string> empty_methods;
};

/// Estimated number of candidate bindings the evaluator must try for
/// `t` given the already-bound variables: 1 for a bound anchor, the
/// extent/entry count for an index-driven anchor, the universe size
/// for an undriven variable. A filter target bound only at runtime is
/// priced from the store's skew-aware statistics
/// (store/method_stats.h: SkewAwareBucketEstimate).
double EstimateLiteralCost(const Ref& t, const std::set<std::string>& bound,
                           const ObjectStore& store,
                           const PlannerHints* hints = nullptr);

/// Reorders `body` greedily by cost subject to safety. On success the
/// body is in execution order; kUnsafeRule when no safe order exists.
/// If `cost_log` is non-null it receives one line per literal with the
/// estimate used (for ExplainQuery). If `estimates` is non-null it
/// receives the raw per-literal estimates, aligned with the final body
/// order (for the profiler's estimate-vs-actual record).
Status PlanConjunction(std::vector<Literal>* body, const ObjectStore& store,
                       std::vector<std::string>* cost_log = nullptr,
                       std::vector<double>* estimates = nullptr,
                       const PlannerHints* hints = nullptr);

}  // namespace pathlog

#endif  // PATHLOG_QUERY_PLANNER_H_
