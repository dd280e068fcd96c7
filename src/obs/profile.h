// The query/materialisation profiler: per-rule cumulative wall time
// and work counts, planner estimated-vs-actual cardinality per driver
// literal, and index-route totals.
//
// The engine records one row per rule *evaluation* (keyed by the
// rule's printed form, which is stable across Engine instances — the
// Database builds a fresh Engine per materialisation); the query
// front end records one row per planned driver literal. Recording is
// mutex-protected but happens per rule evaluation / per query, never
// per tuple, so the profiler adds no per-binding cost. Disabled is a
// null pointer at every instrumentation site.

#ifndef PATHLOG_OBS_PROFILE_H_
#define PATHLOG_OBS_PROFILE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace pathlog {

class Profiler {
 public:
  /// One rule's accumulated evaluation cost.
  struct RuleProfile {
    std::string rule;           ///< printed form (body in plan order)
    uint64_t evaluations = 0;   ///< body evaluations (full or delta)
    uint64_t delta_passes = 0;  ///< delta-restricted literal passes
    uint64_t derivations = 0;   ///< head instances asserted
    uint64_t wall_ns = 0;       ///< cumulative wall time in EvaluateRule
  };

  /// One planned driver literal's estimate-vs-actual record. `actual`
  /// is the number of solutions the literal produced across the
  /// queries that planned it and `invocations` how many outer binding
  /// tuples entered it, so actual / invocations is the observed
  /// per-probe cardinality — the quantity `estimated` (the planner's
  /// per-probe driver cardinality, summed per query) predicts. A
  /// literal that runs first in its plan has one invocation per query;
  /// a later literal is re-entered once per surviving outer tuple.
  struct LiteralProfile {
    std::string literal;        ///< printed form
    uint64_t queries = 0;       ///< times this literal was planned
    double estimated = 0;       ///< summed planner estimates
    uint64_t actual = 0;        ///< summed produced solution count
    uint64_t invocations = 0;   ///< summed outer tuples entering it

    /// Observed per-probe cardinality, the number `estimated` (divided
    /// by `queries`) should match: actual / invocations.
    double ActualPerInvocation() const {
      return invocations == 0
                 ? 0.0
                 : static_cast<double>(actual) /
                       static_cast<double>(invocations);
    }
  };

  /// How path matching and molecule driving reached the store.
  struct RouteTotals {
    uint64_t receiver_probes = 0;   ///< bound-receiver probes and tests
    uint64_t inverted_probes = 0;   ///< value→recv / member→recv buckets
    uint64_t extent_scans = 0;      ///< method-extent / class-extent scans
    uint64_t universe_scans = 0;    ///< undriven whole-universe scans
    uint64_t duplicates_suppressed = 0;  ///< dedup at the emit boundary
  };

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void RecordRuleEvaluation(std::string_view rule, uint64_t wall_ns,
                            uint64_t delta_passes, uint64_t derivations);
  void RecordDriverLiteral(std::string_view literal, double estimated,
                           uint64_t actual, uint64_t invocations = 1);
  void RecordRoutes(const RouteTotals& delta);

  /// Rules with nonzero evaluations, sorted by cumulative wall time,
  /// most expensive first (ties: more evaluations first, then name).
  std::vector<RuleProfile> RuleProfiles() const;
  /// Driver literals in lexicographic order.
  std::vector<LiteralProfile> LiteralProfiles() const;
  RouteTotals routes() const;

  /// Human-readable report: the rule table, route totals, and the
  /// estimate-vs-actual table. Empty sections are elided.
  std::string Report() const;

  void Reset();

 private:
  mutable Mutex mu_;
  std::map<std::string, RuleProfile, std::less<>> rules_ GUARDED_BY(mu_);
  std::map<std::string, LiteralProfile, std::less<>> literals_
      GUARDED_BY(mu_);
  RouteTotals routes_ GUARDED_BY(mu_);
};

}  // namespace pathlog

#endif  // PATHLOG_OBS_PROFILE_H_
