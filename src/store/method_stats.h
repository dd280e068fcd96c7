// Per-method inverted-index statistics for the cost planner.
//
// The inverted value→receiver / member→group indexes (object_store.h)
// give the planner exact bucket sizes when a filter target is a
// constant, but a target bound only at *runtime* used to be estimated
// with the average bucket (entries / distinct values) — blind to skew,
// so one hot value misranked whole plans (the old PlannerSkewTest
// pinned exactly that). MethodStats closes the gap: alongside each
// inverted index the store maintains total/distinct counters plus the
// exact top-k heavy-hitter buckets (value → count), incrementally on
// every mutation and therefore rebuilt for free when snapshot/WAL
// replay re-runs the mutators.
//
// The heavy-hitter set is *exact* top-k, not a probabilistic sketch:
// every update passes the value's true bucket size (the inverted index
// has it in O(1)), so a value re-enters with its real count whenever
// it grows past the current minimum. The retained set is the k maximal
// buckets by (count desc, oid asc) — a pure function of the bucket-size
// multiset, independent of insertion order (ties keep the smaller oid).

#ifndef PATHLOG_STORE_METHOD_STATS_H_
#define PATHLOG_STORE_METHOD_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "store/oid.h"

namespace pathlog {

/// How many heavy-hitter buckets each method's stats retain. Eight
/// covers any realistic skew head while keeping the per-update scan
/// trivially cheap (the sketch is a tiny unsorted array).
inline constexpr size_t kStatsTopK = 8;

/// One heavy-hitter bucket: `count` facts share this value/member.
struct HeavyBucket {
  Oid value;
  uint64_t count;

  friend bool operator==(const HeavyBucket& a, const HeavyBucket& b) {
    return a.value == b.value && a.count == b.count;
  }
};

/// Incrementally-maintained statistics over one method's inverted
/// index: exact totals plus the exact top-k heavy hitters.
struct MethodStats {
  /// Total facts indexed (scalar entries / set membership facts).
  uint64_t total = 0;
  /// Distinct values (the inverted index's bucket count).
  uint64_t distinct = 0;
  /// Generation of the last fact that updated these stats; UINT64_MAX
  /// until the first update. Snapshot/WAL replay re-runs the mutators,
  /// so a rebuilt store reproduces the same stamp.
  uint64_t last_gen = UINT64_MAX;
  /// The k largest buckets, count descending (ties: smaller oid
  /// first). Exact: see the file comment.
  std::vector<HeavyBucket> heavy;

  /// Records that `value`'s bucket grew to `new_count` (its exact size
  /// after the insert) by the fact with generation `gen`. `is_new_value`
  /// is true when this is the bucket's first entry.
  void Update(Oid value, uint64_t new_count, bool is_new_value, uint64_t gen);

  /// Sum of the heavy-hitter counts (the mass the sketch explains).
  uint64_t HeavyMass() const;

  friend bool operator==(const MethodStats& a, const MethodStats& b) {
    return a.total == b.total && a.distinct == b.distinct &&
           a.last_gen == b.last_gen && a.heavy == b.heavy;
  }
};

/// The average bucket, entries / distinct values: blind to skew, and
/// SkewAwareBucketEstimate's fallback when no heavy hitters exist.
double AverageBucketEstimate(const MethodStats& s);

/// The skew-aware estimate for a probe whose value is bound only at
/// runtime: the upper (90th-index) quantile of the top-k heavy-hitter
/// counts, floored by the average of the residual (non-heavy) mass.
/// With every bucket in the sketch this is simply the hot bucket; with
/// no stats at all it degrades to AverageBucketEstimate. Deliberately
/// pessimistic: the planner ranks access paths by worst plausible
/// enumeration, so a path through a possibly-hot bucket must not
/// undercut a smaller guaranteed extent.
double SkewAwareBucketEstimate(const MethodStats& s);

}  // namespace pathlog

#endif  // PATHLOG_STORE_METHOD_STATS_H_
