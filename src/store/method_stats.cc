#include "store/method_stats.h"

#include <algorithm>

namespace pathlog {

namespace {

/// Ordering of the heavy list: count descending, then oid ascending.
/// The list invariant is "the k maximal buckets under this order",
/// which makes the retained set a pure function of the bucket sizes.
bool HeavierThan(const HeavyBucket& a, const HeavyBucket& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.value < b.value;
}

}  // namespace

void MethodStats::Update(Oid value, uint64_t new_count, bool is_new_value,
                         uint64_t gen) {
  ++total;
  if (is_new_value) ++distinct;
  last_gen = gen;

  for (HeavyBucket& h : heavy) {
    if (h.value == value) {
      h.count = new_count;
      std::sort(heavy.begin(), heavy.end(), HeavierThan);
      return;
    }
  }
  Admit({value, new_count});
}

void MethodStats::AddBucket(Oid value, uint64_t count) {
  total += count;
  ++distinct;
  Admit({value, count});
}

void MethodStats::Admit(HeavyBucket cand) {
  if (heavy.size() < kStatsTopK) {
    heavy.push_back(cand);
    std::sort(heavy.begin(), heavy.end(), HeavierThan);
    return;
  }
  // Full: admit only past the current minimum (heavy is sorted, so the
  // minimum under the order is the last element). Because cand.count
  // is the value's *true* bucket size, an evicted value re-enters intact
  // the moment it outgrows the floor, keeping the top-k exact.
  if (HeavierThan(cand, heavy.back())) {
    heavy.back() = cand;
    std::sort(heavy.begin(), heavy.end(), HeavierThan);
  }
}

uint64_t MethodStats::HeavyMass() const {
  uint64_t mass = 0;
  for (const HeavyBucket& h : heavy) mass += h.count;
  return mass;
}

double AverageBucketEstimate(const MethodStats& s) {
  if (s.distinct == 0) return 0.0;
  return static_cast<double>(s.total) / static_cast<double>(s.distinct);
}

double SkewAwareBucketEstimate(const MethodStats& s) {
  if (s.distinct == 0) return 0.0;
  if (s.heavy.empty()) return AverageBucketEstimate(s);
  // Upper quantile by index over the (small, sorted-descending) heavy
  // list: with n retained buckets, index ceil(0.9 * (n - 1)) from the
  // *smallest* — for n <= 10 that is the largest bucket, i.e. a probe
  // is costed at the hot bucket it might hit.
  const size_t n = s.heavy.size();
  const size_t from_smallest = (9 * (n - 1) + 9) / 10;  // ceil(0.9*(n-1))
  const double quantile =
      static_cast<double>(s.heavy[n - 1 - from_smallest].count);
  // Residual mass: everything the sketch does not explain, averaged.
  // This is the floor, not the headline — with the whole distribution
  // inside the sketch it is zero.
  const uint64_t residual_buckets = s.distinct - n;
  const double residual_avg =
      residual_buckets == 0
          ? 0.0
          : static_cast<double>(s.total - s.HeavyMass()) /
                static_cast<double>(residual_buckets);
  return std::max(quantile, residual_avg);
}

}  // namespace pathlog
