// MetricsRegistry: named counters, gauges, and fixed-bucket
// histograms with cheap thread-safe increments.
//
// Design constraints, in order:
//   1. Disabled must be one branch: every instrumentation site holds a
//      Counter*/Histogram* (or a MetricsRegistry* that may be null)
//      and does nothing when it is null. No locks, no lookups on the
//      hot path.
//   2. Increments are lock-free: counters and histogram buckets are
//      std::atomic with relaxed ordering (the exporters take a
//      snapshot; exact cross-metric consistency is not promised).
//   3. Registration is rare and takes a mutex; Get* returns a stable
//      pointer for the registry's lifetime, so callers cache it.
//
// Export formats:
//   ToJson()            {"counters":{...},"gauges":{...},
//                        "histograms":{name:{buckets,sum,count}}}
//   ToPrometheusText()  the Prometheus text exposition format
//                       (# HELP/# TYPE lines, histogram _bucket/_sum/
//                       _count samples with le labels).
// Both round-trip through the Parse* helpers below — the tests and CI
// gates rely on that.

#ifndef PATHLOG_OBS_METRICS_H_
#define PATHLOG_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/mutex.h"
#include "base/result.h"
#include "base/thread_annotations.h"

namespace pathlog {

class ResourceBudget;  // base/budget.h

/// A monotonically increasing count.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  // lock-free: a single relaxed atomic. Inc/value never block; readers
  // may observe a count that is mid-update relative to other metrics
  // (exporters snapshot, exact cross-metric consistency is not
  // promised).
  std::atomic<uint64_t> value_{0};
};

/// A value that can go up and down (object counts, watermarks).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  // lock-free: Set is one relaxed store; Add is a CAS loop over the
  // same atomic, so concurrent Adds never lose an increment.
  std::atomic<double> value_{0};
};

/// A fixed-bucket histogram: `bounds` are the inclusive upper bounds
/// of the finite buckets; one implicit +Inf bucket catches the rest.
/// Observe() is lock-free (binary search over the immutable bounds,
/// one atomic add, one CAS loop for the sum).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the +Inf bucket).
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t total_count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Interpolated quantile estimate over the fixed buckets, the same
  /// way Prometheus' histogram_quantile() computes it: find the bucket
  /// holding the q-th ranked observation and interpolate linearly
  /// inside it (lower edge = previous bound, or 0 for the first
  /// bucket). A rank landing in the +Inf bucket returns the highest
  /// finite bound. Returns 0 when the histogram is empty. `q` is
  /// clamped to [0, 1].
  double Quantile(double q) const;

 private:
  // lock-free: bounds_ is immutable after construction; each bucket,
  // the count, and the sum are independent relaxed atomics (the sum is
  // a CAS loop). A concurrent export may observe a bucket increment
  // before the matching count/sum update — each series is individually
  // exact once writers quiesce, which is what the TSan hammer test
  // asserts (exported count == sum of per-thread observations).
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// Default histogram bounds for durations in milliseconds: sub-ms to
/// minutes in roughly 4x steps.
std::vector<double> DefaultLatencyBoundsMs();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named metric. The returned pointer is valid
  /// for the registry's lifetime. A name must keep one metric kind for
  /// the registry's whole life; asking for it as another kind returns
  /// nullptr (callers treat that exactly like "metrics disabled").
  Counter* GetCounter(std::string_view name, std::string_view help = "");
  Gauge* GetGauge(std::string_view name, std::string_view help = "");
  Histogram* GetHistogram(std::string_view name, std::vector<double> bounds,
                          std::string_view help = "");

  /// One JSON object holding every registered metric (see header
  /// comment for the shape). Stable key order (lexicographic).
  std::string ToJson() const;

  /// Prometheus text exposition format, one family per metric.
  std::string ToPrometheusText() const;

  /// Every registered histogram, name-sorted. Pointers are valid for
  /// the registry's lifetime — this powers quantile summaries in the
  /// shell's \metrics and the stats server's /statusz.
  std::vector<std::pair<std::string, const Histogram*>> HistogramEntries()
      const;

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable Mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_ GUARDED_BY(mu_);
};

/// Flattened sample values of an exported registry: counters and
/// gauges under their own name; histograms contribute
/// `name_bucket{le="…"}`, `name_sum`, and `name_count` entries —
/// exactly the Prometheus sample names, so both exporters flatten to
/// the same map and round-trip equality is a simple map compare.
using MetricsSamples = std::map<std::string, double>;

/// Parses the output of MetricsRegistry::ToJson().
Result<MetricsSamples> ParseMetricsJson(std::string_view json);

/// Parses the output of MetricsRegistry::ToPrometheusText(). Ignores
/// comment lines; kInvalidArgument on malformed sample lines.
Result<MetricsSamples> ParseMetricsPrometheusText(std::string_view text);

/// Adds one to the named counter. No-op when metrics is null.
void BumpCounter(MetricsRegistry* metrics, std::string_view name,
                 std::string_view help);

/// Bumps pathlog_budget_rejections_total when `budget` rejected its
/// call. Called once per window, by the code that built it, so the
/// series counts rejected calls, not polls. No-op when metrics is null.
void CountBudgetRejection(MetricsRegistry* metrics,
                          const ResourceBudget& budget);

}  // namespace pathlog

#endif  // PATHLOG_OBS_METRICS_H_
