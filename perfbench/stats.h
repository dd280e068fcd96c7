// Sample statistics for the end-to-end benchmark: nearest-rank
// percentiles and the "ten samples beyond" rule for reporting a tail.
//
// A tail percentile is only trustworthy when enough samples lie beyond
// it: p99 of 50 samples is the single worst one. The rule the benchmark
// follows is to report the highest percentile that has at least ten
// samples beyond it, and to state the sample count next to it.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

namespace perfbench {

/// A uniform sample of at most `capacity` values of a stream (Vitter's
/// algorithm R), so that a fast workload's millions of read latencies
/// neither fill memory nor make peak_rss_mb follow the read count. The
/// replacement choices come from a fixed seed.
class Reservoir {
 public:
  explicit Reservoir(size_t capacity = size_t{1} << 16)
      : capacity_(capacity) {}

  void Add(double v) {
    if (samples_.size() < capacity_) {
      samples_.push_back(v);
    } else if (const uint64_t j = rng_() % (seen_ + 1); j < capacity_) {
      samples_[j] = v;
    }
    ++seen_;
  }
  const std::vector<double>& samples() const { return samples_; }
  /// Values added, kept or not.
  uint64_t seen() const { return seen_; }

 private:
  size_t capacity_;
  uint64_t seen_ = 0;
  std::vector<double> samples_;
  std::mt19937_64 rng_{0x5EED};
};

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`; 0 for an
/// empty input. Takes the samples by value because it sorts them.
double Percentile(std::vector<double> samples, double p);

/// Percentile(samples, 50).
double Median(std::vector<double> samples);

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`
/// samples: n - ceil(p/100 * n).
size_t SamplesBeyond(size_t n, double p);

/// The highest of `candidates` (percentiles in (0, 100)) that has at
/// least `min_beyond` samples beyond it among `n`; nullopt when none
/// does.
std::optional<double> PickTailPercentile(size_t n,
                                         const std::vector<double>& candidates,
                                         size_t min_beyond = 10);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
