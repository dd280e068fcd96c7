#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile `p` among `n` samples.
size_t NearestRank(size_t n, double p) {
  // The tolerance keeps a decimal percentile such as 99.9, which has no
  // exact binary form, from rounding one rank too high.
  const double exact = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(exact), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - NearestRank(n, p);
}

std::optional<double> PickTailPercentile(size_t n,
                                         const std::vector<double>& candidates,
                                         size_t min_beyond) {
  std::optional<double> best;
  for (double p : candidates) {
    if (SamplesBeyond(n, p) < min_beyond) continue;
    if (!best || p > *best) best = p;
  }
  return best;
}

}  // namespace perfbench
