// Host-speed correction for timings taken on a shared machine.
//
// On a shared virtual machine a single-threaded program runs faster or
// slower from one minute to the next, by tens of percent, as the other
// tenants of the host come and go. The timings of one run then move
// together, a cache-resident 4 us read as much as a 2 s
// materialisation, so no amount of repetition inside one run takes the
// difference between runs away. The runner therefore times a fixed
// piece of reference work between its own timings, and reports each
// timing scaled by how much faster or slower than nominal the
// reference work ran around it. The reference work is the benchmark's
// own code, not PathLog's, so a change to PathLog moves the scaled
// timings as it moves the measured ones. What the scaling cannot take
// away is a slowdown that hits PathLog's work and not the reference
// work, such as other tenants filling the shared cache, which slows a
// phase that works on megabytes more than the reference work, which
// works on kilobytes.

#ifndef PERFBENCH_SPEED_H_
#define PERFBENCH_SPEED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The buffers ReferenceWork() works in, allocated once, so that the
/// state of the heap does not change how long it takes.
struct ReferenceBuffers {
  ReferenceBuffers();
  std::vector<uint64_t> source, sorted, table;
  std::vector<char> text;
};

/// Sorting, hashing and number formatting on data that stays in the
/// first two cache levels, without allocating; returns a value that
/// depends on all of it.
uint64_t ReferenceWork(ReferenceBuffers* b);

class SpeedGauge {
 public:
  /// Seconds a probe takes at nominal speed: about its median on the
  /// 4-vCPU machine the baseline was recorded on. It sets only the scale
  /// of the scaled figures, not how they move.
  static constexpr double kNominalS = 175e-6;
  /// Probes slowdown() is the median of.
  static constexpr size_t kWindow = 5;

  /// Probes `n` times. One probe times ReferenceWork() three times and
  /// records the fastest, which a preemption in the middle of one of
  /// them does not move.
  void Probe(int n = 1);
  /// Records one probe of `seconds`.
  void Record(double seconds);

  /// How much slower than nominal the host ran over the last `n`
  /// probes: the median of their times over kNominalS; 1 before the
  /// first probe.
  double Slowdown(size_t n) const;
  /// Slowdown(kWindow), kept up to date by every probe.
  double slowdown() const { return slowdown_; }
  /// Every probe's slowdown, in order.
  const std::vector<double>& history() const { return history_; }

 private:
  ReferenceBuffers buffers_;
  std::vector<double> history_;
  double slowdown_ = 1;
  uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPEED_H_
