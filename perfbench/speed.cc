#include "speed.h"

#include <algorithm>
#include <charconv>
#include <chrono>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ReferenceBuffers::ReferenceBuffers()
    // The text holds every other value: at most 20 digits and a space.
    : source(2048), sorted(2048), table(2048), text(1024 * 21) {
  // Mix(0) is 0, the empty slot of the table, so the values start at 1.
  for (size_t i = 0; i < source.size(); ++i) source[i] = Mix(i + 1);
}

uint64_t ReferenceWork(ReferenceBuffers* b) {
  std::copy(b->source.begin(), b->source.end(), b->sorted.begin());
  std::sort(b->sorted.begin(), b->sorted.end());
  // An open-addressing set of a quarter of the values, then a probe
  // for each value.
  const size_t mask = b->table.size() - 1;
  std::fill(b->table.begin(), b->table.end(), 0);
  for (size_t i = 0; i < b->sorted.size(); i += 4) {
    size_t slot = Mix(b->sorted[i]) & mask;
    while (b->table[slot] != 0) slot = (slot + 1) & mask;
    b->table[slot] = b->sorted[i];
  }
  uint64_t found = 0;
  for (uint64_t v : b->source) {
    for (size_t slot = Mix(v) & mask; b->table[slot] != 0;
         slot = (slot + 1) & mask) {
      if (b->table[slot] == v) {
        ++found;
        break;
      }
    }
  }
  char* out = b->text.data();
  char* const end = out + b->text.size();
  for (size_t i = 0; i < b->sorted.size(); i += 2) {
    out = std::to_chars(out, end, b->sorted[i]).ptr;
    *out++ = ' ';
  }
  return found + static_cast<uint64_t>(out - b->text.data());
}

void SpeedGauge::Probe(int n) {
  for (int i = 0; i < n; ++i) {
    double best = 0;
    for (int k = 0; k < 3; ++k) {
      const double t0 = Now();
      sink_ += ReferenceWork(&buffers_);
      const double s = Now() - t0;
      best = k == 0 ? s : std::min(best, s);
    }
    Record(best);
  }
}

void SpeedGauge::Record(double seconds) {
  history_.push_back(seconds / kNominalS);
  slowdown_ = Slowdown(kWindow);
}

double SpeedGauge::Slowdown(size_t n) const {
  n = std::min(n, history_.size());
  if (n == 0) return 1;
  std::vector<double> last(history_.end() - n, history_.end());
  std::nth_element(last.begin(), last.begin() + n / 2, last.end());
  return last[n / 2];
}

}  // namespace perfbench
