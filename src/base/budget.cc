#include "base/budget.h"

#include <chrono>

#include "base/strings.h"
#include "store/object_store.h"

namespace pathlog {

ResourceBudget::ResourceBudget(const ResourceLimits& limits)
    : limits_(limits) {
  if (limits_.max_wall_ms > 0) start_ms_ = NowMs();
}

uint64_t ResourceBudget::NowMs() const {
  if (limits_.clock) return limits_.clock();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status ResourceBudget::Reject(Status st) {
  rejected_ = true;
  return st;
}

Status ResourceBudget::Check(const ObjectStore& store) {
  if (limits_.token.cancelled()) {
    return Reject(Cancelled("evaluation cancelled via CancelToken"));
  }
  auto exceeded = [&](const char* dimension, uint64_t used, uint64_t limit,
                      const char* hint = "") {
    return Reject(ResourceExhausted(
        StrCat("resource budget exceeded: ", dimension, " dimension (",
               used, " of ", limit, hint, ")")));
  };
  constexpr char kRunaway[] =
      "; the program likely creates virtual objects unboundedly";
  const uint64_t bytes = store.ApproxBytes();
  if (limits_.max_store_bytes > 0 && bytes > limits_.max_store_bytes) {
    return exceeded("bytes", bytes, limits_.max_store_bytes);
  }
  if (limits_.max_derivations > 0 && derivations_ > limits_.max_derivations) {
    return exceeded("derivations", derivations_, limits_.max_derivations);
  }
  if (limits_.max_facts > 0 && store.FactCount() > limits_.max_facts) {
    return exceeded("facts", store.FactCount(), limits_.max_facts, kRunaway);
  }
  if (limits_.max_objects > 0 && store.UniverseSize() > limits_.max_objects) {
    return exceeded("objects", store.UniverseSize(), limits_.max_objects,
                    kRunaway);
  }
  return CheckControl();
}

Status ResourceBudget::CheckControl() {
  if (limits_.token.cancelled()) {
    return Reject(Cancelled("evaluation cancelled via CancelToken"));
  }
  if (limits_.max_wall_ms > 0) {
    const uint64_t elapsed = NowMs() - start_ms_;
    if (elapsed > limits_.max_wall_ms) {
      return Reject(DeadlineExceeded(
          StrCat("resource budget exceeded: wall-ms dimension (", elapsed,
                 " of ", limits_.max_wall_ms, " ms elapsed)")));
    }
  }
  return Status::OK();
}

}  // namespace pathlog
