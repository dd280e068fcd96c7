// ResourceBudget: cooperative resource governance for evaluation.
//
// ResourceLimits is a value type that sits in EngineOptions: the
// ceilings, a CancelToken and an injectable clock. A ResourceBudget is
// one call's window onto those limits. Every public call that can
// evaluate (Database::Query, Eval, Holds, ExplainQuery, Materialize,
// FireTriggers; a standalone Engine::Run) builds one on its stack. The
// window is armed when it is built and is passed to everything the
// call runs, so no budget state is shared between threads.
//
// Checks are cooperative: the engine (its rules and its trigger
// cascade) and the reference evaluator poll the window at loop
// boundaries (per rule evaluation and cascade round, every ~1k
// derivations, every ~1k enumeration steps), so a trip is detected
// within one polling interval, never mid-assertion.
// The window with default limits allocates nothing and reads no clock.

#ifndef PATHLOG_BASE_BUDGET_H_
#define PATHLOG_BASE_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "base/status.h"

namespace pathlog {

class ObjectStore;  // store/object_store.h

/// Cooperative cancellation flag. Copies share the underlying flag, so
/// a token handed to another thread observes Cancel() calls made on
/// any copy.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() { flag_->store(true, std::memory_order_relaxed); }
  void Reset() { flag_->store(false, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// The limits every window of one database (or one standalone engine)
/// is built from. For the ceilings, 0 means unlimited.
struct ResourceLimits {
  /// Ceiling on the ObjectStore's approximate heap footprint
  /// (ObjectStore::ApproxBytes()). It bounds total retained memory,
  /// not growth.
  uint64_t max_store_bytes = 0;
  /// Ceiling on the derivations (rule heads and trigger firings) one
  /// call asserts.
  uint64_t max_derivations = 0;
  /// Ceilings on the store's fact log and universe. Paths in rule
  /// heads invent objects, so a program can grow the store without end
  /// (lint PL017); these turn such a runaway into kResourceExhausted.
  uint64_t max_facts = 20'000'000;
  uint64_t max_objects = 20'000'000;
  /// Wall-clock ceiling for one call, in milliseconds.
  uint64_t max_wall_ms = 0;
  /// Cancels every call while set. Copies share the flag, so the
  /// caller keeps a copy and cancels from any thread.
  CancelToken token = {};
  /// The wall clock (milliseconds, monotone); null = the steady clock.
  /// Read only when max_wall_ms is set. Concurrent readers each read
  /// it, so an injected clock must be safe to call from many threads.
  std::function<uint64_t()> clock = {};
};

/// One call's budget window. Check()/CheckControl() return the typed
/// error for the first exceeded dimension and mark the window
/// rejected; the code that built the window counts that rejection
/// once.
class ResourceBudget {
 public:
  /// Arms the window: its wall limit runs from here. `limits` must
  /// outlive the window.
  explicit ResourceBudget(const ResourceLimits& limits);
  ResourceBudget(const ResourceBudget&) = delete;
  ResourceBudget& operator=(const ResourceBudget&) = delete;

  void ChargeDerivations(uint64_t n = 1) { derivations_ += n; }
  uint64_t derivations() const { return derivations_; }

  /// Full check against the store the call mutates: cancellation,
  /// then bytes, derivations, facts and objects, then the wall clock.
  /// The store dimensions outrank the wall clock, so a memory runaway
  /// reports kResourceExhausted naming its dimension even if a
  /// deadline also lapsed.
  Status Check(const ObjectStore& store);

  /// Cancellation + wall clock only: the cheap probe for read-only
  /// evaluation loops that cannot grow the store.
  Status CheckControl();

  /// True once a check of this window has failed.
  bool rejected() const { return rejected_; }

 private:
  uint64_t NowMs() const;
  Status Reject(Status st);

  const ResourceLimits& limits_;
  uint64_t start_ms_ = 0;
  uint64_t derivations_ = 0;
  bool rejected_ = false;
};

}  // namespace pathlog

#endif  // PATHLOG_BASE_BUDGET_H_
