// Annotated mutex wrappers for the thread-safety analysis.
//
// libstdc++'s std::mutex / std::shared_mutex carry no capability
// attributes, so clang's `-Wthread-safety` cannot follow raw standard
// locks. These thin wrappers forward to the standard types and attach
// the capability vocabulary from base/thread_annotations.h; annotate
// shared state with GUARDED_BY against these and the compiler checks
// the discipline.
//
// Lock order (see docs/IMPLEMENTATION.md "Concurrency contract"): a
// Database state lock is always outermost; sink-internal locks
// (MetricsRegistry, QueryLog, Profiler) and the StatsServer
// lifecycle lock are leaves — code holding a sink lock never acquires
// another lock.

#ifndef PATHLOG_BASE_MUTEX_H_
#define PATHLOG_BASE_MUTEX_H_

#include <atomic>
#include <mutex>
#include <shared_mutex>

#include "base/thread_annotations.h"

namespace pathlog {

/// Exclusive mutex with capability annotations.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Reader/writer mutex with capability annotations. Writers are
/// exclusive; readers share.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void ReaderLock() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void ReaderUnlock() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock over Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// RAII shared (reader) lock over SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() RELEASE() { mu_->ReaderUnlock(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// RAII exclusive (writer) lock over SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// std::atomic<T> with move semantics, for atomic members of movable
/// classes (std::atomic itself is neither copyable nor movable).
/// Moving is NOT atomic: it is only safe while no other thread can
/// reach either object, which matches how movable owners like
/// Database are built (moved during single-threaded construction,
/// shared only afterwards).
template <typename T>
class MovableAtomic {
 public:
  MovableAtomic() = default;
  explicit MovableAtomic(T v) : v_(v) {}
  MovableAtomic(MovableAtomic&& other) noexcept
      : v_(other.v_.load(std::memory_order_relaxed)) {}
  MovableAtomic& operator=(MovableAtomic&& other) noexcept {
    v_.store(other.v_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
    return *this;
  }
  MovableAtomic(const MovableAtomic&) = delete;
  MovableAtomic& operator=(const MovableAtomic&) = delete;

  T load(std::memory_order order = std::memory_order_seq_cst) const {
    return v_.load(order);
  }
  void store(T v, std::memory_order order = std::memory_order_seq_cst) {
    v_.store(v, order);
  }
  T fetch_add(T n, std::memory_order order = std::memory_order_seq_cst) {
    return v_.fetch_add(n, order);
  }

 private:
  std::atomic<T> v_{};
};

}  // namespace pathlog

#endif  // PATHLOG_BASE_MUTEX_H_
