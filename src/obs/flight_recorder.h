// FlightRecorder: the one span sink. A bounded black-box recorder of
// recent activity.
//
// A fixed-capacity ring buffer of completed spans and instant events
// that every instrumentation site feeds: the engine's span tree
// (engine.run, engine.stratify, stratum, iteration, rule.evaluate,
// delta_pass), the trigger cascade (triggers.fire, triggers.round), the
// database (db.load, db.materialize, one db.<kind> span per read) and
// the WAL (wal.fsync, wal.checkpoint, failing appends). Recording
// never blocks (one fetch_add to claim a slot, a try-only per-slot
// lock to publish it) and memory is bounded by the capacity chosen at
// construction, so the recorder is cheap enough to leave on in
// production. A caller that wants a whole run (a test, the shell's
// --trace-out) passes a capacity that fits it; every rendering says
// how many events the ring dropped.
//
// When an incident fires (degraded-mode entry, a budget rejection, a
// WAL commit failure), the database auto-dumps the ring to a
// timestamped file in its durable directory, so the seconds *before*
// the failure survive to explain it. The ring renders as a Chrome
// trace ({"traceEvents":[...]}, "X" complete events + "i" instants,
// loadable in chrome://tracing / Perfetto), which is also what the
// stats server serves live at /tracez. A span is stamped with its
// start, so nested spans render nested.
//
// Concurrency contract: Record() never blocks and never allocates
// beyond the event's own strings. Each slot is guarded by a try-only
// spinlock: a writer that finds its claimed slot busy (another writer
// lapped the ring onto it, or a reader is copying it) drops the event
// instead of waiting; a reader that finds a slot busy skips it after
// a brief spin. This is a diagnostic recorder, not an audit log;
// losing a slot under extreme contention is acceptable, blocking the
// serving path is not.

#ifndef PATHLOG_OBS_FLIGHT_RECORDER_H_
#define PATHLOG_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "store/file_ops.h"

namespace pathlog {

/// One recorded event: a complete span ("X") that started at `ts_us`
/// and lasted `dur_us`, or an instant ("i") at `ts_us`. `args_json` is
/// either empty or a complete JSON object rendered by the caller.
struct FlightEvent {
  uint64_t seq = 0;    ///< global record index (monotone, for ordering)
  uint64_t ts_us = 0;  ///< span start or instant, µs since the epoch
  uint64_t dur_us = 0; ///< span duration (0 for instants)
  bool instant = false;
  std::string name;
  std::string category;
  std::string args_json;
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one event that ends now: an instant when `dur_us` is 0,
  /// else a span that started `dur_us` ago. Never blocks: claims a
  /// slot with one fetch_add and try-locks it; a busy slot drops the
  /// event.
  void Record(std::string_view name, std::string_view category = "pathlog",
              uint64_t dur_us = 0, std::string_view args_json = "");

  /// Records one span that started at `start_us` (a NowUs() reading)
  /// and lasted `dur_us`, zero included. Same never-block contract.
  void RecordSpan(std::string_view name, std::string_view category,
                  uint64_t start_us, uint64_t dur_us,
                  std::string_view args_json = "");

  /// Microseconds since the recorder's epoch — callers stamp a span's
  /// start with this. The epoch is an atomic so a concurrent Reset()
  /// moves the clock without a data race (a span straddling the Reset
  /// records a zero duration, see FlightSpan).
  uint64_t NowUs() const {
    const int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    const int64_t since = now_ns - epoch_ns_.load(std::memory_order_relaxed);
    return since <= 0 ? 0 : static_cast<uint64_t>(since / 1000);
  }

  size_t capacity() const { return capacity_; }
  /// Events recorded since construction (>= capacity() means the ring
  /// has wrapped and older events were overwritten).
  uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

  /// A consistent copy of the surviving events, oldest first. Slots
  /// being overwritten at snapshot time are skipped, so the result
  /// holds at most capacity() events.
  std::vector<FlightEvent> Snapshot() const;

  /// The ring as a Chrome trace: {"traceEvents":[...]} with "X"
  /// complete events (spans) and "i" instants, plus
  /// "otherData":{"capacity","recorded","dropped"} so a reader knows
  /// whether the ring wrapped.
  std::string ToTraceJson() const;

  /// ToTraceJson() written atomically to `path` (nullptr fops = real
  /// file system).
  Status WriteTo(const std::string& path, FileOps* fops = nullptr) const;

  /// Drops every recorded event and restarts the clock.
  void Reset();

 private:
  // lock-free: the ring never takes a mutex. The happens-before
  // contract per slot:
  //
  //   writer: TryLock(busy)        CAS 0→1, memory_order_acquire
  //           write event fields   (plain writes, slot owned)
  //           filled.store(true)   relaxed — meaningful only once the
  //                                release below publishes it
  //           Unlock(busy)         store 0, memory_order_release
  //
  //   reader: filled.load(relaxed) pre-filter only, may be stale
  //           TryLock(busy)        CAS 0→1, memory_order_acquire —
  //                                synchronises-with the writer's
  //                                release, so every event field
  //                                written before that Unlock is
  //                                visible here
  //           copy event, Unlock
  //
  // A slot's plain `event` fields are therefore only ever touched by
  // the thread currently holding its busy flag; a CAS that loses
  // drops (writer) or skips (reader) instead of waiting, so no path
  // through Record/Snapshot ever blocks. next_ is a relaxed counter:
  // seq values are unique and monotone, nothing else is inferred from
  // its ordering. epoch_ns_ is relaxed too — Reset() only needs the
  // new epoch to become visible eventually, not to order other writes.
  struct Slot {
    /// Try-only spinlock (0 = free, 1 = held) and a published flag so
    /// readers skip slots that were never written.
    std::atomic<uint32_t> busy{0};
    std::atomic<bool> filled{false};
    FlightEvent event;  // owned by whoever holds `busy`
  };

  const size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
  /// Epoch as steady-clock nanoseconds (atomic: Reset() races NowUs()).
  std::atomic<int64_t> epoch_ns_{0};

  void Put(std::string_view name, std::string_view category, bool instant,
           uint64_t ts_us, uint64_t dur_us, std::string_view args_json);
};

/// RAII span: stamps its start on construction and records one
/// complete event on destruction. With a null recorder a span site
/// costs one pointer test: `name`, `category` and `arg_key` are
/// borrowed, not copied (string literals at every site), and the
/// optional integer argument is rendered as {"<arg_key>":<arg>} only
/// when the event is recorded.
class FlightSpan {
 public:
  FlightSpan(FlightRecorder* recorder, std::string_view name,
             std::string_view category = "pathlog",
             std::string_view arg_key = {}, uint64_t arg = 0)
      : recorder_(recorder), name_(name), category_(category),
        arg_key_(arg_key), arg_(arg),
        start_us_(recorder != nullptr ? recorder->NowUs() : 0) {}
  ~FlightSpan() {
    if (recorder_ != nullptr) End();
  }
  FlightSpan(const FlightSpan&) = delete;
  FlightSpan& operator=(const FlightSpan&) = delete;

 private:
  void End();

  FlightRecorder* recorder_;
  std::string_view name_;
  std::string_view category_;
  std::string_view arg_key_;
  uint64_t arg_;
  uint64_t start_us_;
};

}  // namespace pathlog

#endif  // PATHLOG_OBS_FLIGHT_RECORDER_H_
