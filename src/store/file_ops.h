// Injectable file-system operations for the durability layer.
//
// Everything the WAL and the snapshot writers do to disk goes through
// a FileOps, so tests can substitute an in-memory implementation that
// injects faults at any syscall boundary. Two implementations ship:
//
//   PosixFileOps           the real thing — open/write/fsync/rename,
//                          with directory fsync after renames so the
//                          new name itself is durable;
//   FaultInjectingFileOps  an in-memory file system that models the
//                          durable/volatile split: appended bytes live
//                          in an unsynced tail until Sync() promotes
//                          them, and a simulated crash drops a suffix
//                          of every unsynced tail (a "torn write").
//                          A fault plan fires at the Nth write-side
//                          operation: fail it, short-write it, or
//                          crash the process model.
//
// The contract WriteSnapshotFile and the WAL rely on:
//   - Append may persist any prefix of its data on crash;
//   - data is durable only after a successful Sync;
//   - Rename is atomic (the target is either the old or the new file,
//     never a mixture) and durable once it returns.

#ifndef PATHLOG_STORE_FILE_OPS_H_
#define PATHLOG_STORE_FILE_OPS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"

namespace pathlog {

class FileOps {
 public:
  /// An open file being written. Close() without Sync() leaves the
  /// unsynced tail at the mercy of a crash.
  class WritableFile {
   public:
    virtual ~WritableFile() = default;
    virtual Status Append(std::string_view data) = 0;
    virtual Status Sync() = 0;
    virtual Status Close() = 0;
  };

  virtual ~FileOps() = default;

  virtual Result<std::string> ReadFile(const std::string& path) = 0;
  virtual bool Exists(const std::string& path) = 0;
  /// Opens for writing: truncate=true starts empty, false appends.
  virtual Result<std::unique_ptr<WritableFile>> OpenForWrite(
      const std::string& path, bool truncate) = 0;
  virtual Status Remove(const std::string& path) = 0;
  /// Atomic replace; durable on return (directory synced).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  /// Shrinks the file to `size` bytes (used to drop a torn WAL tail).
  virtual Status Truncate(const std::string& path, uint64_t size) = 0;
  /// Creates the directory (and parents); OK if it already exists.
  virtual Status CreateDir(const std::string& path) = 0;
  /// Names (not paths) of the regular files directly inside `path`.
  /// Used by recovery to sweep stale `*.tmp` files.
  virtual Result<std::vector<std::string>> ListDir(
      const std::string& path) = 0;
};

/// True when `st` reports a transient I/O condition (kUnavailable —
/// ENOSPC, EIO and friends): worth retrying with backoff rather than
/// treating the device as permanently broken.
bool IsTransientIoError(const Status& st);

/// The process-wide POSIX implementation.
FileOps* DefaultFileOps();

/// Writes `bytes` to `path` atomically: temp file, fsync, rename.
/// A crash at any point leaves either the old file or the new one at
/// `path` — never a partial write. The temp file (`path` + ".tmp") is
/// removed on failure, best-effort.
Status WriteFileAtomic(FileOps* ops, const std::string& path,
                       std::string_view bytes);

/// In-memory file system with fault injection, for tests and benches.
class FaultInjectingFileOps : public FileOps {
 public:
  enum class FaultKind : uint8_t {
    kNone,
    /// The chosen operation returns an error; later ops succeed.
    kFail,
    /// The chosen Append persists only half its bytes, then errors.
    kShortWrite,
    /// The chosen operation does not happen; every later operation
    /// fails. Unsynced tails are torn down to `keep` bytes each.
    kCrash,
  };

  /// Which write-side operation a scheduled fault targets. kAny counts
  /// every write-side op; the typed values count only their own kind,
  /// so "the 2nd fsync" is expressible regardless of interleaved
  /// appends.
  enum class FaultOp : uint8_t {
    kAny = 0,
    kAppend,
    kSync,
    kOpen,
    kRename,
    kRemove,
    kTruncate,
  };

  /// One scripted fault: ops number `at` .. `at`+`count`-1 (1-based,
  /// counted per `op` kind since SetSchedule) fail with `kind`, and the
  /// injected error carries `code`, so tests can model transient
  /// conditions (kUnavailable: EIO that clears, an ENOSPC window) as
  /// distinct from persistent ones (kInternal: a dead device).
  struct FaultEvent {
    FaultOp op = FaultOp::kAny;
    uint64_t at = 1;
    uint64_t count = 1;
    FaultKind kind = FaultKind::kFail;
    StatusCode code = StatusCode::kUnavailable;
  };

  /// A deterministic per-op fault script, evaluated front to back: the
  /// first event matching the current op decides its fate.
  struct FaultSchedule {
    std::vector<FaultEvent> events;
  };

  FaultInjectingFileOps() = default;

  /// Shorthand for a one-event schedule: the `nth` write-side operation
  /// from now (1-based) triggers `kind`, with code kInternal (a
  /// persistent failure). Read-side operations are never counted. Like
  /// SetSchedule it replaces any installed schedule, and like one it
  /// stays armed across RecoverAfterCrash until it fires or is replaced.
  void ArmFault(FaultKind kind, uint64_t nth);

  /// Installs a fault script, replacing the previous one, and resets
  /// the per-op counters it is matched against. An empty schedule
  /// clears scripting.
  void SetSchedule(FaultSchedule schedule);

  /// Write-side operations performed since construction — run a
  /// workload once un-faulted to learn the boundary count, then rerun
  /// with ArmFault(kCrash, i) for every i in [1, WriteOpCount()].
  uint64_t WriteOpCount() const { return op_count_; }
  bool crashed() const { return crashed_; }

  /// Chooses how many bytes of the unsynced tail `tail` of the file at
  /// `path` survive a crash (at most tail.size()).
  using KeepPrefix =
      std::function<size_t(const std::string& path, std::string_view tail)>;

  /// Ends the simulated crash: unsynced tails are torn (each keeps the
  /// prefix `keep` chooses; by default half, rounded down), open
  /// handles are invalidated, and the "disk" becomes readable again, as
  /// if the process restarted.
  void RecoverAfterCrash(const KeepPrefix& keep = nullptr);

  // FileOps:
  Result<std::string> ReadFile(const std::string& path) override;
  bool Exists(const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenForWrite(
      const std::string& path, bool truncate) override;
  Status Remove(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Status CreateDir(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;

 private:
  friend class FaultInjectingWritableFile;

  struct FileState {
    /// Bytes guaranteed to survive a crash.
    std::string durable;
    /// Appended but not yet fsynced; a crash tears this tail.
    std::string unsynced;

    std::string View() const { return durable + unsynced; }
  };

  /// The fault a write-side op must honour, and the status code the
  /// injected error should carry (its event's code).
  struct FaultDecision {
    FaultKind kind = FaultKind::kNone;
    StatusCode code = StatusCode::kInternal;
  };

  /// Counts one write-side op of kind `op`; returns the fault to apply
  /// to it (the op itself must honour kFail/kShortWrite/kCrash).
  FaultDecision TickWriteOp(FaultOp op);

  /// Builds the injected-error status for `decision` at `what`.
  static Status FaultStatus(const FaultDecision& decision, const char* what);

  std::map<std::string, FileState> files_;
  std::map<std::string, bool> dirs_;
  uint64_t op_count_ = 0;
  bool crashed_ = false;
  FaultSchedule schedule_;
  /// Per-FaultOp counters the schedule is matched against (index 0 =
  /// kAny = all write-side ops); reset by SetSchedule.
  uint64_t sched_counts_[7] = {0, 0, 0, 0, 0, 0, 0};
};

}  // namespace pathlog

#endif  // PATHLOG_STORE_FILE_OPS_H_
