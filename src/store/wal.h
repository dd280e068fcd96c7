// The write-ahead log: PathLog's unit of crash-safe durability.
//
// The fact log is already the canonical replayable event stream —
// snapshots replay it, triggers consume it — so durability logs
// exactly that stream: object interns (universe growth) and facts, in
// commit order, plus the program text of installed rules/signatures,
// the trigger watermark, and marks of the database's materialisation
// state. Recovery = newest valid snapshot + the WAL's valid prefix.
//
// File format (little-endian):
//   magic "PLGWAL01" (8 bytes)
//   zero or more frames: u32 payload_len, u32 crc32(payload), payload
//
// Payloads (first byte is the record type):
//   kIntern            u8 type, u32 oid, u8 object_kind,
//                      kInt: i64 value; else: u32 len + bytes
//   kFact              u8 type, u64 gen, u8 fact_kind, u32 method,
//                      u32 recv, u32 argc, u32 args[argc], u32 value
//   kProgram           u8 type, u32 len + program text (rules,
//                      triggers and signatures as loadable PathLog)
//   kTriggerWatermark  u8 type, u64 watermark
//   kMaterialisation   u8 type, u8 materialised (0: a *stale* mark, the
//                      rules have not seen everything logged from here
//                      on; 1: a *materialised* mark, everything logged
//                      so far is at the rules' fixpoint)
//
// A commit batch orders its records interns, program text, facts,
// watermark. A batch that makes the database dirty opens with a stale
// mark; one that makes it clean closes with a materialised mark; a
// batch that leaves the flag alone carries no mark. A torn batch is a
// prefix of its frames, so it can lose a materialised mark but never
// keep one without the facts it covers (docs/IMPLEMENTATION.md,
// "Durability").
//
// Torn-tail rule: a frame whose length field, payload bytes, or CRC
// cannot be completed is the torn tail of an interrupted append. The
// scan stops there and reports the valid prefix; DurableLog::Open
// truncates the file and carries on. Corruption *inside* the valid
// region (a CRC that matches but a payload that decodes to nonsense, or
// oids outside the object table at replay time) is a typed error
// instead — that is damage, not a crash artefact.
//
// One owner: DurableLog (below) is the only code that opens, appends
// to, syncs, truncates or resets the log file. The database decides
// what a batch holds and when to checkpoint; the log decides how the
// batch reaches disk, retries transient failures, and latches the
// failure that breaks it.

#ifndef PATHLOG_STORE_WAL_H_
#define PATHLOG_STORE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "store/fact.h"
#include "store/file_ops.h"
#include "store/object_store.h"

namespace pathlog {

inline constexpr char kWalMagic[] = "PLGWAL01";
inline constexpr size_t kWalMagicLen = 8;

enum class WalRecordType : uint8_t {
  kIntern = 0,
  kFact = 1,
  kProgram = 2,
  kTriggerWatermark = 3,
  kMaterialisation = 4,
};

/// One decoded WAL record. Only the fields of its type are meaningful.
struct WalRecord {
  WalRecordType type;
  // kMaterialisation. Kept in the padding after `type`: the vector
  // form of ScanWal holds every record of the log at once, and a larger
  // record slows it.
  bool materialised = false;
  // kIntern
  Oid oid = kNilOid;
  ObjectKind obj_kind = ObjectKind::kSymbol;
  int64_t int_value = 0;
  std::string text;  ///< symbol/string/anonymous name, or program text
  // kFact
  uint64_t gen = 0;
  Fact fact;
  // kTriggerWatermark
  uint64_t watermark = 0;
};

/// Encoders produce the *payload* (no frame); frame with AppendWalFrame.
std::string EncodeWalIntern(Oid oid, ObjectKind kind, int64_t int_value,
                            std::string_view text);
std::string EncodeWalFact(uint64_t gen, const Fact& fact);
std::string EncodeWalProgram(std::string_view program_text);
std::string EncodeWalTriggerWatermark(uint64_t watermark);
std::string EncodeWalMaterialisation(bool materialised);

/// Appends one framed record (length + CRC + payload) to `out`.
void AppendWalFrame(std::string* out, std::string_view payload);

/// Where a scan stopped.
struct WalExtent {
  /// Bytes of the valid prefix (header + intact frames). When `torn`,
  /// the caller should truncate the file to this length.
  uint64_t valid_bytes = 0;
  bool torn = false;
};

struct WalScan : WalExtent {
  std::vector<WalRecord> records;
};

/// Scans a WAL image, handing each record to `visit` as soon as it is
/// decoded, in log order, and keeping none: `visit` may move from it.
/// A file shorter than the magic is treated as the torn remains of log
/// creation (recovered empty); a full-length but wrong magic is
/// kInvalidArgument (not a WAL at all); a frame that decodes under a
/// matching CRC into an unknown type or malformed fields is
/// kInvalidArgument (real corruption). Either error, or one returned by
/// `visit`, stops the scan, after the records before it were visited.
Result<WalExtent> ScanWal(std::string_view bytes,
                          const std::function<Status(WalRecord&)>& visit);

/// The same scan, collecting every record in `records`.
Result<WalScan> ScanWal(std::string_view bytes);

/// Replays one intern/fact record into the store, idempotently: a
/// record the store already contains (same oid/name, same generation
/// and fact) is skipped, so a WAL that overlaps its snapshot — the
/// window between checkpoint rename and log reset — replays cleanly.
/// Mismatches and out-of-table oids are kInvalidArgument.
/// kProgram/kTriggerWatermark/kMaterialisation records are
/// database-level; this function ignores them.
Status ApplyWalRecordToStore(const WalRecord& record, ObjectStore* store);

class Counter;
class FlightRecorder;
class Histogram;
class MetricsRegistry;

/// Crash-safety policy of a durable database's log (Database::Open).
/// Every mutation — loads, materialisations, trigger firings, even the
/// name interning a query performs — is appended to the write-ahead log
/// before the call returns; recovery replays the newest valid snapshot
/// plus the log's valid prefix, truncating a torn tail.
struct DurabilityOptions {
  enum class FsyncPolicy : uint8_t {
    /// fsync the WAL at every commit boundary: a returned OK means the
    /// mutation survives any crash.
    kAlways,
    /// Never fsync (the OS flushes when it pleases). Recovery still
    /// works from whatever prefix reached disk; only the durability
    /// of the most recent commits is at risk. For bulk loads.
    kNever,
  };
  FsyncPolicy fsync_policy = FsyncPolicy::kAlways;
  /// Checkpoint (snapshot + WAL reset) automatically once this many
  /// WAL records have accumulated; 0 = only on explicit Checkpoint().
  uint64_t checkpoint_every = 0;
  /// A WAL append/fsync failure classified as transient (kUnavailable:
  /// EIO, ENOSPC, ...) is retried up to this many times. Each retry
  /// truncates the log back to its last known-good length, reopens it
  /// and re-appends the whole pending batch — a short write may have
  /// torn the middle, so appending past it would corrupt the log.
  /// Failures with any other code are treated as persistent: no
  /// retries, immediate degraded read-only mode.
  uint32_t max_transient_retries = 4;
  /// Backoff before the first retry, doubling per attempt and capped
  /// at max_backoff_ms.
  uint64_t initial_backoff_ms = 1;
  uint64_t max_backoff_ms = 64;
  /// Rotate the WAL — auto-checkpoint, which snapshots and resets the
  /// log — once the segment reaches this many bytes; 0 = never.
  /// Bounds both recovery time and log disk usage.
  uint64_t rotate_wal_bytes = 64ull << 20;
  /// Injectable sleep for retry backoff (argument: milliseconds);
  /// null = a real sleep. Tests inject a recorder so retry schedules
  /// are asserted without real delays.
  std::function<void(uint64_t)> backoff_sleep;
};

/// The write-ahead log file, end to end: it recovers the file's valid
/// prefix, commits batches of records with transient-error retry,
/// resets the file at a checkpoint, and keeps the known-good length and
/// the record and retry counts. What goes into a batch is the caller's
/// business; so is deciding when to checkpoint (checkpoint_every and
/// rotate_wal_bytes are the database's to read).
///
/// Failure latch: a commit that fails persistently or exhausts its
/// retries, or a reset that fails, leaves the log *broken*. Every later
/// Commit then returns that error at once and writes nothing, because
/// appending past a torn middle, or through a file the log no longer
/// has open, would lose what follows. Only a successful Reset mends it.
///
/// Concurrency: deliberately unsynchronised. A DurableLog is owned by
/// exactly one Database and every call happens under that Database's
/// exclusive state lock (the snapshot guard in query/database.h), which
/// both serialises the byte stream and publishes the counters to the
/// next writer. Do not share a log outside that lock; WAL framing is a
/// strict sequence, so an internal mutex here would only hide
/// interleaving bugs the outer lock must prevent anyway.
class DurableLog {
 public:
  /// The most bytes a commit hands the file in one append.
  static constexpr size_t kChunkBytes = size_t{1} << 20;

  /// What a commit's batch writer appends through.
  class Batch {
   public:
    /// Frames `payload` into the attempt's buffer. The buffer reaches
    /// the file in appends of kChunkBytes as it fills, and the rest of
    /// it before the commit syncs or returns, so a small batch is one
    /// write.
    Status Append(std::string_view payload);

   private:
    friend class DurableLog;
    explicit Batch(DurableLog* log) : log_(log) {}
    /// Appends the buffer's first `n` bytes to the file and drops them.
    Status Write(size_t n);

    DurableLog* log_;
    std::string buffer_;
    uint64_t records_ = 0;
    uint64_t bytes_ = 0;
  };

  /// Opens the log at `path` through `fops` (borrowed), creating it if
  /// absent. An existing log is scanned as ScanWal does, each record of
  /// its valid prefix going to `replay` in log order; then a torn tail
  /// is truncated, and a log shorter than its magic is recreated empty.
  /// A scan error or one from `replay` fails the open.
  static Result<std::unique_ptr<DurableLog>> Open(
      FileOps* fops, std::string path, DurabilityOptions options,
      const std::function<Status(WalRecord&)>& replay);

  /// Runs `write` to append one batch, writes out the rest of the
  /// batch's buffer, then fsyncs per policy. A transient failure
  /// (IsTransientIoError) is retried up to max_transient_retries times
  /// with capped exponential backoff: each retry truncates the file
  /// back to the known-good length, reopens it and runs `write` again
  /// from the start, into a fresh buffer, so `write` must append the
  /// same records on every run. Any other failure, or the last retry's,
  /// breaks the log and is returned. A broken log returns its error
  /// without running `write`.
  Status Commit(const std::function<Status(Batch&)>& write);

  /// Replaces the file with an empty log (temp file, fsync, rename) and
  /// reopens it; a checkpoint calls this once its snapshot holds
  /// everything the log did. Success mends a broken log and zeroes the
  /// record count; failure breaks the log.
  Status Reset();

  /// Attaches observability sinks (either may be null). Appends count
  /// records and bytes; an fsync records a latency sample and a
  /// "wal.fsync" span in the flight recorder, which also sees every
  /// *failing* append/fsync as an instant event with the error
  /// attached, so a ring dumped on degraded-mode entry names the exact
  /// WAL operation that broke. Retries count in
  /// pathlog_wal_retries_total.
  void set_obs(MetricsRegistry* metrics, FlightRecorder* flight);

  /// The failure that broke the log; OK while it is not broken.
  const Status& error() const { return error_; }
  /// Known-good length: the recovered valid prefix plus every committed
  /// batch since. Retries truncate back to it.
  uint64_t good_bytes() const { return good_bytes_; }
  /// Records committed since the open or the last successful Reset.
  uint64_t records() const { return records_; }
  /// Transient failures retried since the open.
  uint64_t retries() const { return retries_; }

 private:
  DurableLog(FileOps* fops, std::string path, DurabilityOptions options)
      : fops_(fops), path_(std::move(path)), options_(std::move(options)) {}

  /// Opens the file for appending at its current end.
  Status OpenFile();
  Status Sync();

  FileOps* fops_;
  std::string path_;
  DurabilityOptions options_;
  std::unique_ptr<FileOps::WritableFile> file_;  ///< null while broken
  Status error_;
  uint64_t good_bytes_ = 0;
  uint64_t records_ = 0;
  uint64_t retries_ = 0;
  MetricsRegistry* metrics_ = nullptr;
  Counter* appends_ = nullptr;
  Counter* append_bytes_ = nullptr;
  Counter* fsyncs_ = nullptr;
  Histogram* fsync_ms_ = nullptr;
  FlightRecorder* flight_ = nullptr;
};

}  // namespace pathlog

#endif  // PATHLOG_STORE_WAL_H_
