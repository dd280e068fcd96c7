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
// scan stops there and reports the valid prefix; the caller truncates
// the file and carries on. Corruption *inside* the valid region (a
// CRC that matches but a payload that decodes to nonsense, or oids
// outside the object table at replay time) is a typed error instead —
// that is damage, not a crash artefact.

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

/// Thin framing wrapper over an open WAL file.
///
/// Concurrency: deliberately unsynchronised. A WalAppender is owned by
/// exactly one Database and every call — Append, Sync, set_obs,
/// appended_bytes — happens under that Database's exclusive state lock
/// (the std::shared_mutex snapshot guard in query/database.h), which
/// both serialises the byte stream and publishes appended_bytes_ to
/// the next writer. Do not share an appender outside that lock; WAL
/// framing is a strict sequence, so an internal mutex here would only
/// hide interleaving bugs the outer lock must prevent anyway.
class WalAppender {
 public:
  explicit WalAppender(std::unique_ptr<FileOps::WritableFile> file)
      : file_(std::move(file)) {}

  /// Attaches observability sinks (either may be null). Appends count
  /// records and bytes; Sync records an fsync latency sample and a
  /// "wal.fsync" span in the flight recorder, which also sees every
  /// *failing* append/fsync as an instant event with the error
  /// attached, so a ring dumped on degraded-mode entry names the exact
  /// WAL operation that broke.
  void set_obs(MetricsRegistry* metrics, FlightRecorder* flight);

  /// Appends one framed payload (buffered by the OS until Sync).
  Status Append(std::string_view payload);
  Status Sync();

  /// Framed bytes successfully appended through this appender (frame
  /// header + payload). The database adds this to the recovered log
  /// size to decide when to rotate the segment.
  uint64_t appended_bytes() const { return appended_bytes_; }

 private:
  std::unique_ptr<FileOps::WritableFile> file_;
  uint64_t appended_bytes_ = 0;
  Counter* appends_ = nullptr;
  Counter* append_bytes_ = nullptr;
  Counter* fsyncs_ = nullptr;
  Histogram* fsync_ms_ = nullptr;
  FlightRecorder* flight_ = nullptr;
};

}  // namespace pathlog

#endif  // PATHLOG_STORE_WAL_H_
