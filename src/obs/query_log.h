// QueryLog: a structured, per-query JSONL log for serving forensics.
//
// Every query (conjunctive `?-`, Eval, Holds) appends exactly one JSON
// object on its own line: wall latency, answer rows, the evaluation
// strategy, a fingerprint hash of the planner's chosen literal order
// (the same hash ExplainQuery prints, so a slow record links straight
// to its plan), budget spend per dimension, index-route counters, and
// a slow-query flag set above a configurable threshold. The schema is
// documented in docs/IMPLEMENTATION.md ("Serving diagnostics") and
// validated by ci/check.sh.
//
// Records are written with one Append() call each — an atomic append
// at these sizes, never fsynced: the log is a diagnostic stream, not a
// ledger — through an injectable FileOps, and the segment
// rotates (current file renamed to `<path>.1`, fresh file opened) once
// it exceeds `rotate_bytes`. The last few records are also kept in an
// in-memory ring so the stats server's /querylogz endpoint serves
// recent activity without re-reading the file.
//
// Append() takes a mutex: query logging happens once per query, never
// per tuple, so this is far off the evaluation hot path (the paired
// bench gate in ci/bench_smoke.sh holds the enabled/disabled ratio to
// 5%).

#ifndef PATHLOG_OBS_QUERY_LOG_H_
#define PATHLOG_OBS_QUERY_LOG_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/mutex.h"
#include "base/result.h"
#include "base/thread_annotations.h"
#include "store/file_ops.h"

namespace pathlog {

struct QueryLogOptions {
  /// JSONL output path. Empty = in-memory only (the recent ring still
  /// fills, nothing reaches disk) — used by tests and /querylogz-only
  /// setups.
  std::string path;
  /// Records with latency above this are flagged `"slow":true`.
  double slow_query_ms = 100.0;
  /// Rotate (rename to `<path>.1`, reopen fresh) past this many bytes;
  /// 0 = never rotate.
  uint64_t rotate_bytes = 16ull << 20;
  /// Recent records kept in memory for /querylogz and \querylog.
  size_t recent_capacity = 128;
  /// Injectable file system; nullptr = the real one.
  FileOps* fops = nullptr;
};

/// One query's structured record. `budget_*` report the spend of the
/// call's budget window, which covers the read's lazy materialisation
/// and trigger firing too: derivations charged, the store's footprint,
/// the call's wall time, and whether a limit rejected the call.
struct QueryLogRecord {
  uint64_t ts_ms = 0;            ///< unix epoch milliseconds
  std::string kind;              ///< "query" | "eval" | "holds"
  std::string query;             ///< printed form
  std::string status = "ok";     ///< "ok" or the error code name
  double latency_ms = 0;
  uint64_t rows = 0;             ///< answer rows / oids / 0|1 for holds
  std::string strategy;          ///< engine strategy name
  std::string plan_fingerprint;  ///< hex CRC32 of the planned order
  uint64_t budget_derivations = 0;
  uint64_t budget_store_bytes = 0;
  double budget_wall_ms = 0;
  bool budget_rejected = false;
  uint64_t route_receiver_probes = 0;
  uint64_t route_inverted_probes = 0;
  uint64_t route_extent_scans = 0;
  uint64_t route_universe_scans = 0;
  uint64_t route_duplicates_suppressed = 0;
  bool slow = false;             ///< latency_ms > options.slow_query_ms
};

/// Serialises one record as a single-line JSON object (no trailing
/// newline). Stable key order; the CI schema validator and the
/// /querylogz endpoint both rely on this shape.
std::string QueryLogRecordToJson(const QueryLogRecord& rec);

class QueryLog {
 public:
  explicit QueryLog(QueryLogOptions options);
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;
  ~QueryLog();

  /// Stamps the slow flag, serialises, appends one line to the file
  /// (rotating first if the segment is over budget), and remembers the
  /// line in the recent ring. The first failing file operation latches:
  /// later appends keep filling the ring but stop touching the file.
  Status Append(QueryLogRecord rec);

  /// The most recent `n` serialised records, oldest first.
  std::vector<std::string> Recent(size_t n = 50) const;

  const QueryLogOptions& options() const { return options_; }
  const std::string& path() const { return options_.path; }
  uint64_t records_written() const;
  uint64_t rotations() const;
  /// First file error, or OK. Latched until destruction.
  Status file_error() const;

 private:
  Status EnsureOpenLocked() REQUIRES(mu_);
  Status AppendLineLocked(const std::string& line) REQUIRES(mu_);

  QueryLogOptions options_;  ///< immutable after construction
  FileOps* fops_;  ///< options_.fops or DefaultFileOps()

  // One leaf mutex covers the file, its rotation state, and the recent
  // ring, so a rotation (close → rename → reopen) is atomic with
  // respect to concurrent Append()s and /querylogz reads.
  mutable Mutex mu_;
  std::unique_ptr<FileOps::WritableFile> file_ GUARDED_BY(mu_);
  uint64_t file_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t records_written_ GUARDED_BY(mu_) = 0;
  uint64_t rotations_ GUARDED_BY(mu_) = 0;
  Status file_error_ GUARDED_BY(mu_);
  std::deque<std::string> recent_ GUARDED_BY(mu_);
};

}  // namespace pathlog

#endif  // PATHLOG_OBS_QUERY_LOG_H_
