// A timing FileOps decorator for the traced run.
//
// Passed to Database::Open, it forwards every call to another FileOps
// (the real file system by default) and counts and times Append, Sync,
// Rename and ReadFile, separately for the write-ahead log, the
// snapshot and anything else. Sync, Rename and ReadFile calls are also
// spans in the recorder, so they nest under the Database call that
// caused them. Appends are only counted and timed: a bulk load makes
// one per logged fact, hundreds of thousands of them. It is the source
// of the store.wal.* and store.snapshot.* file metrics; untraced runs
// open the database without it.

#ifndef PERFBENCH_TIMING_FILE_OPS_H_
#define PERFBENCH_TIMING_FILE_OPS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "recorder.h"
#include "store/file_ops.h"

namespace perfbench {

enum class FileClass : uint8_t { kWal, kSnapshot, kOther };
enum class FileOp : uint8_t { kAppend, kSync, kRename, kRead };

/// Classifies a path by its file name: "wal.plgwal" is the log,
/// "snapshot.plgdb" (and its ".tmp") the snapshot.
FileClass ClassifyPath(const std::string& path);

struct FileOpStats {
  uint64_t count = 0;
  uint64_t bytes = 0;  ///< appended or read
  double seconds = 0;
  /// Per-call durations, kept for Sync only (the latency that matters).
  std::vector<double> samples;
};

class TimingFileOps : public pathlog::FileOps {
 public:
  /// `base` and `recorder` are borrowed; a null recorder times without
  /// spans.
  TimingFileOps(pathlog::FileOps* base, SpanRecorder* recorder)
      : base_(base), recorder_(recorder) {}

  const FileOpStats& stats(FileClass c, FileOp op) const {
    return stats_[static_cast<size_t>(c)][static_cast<size_t>(op)];
  }
  /// Time spent in timed calls on files of class `c`.
  double Seconds(FileClass c) const;
  /// Time spent in all timed calls.
  double Seconds() const;

  // FileOps:
  pathlog::Result<std::string> ReadFile(const std::string& path) override;
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  pathlog::Result<std::unique_ptr<WritableFile>> OpenForWrite(
      const std::string& path, bool truncate) override;
  pathlog::Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  pathlog::Status Rename(const std::string& from,
                         const std::string& to) override;
  pathlog::Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  pathlog::Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  pathlog::Result<std::vector<std::string>> ListDir(
      const std::string& path) override {
    return base_->ListDir(path);
  }

 private:
  friend class TimingWritableFile;

  /// Opens the span for one call and starts its clock; Finish records
  /// it.
  struct Timer {
    int span = -1;
    std::chrono::steady_clock::time_point t0;
  };
  Timer Start(FileClass c, FileOp op);
  void Finish(const Timer& t, FileClass c, FileOp op, uint64_t bytes);

  pathlog::FileOps* base_;
  SpanRecorder* recorder_;
  std::array<std::array<FileOpStats, 4>, 3> stats_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_FILE_OPS_H_
