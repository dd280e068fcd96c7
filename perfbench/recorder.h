// The benchmark's own span recorder.
//
// Per-layer attribution must not change with the code it measures, so
// the runner does not use the library's obs/ tracing: it keeps spans
// here, in memory, around the calls it makes into each layer, and
// writes them out once when the run ends. Spans nest on a stack (the
// runner is single-threaded); each carries the id of the read, update
// or phase that caused it, inherited from its parent unless given.

#ifndef PERFBENCH_RECORDER_H_
#define PERFBENCH_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  ///< since the recorder was created
  int64_t end_ns = 0;
  int32_t parent = -1;   ///< index of the enclosing span, -1 at the root
  uint64_t cause = 0;    ///< id of the read, update or phase
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  /// A disabled recorder records nothing; Begin returns -1.
  void set_enabled(bool on) { enabled_ = on; }

  /// A fresh cause id (1, 2, ...).
  uint64_t NewCause() { return ++last_cause_; }

  /// Opens a span under the innermost open one. `cause` 0 inherits the
  /// parent's cause. Returns the span's index, or -1 when disabled.
  int Begin(std::string_view name, uint64_t cause = 0);
  /// Closes span `id` (which must be the innermost open one); -1 is a
  /// no-op.
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  double Seconds(int id) const;
  /// Duration minus the part its direct children cover.
  double SelfSeconds(int id) const { return Seconds(id) - ChildSeconds(id); }

  /// Writes every span as a Chrome trace ("X" events, args carrying
  /// parent, cause and self time), with `metadata_json` — one JSON
  /// object — stored under "metadata".
  pathlog::Status WriteJson(const std::string& path,
                            const std::string& metadata_json) const;

  /// RAII span; tolerates a null recorder.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string_view name, uint64_t cause = 0)
        : recorder_(recorder),
          id_(recorder != nullptr ? recorder->Begin(name, cause) : -1) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int id() const { return id_; }

   private:
    SpanRecorder* recorder_;
    int id_;
  };

 private:
  int64_t NowNs() const;
  /// Total duration of the direct children of `id`.
  double ChildSeconds(int id) const;

  std::chrono::steady_clock::time_point epoch_;
  bool enabled_ = true;
  uint64_t last_cause_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RECORDER_H_
