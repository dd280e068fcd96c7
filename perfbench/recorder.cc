#include "recorder.h"

#include <cinttypes>
#include <cstdio>

#include "store/file_ops.h"

namespace perfbench {

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanRecorder::Begin(std::string_view name, uint64_t cause) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::string(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.cause = cause != 0 || s.parent < 0 ? cause : spans_[s.parent].cause;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  if (id < 0) return;
  spans_[id].end_ns = NowNs();
  // Close anything a caller left open inside `id` along with it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
    spans_[top].end_ns = spans_[id].end_ns;
  }
}

double SpanRecorder::Seconds(int id) const {
  if (id < 0) return 0;
  return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) * 1e-9;
}

double SpanRecorder::ChildSeconds(int id) const {
  if (id < 0) return 0;
  // Spans are appended in start order and nest, so the descendants of
  // `id` are exactly the spans after it that start before it ends.
  double total = 0;
  for (size_t j = static_cast<size_t>(id) + 1;
       j < spans_.size() && spans_[j].start_ns < spans_[id].end_ns; ++j) {
    if (spans_[j].parent == id) total += Seconds(static_cast<int>(j));
  }
  return total;
}

pathlog::Status SpanRecorder::WriteJson(
    const std::string& path, const std::string& metadata_json) const {
  std::string out = "{\"metadata\":" + metadata_json + ",\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"cause\":%" PRIu64 ",\"self_us\":%.3f}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, s.cause,
                  SelfSeconds(static_cast<int>(i)) * 1e6);
    out += buf;
  }
  out += "\n]}\n";
  return pathlog::WriteFileAtomic(pathlog::DefaultFileOps(), path, out);
}

}  // namespace perfbench
