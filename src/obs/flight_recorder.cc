#include "obs/flight_recorder.h"

#include <algorithm>

#include "obs/json.h"

namespace pathlog {

namespace {

/// Acquires a slot's try-lock, spinning at most `spins` times.
bool TryLock(std::atomic<uint32_t>* busy, int spins) {
  for (int i = 0; i < spins; ++i) {
    uint32_t expected = 0;
    if (busy->compare_exchange_strong(expected, 1,
                                      std::memory_order_acquire)) {
      return true;
    }
  }
  return false;
}

void Unlock(std::atomic<uint32_t>* busy) {
  busy->store(0, std::memory_order_release);
}

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(std::make_unique<Slot[]>(capacity == 0 ? 1 : capacity)),
      epoch_ns_(SteadyNowNs()) {}

void FlightRecorder::Record(std::string_view name, std::string_view category,
                            uint64_t dur_us, std::string_view args_json) {
  const uint64_t now = NowUs();
  Put(name, category, /*instant=*/dur_us == 0, now > dur_us ? now - dur_us : 0,
      dur_us, args_json);
}

void FlightRecorder::RecordSpan(std::string_view name,
                                std::string_view category, uint64_t start_us,
                                uint64_t dur_us, std::string_view args_json) {
  Put(name, category, /*instant=*/false, start_us, dur_us, args_json);
}

void FlightRecorder::Put(std::string_view name, std::string_view category,
                         bool instant, uint64_t ts_us, uint64_t dur_us,
                         std::string_view args_json) {
  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % capacity_];
  // One attempt only: the slot is busy exactly when another writer
  // lapped the ring onto it or a reader is copying it — dropping this
  // event beats stalling the caller.
  if (!TryLock(&slot.busy, 1)) return;
  slot.event.seq = seq;
  slot.event.ts_us = ts_us;
  slot.event.dur_us = dur_us;
  slot.event.instant = instant;
  slot.event.name.assign(name);
  slot.event.category.assign(category);
  slot.event.args_json.assign(args_json);
  slot.filled.store(true, std::memory_order_relaxed);
  Unlock(&slot.busy);
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> out;
  out.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    Slot& slot = slots_[i];
    if (!slot.filled.load(std::memory_order_relaxed)) continue;
    if (!TryLock(&slot.busy, 64)) continue;  // being overwritten: skip
    out.push_back(slot.event);
    Unlock(&slot.busy);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::string FlightRecorder::ToTraceJson() const {
  const uint64_t recorded = this->recorded();
  std::vector<FlightEvent> events = Snapshot();
  // Chrome trace viewers sort by ts; rendering in ts order keeps the
  // file human-scannable too.
  std::stable_sort(events.begin(), events.end(),
                   [](const FlightEvent& a, const FlightEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const FlightEvent& e : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    AppendJsonString(&out, e.name);
    out += ",\"cat\":";
    AppendJsonString(&out, e.category);
    if (e.instant) {
      out += ",\"ph\":\"i\"";
    } else {
      out += ",\"ph\":\"X\",\"dur\":";
      AppendJsonNumber(&out, static_cast<double>(e.dur_us));
    }
    out += ",\"ts\":";
    AppendJsonNumber(&out, static_cast<double>(e.ts_us));
    out += ",\"pid\":1,\"tid\":1";
    if (e.instant) out += ",\"s\":\"t\"";
    if (!e.args_json.empty()) {
      out += ",\"args\":";
      out += e.args_json;
    }
    out += "}";
  }
  // Events recorded while the snapshot ran may be kept yet not
  // counted in `recorded`; clamp rather than report a wrapped count.
  const uint64_t kept = events.size();
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"capacity\":";
  out += std::to_string(capacity_);
  out += ",\"recorded\":";
  out += std::to_string(recorded);
  out += ",\"dropped\":";
  out += std::to_string(recorded > kept ? recorded - kept : 0);
  out += "}}";
  return out;
}

Status FlightRecorder::WriteTo(const std::string& path, FileOps* fops) const {
  if (fops == nullptr) fops = DefaultFileOps();
  return WriteFileAtomic(fops, path, ToTraceJson());
}

void FlightSpan::End() {
  const uint64_t now = recorder_->NowUs();
  // now < start when a concurrent Reset() moved the epoch mid-span:
  // record a zero-length span at the new clock instead of a wrapped
  // duration.
  const uint64_t start = now >= start_us_ ? start_us_ : now;
  std::string args;
  if (!arg_key_.empty()) {
    args.append("{\"").append(arg_key_).append("\":");
    args.append(std::to_string(arg_)).append("}");
  }
  recorder_->RecordSpan(name_, category_, start, now - start, args);
}

void FlightRecorder::Reset() {
  for (size_t i = 0; i < capacity_; ++i) {
    Slot& slot = slots_[i];
    if (!TryLock(&slot.busy, 1024)) continue;
    slot.filled.store(false, std::memory_order_relaxed);
    slot.event = FlightEvent{};
    Unlock(&slot.busy);
  }
  next_.store(0, std::memory_order_relaxed);
  epoch_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
}

}  // namespace pathlog
