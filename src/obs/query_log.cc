#include "obs/query_log.h"

#include <algorithm>
#include <utility>

#include "base/strings.h"
#include "obs/json.h"

namespace pathlog {

std::string QueryLogRecordToJson(const QueryLogRecord& rec) {
  std::string out = "{\"ts_ms\":";
  AppendJsonNumber(&out, static_cast<double>(rec.ts_ms));
  out += ",\"kind\":";
  AppendJsonString(&out, rec.kind);
  out += ",\"query\":";
  AppendJsonString(&out, rec.query);
  out += ",\"status\":";
  AppendJsonString(&out, rec.status);
  out += ",\"latency_ms\":";
  AppendJsonNumber(&out, rec.latency_ms);
  out += ",\"rows\":";
  AppendJsonNumber(&out, static_cast<double>(rec.rows));
  out += ",\"strategy\":";
  AppendJsonString(&out, rec.strategy);
  out += ",\"plan_fingerprint\":";
  AppendJsonString(&out, rec.plan_fingerprint);
  out += ",\"slow\":";
  out += rec.slow ? "true" : "false";
  out += ",\"budget\":{\"derivations\":";
  AppendJsonNumber(&out, static_cast<double>(rec.budget_derivations));
  out += ",\"store_bytes\":";
  AppendJsonNumber(&out, static_cast<double>(rec.budget_store_bytes));
  out += ",\"wall_ms\":";
  AppendJsonNumber(&out, rec.budget_wall_ms);
  out += ",\"rejected\":";
  out += rec.budget_rejected ? "true" : "false";
  out += "},\"routes\":{\"receiver_probes\":";
  AppendJsonNumber(&out, static_cast<double>(rec.route_receiver_probes));
  out += ",\"inverted_probes\":";
  AppendJsonNumber(&out, static_cast<double>(rec.route_inverted_probes));
  out += ",\"extent_scans\":";
  AppendJsonNumber(&out, static_cast<double>(rec.route_extent_scans));
  out += ",\"universe_scans\":";
  AppendJsonNumber(&out, static_cast<double>(rec.route_universe_scans));
  out += ",\"duplicates_suppressed\":";
  AppendJsonNumber(&out,
                   static_cast<double>(rec.route_duplicates_suppressed));
  out += "}}";
  return out;
}

QueryLog::QueryLog(QueryLogOptions options)
    : options_(std::move(options)),
      fops_(options_.fops != nullptr ? options_.fops : DefaultFileOps()) {}

QueryLog::~QueryLog() {
  MutexLock lock(&mu_);
  if (file_ != nullptr) (void)file_->Close();
}

Status QueryLog::EnsureOpenLocked() {
  if (file_ != nullptr) return Status::OK();
  Result<std::unique_ptr<FileOps::WritableFile>> file =
      fops_->OpenForWrite(options_.path, /*truncate=*/false);
  if (!file.ok()) return file.status();
  file_ = std::move(*file);
  return Status::OK();
}

Status QueryLog::AppendLineLocked(const std::string& line) {
  if (options_.rotate_bytes > 0 && file_ != nullptr &&
      file_bytes_ + line.size() > options_.rotate_bytes &&
      file_bytes_ > 0) {
    PATHLOG_RETURN_IF_ERROR(file_->Close());
    file_.reset();
    PATHLOG_RETURN_IF_ERROR(
        fops_->Rename(options_.path, options_.path + ".1"));
    file_bytes_ = 0;
    ++rotations_;
  }
  PATHLOG_RETURN_IF_ERROR(EnsureOpenLocked());
  PATHLOG_RETURN_IF_ERROR(file_->Append(line));
  file_bytes_ += line.size();
  return Status::OK();
}

Status QueryLog::Append(QueryLogRecord rec) {
  rec.slow = rec.latency_ms > options_.slow_query_ms;
  std::string line = QueryLogRecordToJson(rec);
  line += "\n";

  MutexLock lock(&mu_);
  recent_.push_back(line.substr(0, line.size() - 1));
  while (recent_.size() > options_.recent_capacity) recent_.pop_front();
  ++records_written_;
  if (options_.path.empty() || !file_error_.ok()) return file_error_;
  Status st = AppendLineLocked(line);
  if (!st.ok()) file_error_ = st;  // latch: keep serving, stop writing
  return st;
}

std::vector<std::string> QueryLog::Recent(size_t n) const {
  MutexLock lock(&mu_);
  const size_t count = std::min(n, recent_.size());
  return std::vector<std::string>(recent_.end() - count, recent_.end());
}

uint64_t QueryLog::records_written() const {
  MutexLock lock(&mu_);
  return records_written_;
}

uint64_t QueryLog::rotations() const {
  MutexLock lock(&mu_);
  return rotations_;
}

Status QueryLog::file_error() const {
  MutexLock lock(&mu_);
  return file_error_;
}

}  // namespace pathlog
