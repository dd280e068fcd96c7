#include "timing_file_ops.h"

namespace perfbench {

namespace {

// Span names by class and op; appends get no span.
constexpr const char* kSpanNames[3][4] = {
    {nullptr, "file.wal.sync", "file.wal.rename", "file.wal.read"},
    {nullptr, "file.snapshot.sync", "file.snapshot.rename",
     "file.snapshot.read"},
    {nullptr, "file.other.sync", "file.other.rename", "file.other.read"},
};

}  // namespace

FileClass ClassifyPath(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (name.rfind("wal.plgwal", 0) == 0) return FileClass::kWal;
  if (name.rfind("snapshot.plgdb", 0) == 0) return FileClass::kSnapshot;
  return FileClass::kOther;
}

/// Forwards to the wrapped file and reports each Append and Sync to
/// the owning TimingFileOps.
class TimingWritableFile : public pathlog::FileOps::WritableFile {
 public:
  TimingWritableFile(std::unique_ptr<WritableFile> base, TimingFileOps* owner,
                     FileClass c)
      : base_(std::move(base)), owner_(owner), class_(c) {}

  pathlog::Status Append(std::string_view data) override {
    TimingFileOps::Timer t = owner_->Start(class_, FileOp::kAppend);
    pathlog::Status st = base_->Append(data);
    owner_->Finish(t, class_, FileOp::kAppend, data.size());
    return st;
  }
  pathlog::Status Sync() override {
    TimingFileOps::Timer t = owner_->Start(class_, FileOp::kSync);
    pathlog::Status st = base_->Sync();
    owner_->Finish(t, class_, FileOp::kSync, 0);
    return st;
  }
  pathlog::Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  TimingFileOps* owner_;
  FileClass class_;
};

double TimingFileOps::Seconds(FileClass c) const {
  double total = 0;
  for (const FileOpStats& s : stats_[static_cast<size_t>(c)]) {
    total += s.seconds;
  }
  return total;
}

double TimingFileOps::Seconds() const {
  return Seconds(FileClass::kWal) + Seconds(FileClass::kSnapshot) +
         Seconds(FileClass::kOther);
}

TimingFileOps::Timer TimingFileOps::Start(FileClass c, FileOp op) {
  Timer t;
  const char* name =
      kSpanNames[static_cast<size_t>(c)][static_cast<size_t>(op)];
  if (recorder_ != nullptr && name != nullptr) t.span = recorder_->Begin(name);
  t.t0 = std::chrono::steady_clock::now();
  return t;
}

void TimingFileOps::Finish(const Timer& t, FileClass c, FileOp op,
                           uint64_t bytes) {
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t.t0)
                             .count();
  if (recorder_ != nullptr) recorder_->End(t.span);
  FileOpStats& s = stats_[static_cast<size_t>(c)][static_cast<size_t>(op)];
  ++s.count;
  s.bytes += bytes;
  s.seconds += seconds;
  if (op == FileOp::kSync) s.samples.push_back(seconds);
}

pathlog::Result<std::string> TimingFileOps::ReadFile(const std::string& path) {
  const FileClass c = ClassifyPath(path);
  Timer t = Start(c, FileOp::kRead);
  pathlog::Result<std::string> bytes = base_->ReadFile(path);
  Finish(t, c, FileOp::kRead, bytes.ok() ? bytes->size() : 0);
  return bytes;
}

pathlog::Result<std::unique_ptr<pathlog::FileOps::WritableFile>>
TimingFileOps::OpenForWrite(const std::string& path, bool truncate) {
  pathlog::Result<std::unique_ptr<WritableFile>> file =
      base_->OpenForWrite(path, truncate);
  if (!file.ok()) return file.status();
  return std::unique_ptr<WritableFile>(new TimingWritableFile(
      std::move(file).value(), this, ClassifyPath(path)));
}

pathlog::Status TimingFileOps::Rename(const std::string& from,
                                      const std::string& to) {
  const FileClass c = ClassifyPath(to);
  Timer t = Start(c, FileOp::kRename);
  pathlog::Status st = base_->Rename(from, to);
  Finish(t, c, FileOp::kRename, 0);
  return st;
}

}  // namespace perfbench
