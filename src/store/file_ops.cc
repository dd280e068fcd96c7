#include "store/file_ops.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "base/strings.h"

namespace pathlog {

namespace {

std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Errnos that describe a condition of the moment — a full disk, a bad
/// block, a busy device — rather than a caller mistake. These map to
/// kUnavailable so the durability layer knows a retry may succeed.
bool ErrnoIsTransient(int err) {
  switch (err) {
    case EIO:
    case ENOSPC:
#ifdef EDQUOT
    case EDQUOT:
#endif
    case EAGAIN:
    case EBUSY:
    case ETIMEDOUT:
      return true;
    default:
      return false;
  }
}

Status ErrnoStatus(const std::string& op, const std::string& path) {
  std::string message = StrCat(op, " ", path, ": ", std::strerror(errno));
  if (ErrnoIsTransient(errno)) return Unavailable(std::move(message));
  return InvalidArgument(std::move(message));
}

class PosixWritableFile : public FileOps::WritableFile {
 public:
  PosixWritableFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write", path_);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int rc = ::close(fd_);
    fd_ = -1;
    if (rc != 0) return ErrnoStatus("close", path_);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixFileOps : public FileOps {
 public:
  Result<std::string> ReadFile(const std::string& path) override {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status(NotFound(StrCat("cannot open ", path)));
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad()) return Status(ErrnoStatus("read", path));
    return bytes;
  }

  bool Exists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Result<std::unique_ptr<WritableFile>> OpenForWrite(const std::string& path,
                                                     bool truncate) override {
    int flags = O_WRONLY | O_CREAT | (truncate ? O_TRUNC : O_APPEND);
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return Status(ErrnoStatus("open", path));
    return std::unique_ptr<WritableFile>(
        new PosixWritableFile(fd, path));
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return ErrnoStatus("unlink", path);
    }
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename", from);
    }
    // The rename itself is metadata; fsync the directory so the new
    // name survives a crash (otherwise recovery could see the old
    // file even though the caller was told the replace succeeded).
    return SyncDir(ParentDir(to));
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return ErrnoStatus("truncate", path);
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& path) override {
    // mkdir -p: create each component, tolerating existing ones.
    std::string prefix;
    size_t pos = 0;
    while (pos <= path.size()) {
      size_t slash = path.find('/', pos);
      if (slash == std::string::npos) slash = path.size();
      prefix = path.substr(0, slash);
      pos = slash + 1;
      if (prefix.empty()) continue;
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        return ErrnoStatus("mkdir", prefix);
      }
    }
    // EEXIST above also tolerates a plain file squatting on the name;
    // callers are about to create files *inside* the path, so fail
    // loudly here instead of with a confusing ENOTDIR later.
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return ErrnoStatus("stat", path);
    if (!S_ISDIR(st.st_mode)) {
      return InvalidArgument(StrCat(path, " exists and is not a directory"));
    }
    return Status::OK();
  }

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    DIR* d = ::opendir(path.c_str());
    if (d == nullptr) return Status(ErrnoStatus("opendir", path));
    std::vector<std::string> names;
    while (struct dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      struct stat st;
      if (::stat(StrCat(path, "/", name).c_str(), &st) == 0 &&
          S_ISREG(st.st_mode)) {
        names.push_back(std::move(name));
      }
    }
    ::closedir(d);
    return names;
  }

 private:
  static Status SyncDir(const std::string& dir) {
    int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0) return ErrnoStatus("open dir", dir);
    int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return ErrnoStatus("fsync dir", dir);
    return Status::OK();
  }
};

Status SimulatedCrash() {
  return Internal("simulated crash: file system is down");
}

}  // namespace

FileOps* DefaultFileOps() {
  static PosixFileOps* ops = new PosixFileOps();
  return ops;
}

bool IsTransientIoError(const Status& st) {
  return st.code() == StatusCode::kUnavailable;
}

Status WriteFileAtomic(FileOps* ops, const std::string& path,
                       std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  Result<std::unique_ptr<FileOps::WritableFile>> file =
      ops->OpenForWrite(tmp, /*truncate=*/true);
  if (!file.ok()) return file.status();
  Status st = (*file)->Append(bytes);
  if (st.ok()) st = (*file)->Sync();
  if (st.ok()) st = (*file)->Close();
  if (st.ok()) st = ops->Rename(tmp, path);
  if (!st.ok()) (void)ops->Remove(tmp);
  return st;
}

// --- FaultInjectingFileOps ------------------------------------------

/// Handle into the in-memory FS. All state lives in the parent so a
/// simulated crash invalidates every handle at once. Named (not in the
/// anonymous namespace) so the friend declaration in the header binds.
class FaultInjectingWritableFile : public FileOps::WritableFile {
 public:
  FaultInjectingWritableFile(FaultInjectingFileOps* fs, std::string path)
      : fs_(fs), path_(std::move(path)) {}

  Status Append(std::string_view data) override;
  Status Sync() override;
  Status Close() override { return Status::OK(); }

 private:
  FaultInjectingFileOps* fs_;
  std::string path_;
};

void FaultInjectingFileOps::ArmFault(FaultKind kind, uint64_t nth) {
  SetSchedule(
      {{FaultEvent{FaultOp::kAny, nth, 1, kind, StatusCode::kInternal}}});
}

void FaultInjectingFileOps::SetSchedule(FaultSchedule schedule) {
  schedule_ = std::move(schedule);
  for (uint64_t& c : sched_counts_) c = 0;
}

void FaultInjectingFileOps::RecoverAfterCrash(const KeepPrefix& keep) {
  for (auto& [path, state] : files_) {
    // Tear every unsynced tail: an arbitrary prefix survives. Half
    // exercises both "some bytes landed" and "some were lost".
    const size_t kept =
        keep ? keep(path, state.unsynced) : state.unsynced.size() / 2;
    state.durable += state.unsynced.substr(0, kept);
    state.unsynced.clear();
  }
  crashed_ = false;
}

FaultInjectingFileOps::FaultDecision FaultInjectingFileOps::TickWriteOp(
    FaultOp op) {
  ++op_count_;
  ++sched_counts_[static_cast<size_t>(FaultOp::kAny)];
  ++sched_counts_[static_cast<size_t>(op)];
  for (const FaultEvent& e : schedule_.events) {
    if (e.op != FaultOp::kAny && e.op != op) continue;
    const uint64_t n = sched_counts_[static_cast<size_t>(e.op)];
    if (n < e.at || n >= e.at + e.count) continue;
    if (e.kind == FaultKind::kCrash) crashed_ = true;
    return {e.kind, e.code};
  }
  return {FaultKind::kNone, StatusCode::kInternal};
}

Status FaultInjectingFileOps::FaultStatus(const FaultDecision& decision,
                                          const char* what) {
  return Status(decision.code, StrCat("injected fault: ", what));
}

Result<std::string> FaultInjectingFileOps::ReadFile(const std::string& path) {
  if (crashed_) return Status(SimulatedCrash());
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status(NotFound(StrCat("cannot open ", path)));
  }
  return it->second.View();
}

bool FaultInjectingFileOps::Exists(const std::string& path) {
  return !crashed_ && (files_.count(path) > 0 || dirs_.count(path) > 0);
}

Result<std::unique_ptr<FileOps::WritableFile>>
FaultInjectingFileOps::OpenForWrite(const std::string& path, bool truncate) {
  if (crashed_) return Status(SimulatedCrash());
  FaultDecision d = TickWriteOp(FaultOp::kOpen);
  if (d.kind == FaultKind::kCrash) return Status(SimulatedCrash());
  if (d.kind != FaultKind::kNone) return Status(FaultStatus(d, "open"));
  FileState& state = files_[path];
  if (truncate) {
    // Truncation of an existing file is itself a write: the old
    // durable content is gone immediately (as with O_TRUNC).
    state.durable.clear();
    state.unsynced.clear();
  }
  return std::unique_ptr<WritableFile>(
      new FaultInjectingWritableFile(this, path));
}

Status FaultInjectingFileOps::Remove(const std::string& path) {
  if (crashed_) return SimulatedCrash();
  FaultDecision d = TickWriteOp(FaultOp::kRemove);
  if (d.kind == FaultKind::kCrash) return SimulatedCrash();
  if (d.kind != FaultKind::kNone) return FaultStatus(d, "remove");
  files_.erase(path);
  return Status::OK();
}

Status FaultInjectingFileOps::Rename(const std::string& from,
                                     const std::string& to) {
  if (crashed_) return SimulatedCrash();
  FaultDecision d = TickWriteOp(FaultOp::kRename);
  if (d.kind == FaultKind::kCrash) return SimulatedCrash();
  if (d.kind != FaultKind::kNone) return FaultStatus(d, "rename");
  auto it = files_.find(from);
  if (it == files_.end()) return NotFound(StrCat("rename: no ", from));
  // Atomic and durable: whatever of `from` was durable stays durable
  // under the new name; its unsynced tail remains unsynced.
  files_[to] = std::move(it->second);
  files_.erase(it);
  return Status::OK();
}

Status FaultInjectingFileOps::Truncate(const std::string& path,
                                       uint64_t size) {
  if (crashed_) return SimulatedCrash();
  FaultDecision d = TickWriteOp(FaultOp::kTruncate);
  if (d.kind == FaultKind::kCrash) return SimulatedCrash();
  if (d.kind != FaultKind::kNone) return FaultStatus(d, "truncate");
  auto it = files_.find(path);
  if (it == files_.end()) return NotFound(StrCat("truncate: no ", path));
  std::string all = it->second.View();
  if (size < all.size()) all.resize(size);
  // Truncation is applied in place and treated as durable (the torture
  // test only truncates during recovery, before new appends).
  it->second.durable = std::move(all);
  it->second.unsynced.clear();
  return Status::OK();
}

Status FaultInjectingFileOps::CreateDir(const std::string& path) {
  if (crashed_) return SimulatedCrash();
  dirs_[path] = true;
  return Status::OK();
}

Result<std::vector<std::string>> FaultInjectingFileOps::ListDir(
    const std::string& path) {
  if (crashed_) return Status(SimulatedCrash());
  // Read-side: never ticks the fault counters.
  std::vector<std::string> names;
  const std::string prefix = path + "/";
  for (const auto& [p, state] : files_) {
    if (p.size() <= prefix.size() || p.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    std::string rest = p.substr(prefix.size());
    if (rest.find('/') == std::string::npos) names.push_back(std::move(rest));
  }
  return names;
}

Status FaultInjectingWritableFile::Append(std::string_view data) {
  if (fs_->crashed_) return SimulatedCrash();
  FaultInjectingFileOps::FaultDecision d =
      fs_->TickWriteOp(FaultInjectingFileOps::FaultOp::kAppend);
  auto it = fs_->files_.find(path_);
  if (it == fs_->files_.end()) {
    return NotFound(StrCat("append: no ", path_));
  }
  switch (d.kind) {
    case FaultInjectingFileOps::FaultKind::kNone:
      it->second.unsynced.append(data);
      return Status::OK();
    case FaultInjectingFileOps::FaultKind::kShortWrite:
      it->second.unsynced.append(data.substr(0, data.size() / 2));
      return FaultInjectingFileOps::FaultStatus(d, "short write");
    case FaultInjectingFileOps::FaultKind::kCrash:
      // The crash lands mid-write: a prefix may have reached the
      // page cache before the process died.
      it->second.unsynced.append(data.substr(0, data.size() / 2));
      return SimulatedCrash();
    case FaultInjectingFileOps::FaultKind::kFail:
    default:
      return FaultInjectingFileOps::FaultStatus(d, "write");
  }
}

Status FaultInjectingWritableFile::Sync() {
  if (fs_->crashed_) return SimulatedCrash();
  FaultInjectingFileOps::FaultDecision d =
      fs_->TickWriteOp(FaultInjectingFileOps::FaultOp::kSync);
  if (d.kind == FaultInjectingFileOps::FaultKind::kCrash) {
    return SimulatedCrash();
  }
  if (d.kind != FaultInjectingFileOps::FaultKind::kNone) {
    return FaultInjectingFileOps::FaultStatus(d, "fsync");
  }
  auto it = fs_->files_.find(path_);
  if (it == fs_->files_.end()) return NotFound(StrCat("fsync: no ", path_));
  it->second.durable += it->second.unsynced;
  it->second.unsynced.clear();
  return Status::OK();
}

}  // namespace pathlog
