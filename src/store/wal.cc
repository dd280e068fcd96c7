#include "store/wal.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "base/coding.h"
#include "base/crc32.h"
#include "base/strings.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace pathlog {

std::string EncodeWalIntern(Oid oid, ObjectKind kind, int64_t int_value,
                            std::string_view text) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(WalRecordType::kIntern));
  PutU32(&out, oid);
  PutU8(&out, static_cast<uint8_t>(kind));
  if (kind == ObjectKind::kInt) {
    PutU64(&out, static_cast<uint64_t>(int_value));
  } else {
    PutU32(&out, static_cast<uint32_t>(text.size()));
    out.append(text);
  }
  return out;
}

std::string EncodeWalFact(uint64_t gen, const Fact& fact) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(WalRecordType::kFact));
  PutU64(&out, gen);
  PutU8(&out, static_cast<uint8_t>(fact.kind));
  PutU32(&out, fact.method);
  PutU32(&out, fact.recv);
  PutU32(&out, static_cast<uint32_t>(fact.args.size()));
  for (Oid a : fact.args) PutU32(&out, a);
  PutU32(&out, fact.value);
  return out;
}

std::string EncodeWalProgram(std::string_view program_text) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(WalRecordType::kProgram));
  PutU32(&out, static_cast<uint32_t>(program_text.size()));
  out.append(program_text);
  return out;
}

std::string EncodeWalTriggerWatermark(uint64_t watermark) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(WalRecordType::kTriggerWatermark));
  PutU64(&out, watermark);
  return out;
}

std::string EncodeWalMaterialisation(bool materialised) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(WalRecordType::kMaterialisation));
  PutU8(&out, materialised ? 1 : 0);
  return out;
}

void AppendWalFrame(std::string* out, std::string_view payload) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Crc32(payload));
  out->append(payload);
}

namespace {

/// Decodes one payload. nullopt-style failure via Status: a payload
/// that passed its CRC but does not decode is corruption, not a torn
/// tail.
Result<WalRecord> DecodePayload(std::string_view payload) {
  ByteReader r(payload);
  WalRecord rec;
  const uint8_t type = r.U8();
  switch (type) {
    case static_cast<uint8_t>(WalRecordType::kIntern): {
      rec.type = WalRecordType::kIntern;
      rec.oid = r.U32();
      const uint8_t kind = r.U8();
      if (kind > static_cast<uint8_t>(ObjectKind::kAnonymous)) {
        return Status(InvalidArgument("wal corrupt: unknown object kind"));
      }
      rec.obj_kind = static_cast<ObjectKind>(kind);
      if (rec.obj_kind == ObjectKind::kInt) {
        rec.int_value = r.I64();
      } else {
        const uint32_t len = r.U32();
        rec.text = std::string(r.Bytes(len));
      }
      break;
    }
    case static_cast<uint8_t>(WalRecordType::kFact): {
      rec.type = WalRecordType::kFact;
      rec.gen = r.U64();
      const uint8_t kind = r.U8();
      if (kind > static_cast<uint8_t>(FactKind::kSetMember)) {
        return Status(InvalidArgument("wal corrupt: unknown fact kind"));
      }
      rec.fact.kind = static_cast<FactKind>(kind);
      rec.fact.method = r.U32();
      rec.fact.recv = r.U32();
      const uint32_t argc = r.U32();
      // An argc that implies more bytes than the payload holds is
      // rejected before the vector is sized (a flipped length byte
      // must not turn into a giant allocation).
      if (!r.Ok() || argc * 4ull > r.remaining()) {
        return Status(InvalidArgument("wal corrupt: fact argc overruns"));
      }
      rec.fact.args.resize(argc);
      for (uint32_t i = 0; i < argc; ++i) rec.fact.args[i] = r.U32();
      rec.fact.value = r.U32();
      break;
    }
    case static_cast<uint8_t>(WalRecordType::kProgram): {
      rec.type = WalRecordType::kProgram;
      const uint32_t len = r.U32();
      rec.text = std::string(r.Bytes(len));
      break;
    }
    case static_cast<uint8_t>(WalRecordType::kTriggerWatermark): {
      rec.type = WalRecordType::kTriggerWatermark;
      rec.watermark = r.U64();
      break;
    }
    case static_cast<uint8_t>(WalRecordType::kMaterialisation): {
      rec.type = WalRecordType::kMaterialisation;
      const uint8_t materialised = r.U8();
      if (materialised > 1) {
        return Status(InvalidArgument("wal corrupt: unknown mark value"));
      }
      rec.materialised = materialised == 1;
      break;
    }
    default:
      return Status(InvalidArgument(
          StrCat("wal corrupt: unknown record type ", type)));
  }
  if (!r.Ok()) {
    return Status(InvalidArgument("wal corrupt: payload truncated"));
  }
  if (r.remaining() != 0) {
    return Status(InvalidArgument("wal corrupt: payload has trailing bytes"));
  }
  return rec;
}

}  // namespace

Result<WalExtent> ScanWal(std::string_view bytes,
                          const std::function<Status(WalRecord&)>& visit) {
  WalExtent extent;
  if (bytes.size() < kWalMagicLen) {
    // Crash during log creation: only part of the header landed.
    extent.torn = true;
    extent.valid_bytes = 0;
    return extent;
  }
  if (std::memcmp(bytes.data(), kWalMagic, kWalMagicLen) != 0) {
    return Status(InvalidArgument("not a PathLog WAL (bad magic)"));
  }
  size_t pos = kWalMagicLen;
  while (pos < bytes.size()) {
    // Frame header: u32 len + u32 crc.
    if (bytes.size() - pos < 8) break;  // torn
    uint32_t len = 0, crc = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[pos + i]))
             << (8 * i);
      crc |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[pos + 4 + i]))
             << (8 * i);
    }
    if (bytes.size() - pos - 8 < len) break;  // torn payload
    std::string_view payload = bytes.substr(pos + 8, len);
    if (Crc32(payload) != crc) break;  // torn or flipped: drop the tail
    Result<WalRecord> rec = DecodePayload(payload);
    if (!rec.ok()) return rec.status();  // intact CRC, bad content
    PATHLOG_RETURN_IF_ERROR(visit(*rec));
    pos += 8 + len;
  }
  extent.valid_bytes = pos;
  extent.torn = pos != bytes.size();
  return extent;
}

Result<WalScan> ScanWal(std::string_view bytes) {
  WalScan scan;
  Result<WalExtent> extent = ScanWal(bytes, [&scan](WalRecord& rec) {
    scan.records.push_back(std::move(rec));
    return Status::OK();
  });
  if (!extent.ok()) return extent.status();
  static_cast<WalExtent&>(scan) = *extent;
  return scan;
}

Status ApplyWalRecordToStore(const WalRecord& record, ObjectStore* store) {
  switch (record.type) {
    case WalRecordType::kIntern: {
      if (record.oid < store->UniverseSize()) {
        // Overlap with the snapshot (crash between checkpoint rename
        // and log reset): verify, don't re-create.
        if (store->kind(record.oid) != record.obj_kind) {
          return InvalidArgument(StrCat(
              "wal corrupt: intern ", record.oid, " kind mismatch"));
        }
        return Status::OK();
      }
      if (record.oid != store->UniverseSize()) {
        return InvalidArgument(StrCat(
            "wal corrupt: intern skips to oid ", record.oid, " (universe is ",
            store->UniverseSize(), ")"));
      }
      Oid o = kNilOid;
      switch (record.obj_kind) {
        case ObjectKind::kInt:
          o = store->InternInt(record.int_value);
          break;
        case ObjectKind::kSymbol:
          o = store->InternSymbol(record.text);
          break;
        case ObjectKind::kString:
          o = store->InternString(record.text);
          break;
        case ObjectKind::kAnonymous:
          o = store->NewAnonymous(record.text);
          break;
      }
      if (o != record.oid) {
        return InvalidArgument(StrCat(
            "wal corrupt: intern record for oid ", record.oid,
            " reconstructed as ", o, " (duplicate name?)"));
      }
      return Status::OK();
    }
    case WalRecordType::kFact: {
      const Fact& f = record.fact;
      bool oids_ok = store->Valid(f.method) && store->Valid(f.recv) &&
                     (f.kind == FactKind::kIsa || store->Valid(f.value));
      for (Oid a : f.args) oids_ok = oids_ok && store->Valid(a);
      if (!oids_ok) {
        return InvalidArgument(StrCat(
            "wal corrupt: fact at gen ", record.gen,
            " references an oid outside the object table"));
      }
      if (record.gen < store->generation()) {
        if (!(store->FactAt(record.gen) == f)) {
          return InvalidArgument(StrCat(
              "wal corrupt: fact at gen ", record.gen,
              " disagrees with the snapshot"));
        }
        return Status::OK();
      }
      if (record.gen != store->generation()) {
        return InvalidArgument(StrCat(
            "wal corrupt: fact log skips to gen ", record.gen,
            " (store is at ", store->generation(), ")"));
      }
      switch (f.kind) {
        case FactKind::kIsa:
          return store->AddIsa(f.recv, f.method);
        case FactKind::kScalar:
          return store->SetScalar(f.method, f.recv, f.args, f.value);
        case FactKind::kSetMember:
          store->AddSetMember(f.method, f.recv, f.args, f.value);
          return Status::OK();
      }
      return Internal("unreachable fact kind");
    }
    case WalRecordType::kProgram:
    case WalRecordType::kTriggerWatermark:
    case WalRecordType::kMaterialisation:
      return Status::OK();  // database-level; handled by the caller
  }
  return Internal("unreachable wal record type");
}

namespace {

/// Records a failing WAL operation as a flight instant with the error
/// message attached. No-op on null recorder.
void RecordWalFailure(FlightRecorder* flight, std::string_view op,
                      const Status& st) {
  if (flight == nullptr) return;
  std::string args = "{\"error\":";
  AppendJsonString(&args, st.ToString());
  args += "}";
  flight->Record(op, "wal", /*dur_us=*/0, args);
}

}  // namespace

Result<std::unique_ptr<DurableLog>> DurableLog::Open(
    FileOps* fops, std::string path, DurabilityOptions options,
    const std::function<Status(WalRecord&)>& replay) {
  std::unique_ptr<DurableLog> log(
      new DurableLog(fops, std::move(path), std::move(options)));
  // A missing log scans like one whose creation tore before its magic.
  Result<std::string> bytes = fops->Exists(log->path_)
                                  ? fops->ReadFile(log->path_)
                                  : Result<std::string>(std::string());
  if (!bytes.ok()) return bytes.status();
  Result<WalExtent> scan = ScanWal(*bytes, replay);
  if (!scan.ok()) return scan.status();
  if (scan->valid_bytes < kWalMagicLen) {
    PATHLOG_RETURN_IF_ERROR(log->Reset());
    return log;
  }
  if (scan->torn) {
    PATHLOG_RETURN_IF_ERROR(fops->Truncate(log->path_, scan->valid_bytes));
  }
  PATHLOG_RETURN_IF_ERROR(log->OpenFile());
  log->good_bytes_ = scan->valid_bytes;
  return log;
}

Status DurableLog::OpenFile() {
  Result<std::unique_ptr<FileOps::WritableFile>> file =
      fops_->OpenForWrite(path_, /*truncate=*/false);
  if (!file.ok()) return file.status();
  file_ = std::move(*file);
  return Status::OK();
}

Status DurableLog::Commit(const std::function<Status(Batch&)>& write) {
  if (!error_.ok()) return error_;
  uint64_t backoff = options_.initial_backoff_ms;
  Status st;
  for (uint32_t retry = 0;; ++retry) {
    // One attempt. A truncate or reopen that failed before it left its
    // error in `st`, which counts as one more failed attempt.
    Batch batch(this);
    if (st.ok()) st = write(batch);
    if (st.ok()) st = batch.Write(batch.buffer_.size());
    if (st.ok() &&
        options_.fsync_policy == DurabilityOptions::FsyncPolicy::kAlways) {
      st = Sync();
    }
    if (st.ok()) {
      good_bytes_ += batch.bytes_;
      records_ += batch.records_;
      return st;
    }
    if (!IsTransientIoError(st) || retry == options_.max_transient_retries) {
      error_ = st;
      return st;
    }
    ++retries_;
    BumpCounter(metrics_, "pathlog_wal_retries_total",
                "transient WAL failures retried with backoff");
    if (options_.backoff_sleep) {
      options_.backoff_sleep(backoff);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    backoff = std::min(backoff * 2, options_.max_backoff_ms);
    // A failed attempt may have torn bytes into the log's middle (a
    // short write); appending past them would corrupt the valid prefix.
    // Cut back to the last length every record of which is known good.
    file_.reset();
    st = fops_->Truncate(path_, good_bytes_);
    if (st.ok()) st = OpenFile();
  }
}

Status DurableLog::Reset() {
  file_.reset();
  error_ = WriteFileAtomic(fops_, path_,
                           std::string_view(kWalMagic, kWalMagicLen));
  if (error_.ok()) error_ = OpenFile();
  if (!error_.ok()) return error_;
  good_bytes_ = kWalMagicLen;
  records_ = 0;
  return Status::OK();
}

void DurableLog::set_obs(MetricsRegistry* metrics, FlightRecorder* flight) {
  metrics_ = metrics;
  flight_ = flight;
  if (metrics == nullptr) {
    appends_ = nullptr;
    append_bytes_ = nullptr;
    fsyncs_ = nullptr;
    fsync_ms_ = nullptr;
    return;
  }
  appends_ = metrics->GetCounter("pathlog_wal_appends_total",
                                 "records appended to the WAL");
  append_bytes_ = metrics->GetCounter("pathlog_wal_append_bytes_total",
                                      "framed bytes appended to the WAL");
  fsyncs_ = metrics->GetCounter("pathlog_wal_fsyncs_total",
                                "fsyncs issued on the WAL");
  fsync_ms_ = metrics->GetHistogram("pathlog_wal_fsync_ms",
                                    DefaultLatencyBoundsMs(),
                                    "WAL fsync latency in milliseconds");
}

Status DurableLog::Batch::Append(std::string_view payload) {
  DurableLog& log = *log_;
  const size_t before = buffer_.size();
  AppendWalFrame(&buffer_, payload);
  const size_t frame = buffer_.size() - before;
  if (log.appends_ != nullptr) log.appends_->Inc();
  if (log.append_bytes_ != nullptr) log.append_bytes_->Inc(frame);
  ++records_;
  bytes_ += frame;
  return buffer_.size() < kChunkBytes
             ? Status::OK()
             : Write(buffer_.size() - buffer_.size() % kChunkBytes);
}

Status DurableLog::Batch::Write(size_t n) {
  for (size_t off = 0; off < n; off += kChunkBytes) {
    Status st = log_->file_->Append(
        std::string_view(buffer_).substr(off, std::min(kChunkBytes, n - off)));
    if (!st.ok()) {
      RecordWalFailure(log_->flight_, "wal.append", st);
      return st;
    }
  }
  buffer_.erase(0, n);
  return Status::OK();
}

Status DurableLog::Sync() {
  FlightSpan span(flight_, "wal.fsync", "wal");
  const auto t0 = std::chrono::steady_clock::now();
  Status st = file_->Sync();
  if (fsyncs_ != nullptr) fsyncs_->Inc();
  if (fsync_ms_ != nullptr) {
    fsync_ms_->Observe(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  if (!st.ok()) RecordWalFailure(flight_, "wal.fsync", st);
  return st;
}

}  // namespace pathlog
