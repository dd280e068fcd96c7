#include "store/snapshot.h"

#include <cstring>
#include <unordered_map>

#include "base/coding.h"
#include "base/crc32.h"
#include "base/strings.h"

namespace pathlog {

namespace {

constexpr char kMagicV1[] = "PLGSNAP1";
constexpr char kMagicV2[] = "PLGSNAP2";
constexpr size_t kMagicLen = 8;

/// The stored bytes of a non-integer object: its display name, less
/// the quotes a string displays with.
std::string_view RawName(const ObjectStore& store, Oid o) {
  std::string_view name = store.DisplayName(o);
  if (store.kind(o) == ObjectKind::kString) {
    name = name.substr(1, name.size() - 2);
  }
  return name;
}

/// Appends the object table + fact log (the shared v1/v2 body).
Status AppendBody(const ObjectStore& store, std::string* out) {
  const size_t n = store.UniverseSize();
  PutU64(out, n);
  for (Oid o = 0; o < n; ++o) {
    ObjectKind kind = store.kind(o);
    PutU8(out, static_cast<uint8_t>(kind));
    if (kind == ObjectKind::kInt) {
      PutU64(out, static_cast<uint64_t>(store.IntValue(o)));
      continue;
    }
    std::string_view name = RawName(store, o);
    PutU32(out, static_cast<uint32_t>(name.size()));
    out->append(name);
  }

  const uint64_t facts = store.generation();
  PutU64(out, facts);
  for (uint64_t g = 0; g < facts; ++g) {
    const Fact& f = store.FactAt(g);
    if (f.args.size() > 65535) {
      return InvalidArgument(StrCat(
          "cannot snapshot fact ", g, ": ", f.args.size(),
          " arguments exceed the format's u16 argc limit (65535)"));
    }
    PutU8(out, static_cast<uint8_t>(f.kind));
    PutU32(out, f.method);
    PutU32(out, f.recv);
    PutU16(out, static_cast<uint16_t>(f.args.size()));
    for (Oid a : f.args) PutU32(out, a);
    PutU32(out, f.value);
  }
  return Status::OK();
}

/// Pre-sizes `store` for the image in `body` from a counting pass: the
/// object and fact counts, the isa edges, and each scalar method's
/// facts. A malformed image stops the count; the loading pass reports
/// it.
void ReserveForBody(std::string_view body, ObjectStore* store) {
  ByteReader r(body);
  const uint64_t n = r.U64();
  for (uint64_t i = 0; i < n && r.Ok(); ++i) {
    if (static_cast<ObjectKind>(r.U8()) == ObjectKind::kInt) {
      r.U64();
    } else {
      r.Bytes(r.U32());
    }
  }
  const uint64_t facts = r.Ok() ? r.U64() : 0;
  uint64_t isa = 0, counted = 0;
  struct Counts {
    size_t facts = 0, no_args = 0;
  };
  std::unordered_map<Oid, Counts> scalar;
  for (; counted < facts && r.Ok(); ++counted) {
    const FactKind kind = static_cast<FactKind>(r.U8());
    const Oid method = r.U32();
    r.U32();  // receiver
    const uint16_t argc = r.U16();
    r.Bytes(4 * size_t{argc});
    r.U32();  // value
    if (kind == FactKind::kIsa) ++isa;
    if (kind == FactKind::kScalar && method < n) {
      Counts& c = scalar[method];
      ++c.facts;
      if (argc == 0) ++c.no_args;
    }
  }
  if (!r.Ok()) return;
  store->Reserve(n, counted, isa);
  for (const auto& [m, c] : scalar) store->ReserveScalar(m, c.facts, c.no_args);
}

Result<ObjectStore> DeserializeBody(std::string_view body) {
  ByteReader r(body);

  ObjectStore store;
  ReserveForBody(body, &store);
  const uint64_t n = r.U64();
  for (uint64_t i = 0; i < n && r.Ok(); ++i) {
    ObjectKind kind = static_cast<ObjectKind>(r.U8());
    Oid o = kNilOid;
    switch (kind) {
      case ObjectKind::kInt:
        o = store.InternInt(r.I64());
        break;
      case ObjectKind::kSymbol: {
        uint32_t len = r.U32();
        o = store.InternSymbol(r.Bytes(len));
        break;
      }
      case ObjectKind::kString: {
        uint32_t len = r.U32();
        o = store.InternString(r.Bytes(len));
        break;
      }
      case ObjectKind::kAnonymous: {
        uint32_t len = r.U32();
        o = store.NewAnonymous(std::string(r.Bytes(len)));
        break;
      }
      default:
        return Status(
            InvalidArgument("snapshot corrupt: unknown object kind"));
    }
    if (!r.Ok()) break;
    if (o != static_cast<Oid>(i)) {
      return Status(Internal(StrCat(
          "snapshot corrupt: object ", i, " reconstructed with oid ", o,
          " (duplicate table entry?)")));
    }
  }

  const uint64_t facts = r.Ok() ? r.U64() : 0;
  for (uint64_t g = 0; g < facts && r.Ok(); ++g) {
    FactKind kind = static_cast<FactKind>(r.U8());
    Oid method = r.U32();
    Oid recv = r.U32();
    uint16_t argc = r.U16();
    std::vector<Oid> args(argc);
    for (uint16_t i = 0; i < argc; ++i) args[i] = r.U32();
    Oid value = r.U32();
    if (!r.Ok()) break;
    // Every fact oid must refer to an object declared above; without
    // this check a corrupt file would plant out-of-range oids in the
    // tables (AddSetMember trusts its caller) and later reads would be
    // out of bounds. Replay through the public mutators below then
    // rebuilds every derived index — forward, inverted, and hierarchy
    // closure — so none of them are serialized; ReserveForBody sized
    // the tables up front.
    bool oids_ok = store.Valid(method) && store.Valid(recv) &&
                   (kind == FactKind::kIsa || store.Valid(value));
    for (Oid a : args) oids_ok = oids_ok && store.Valid(a);
    if (!oids_ok) {
      return Status(InvalidArgument(
          StrCat("snapshot corrupt: fact ", g, " references an oid outside "
                 "the object table")));
    }
    switch (kind) {
      case FactKind::kIsa:
        PATHLOG_RETURN_IF_ERROR(store.AddIsa(recv, method));
        break;
      case FactKind::kScalar:
        PATHLOG_RETURN_IF_ERROR(store.SetScalar(method, recv, args, value));
        break;
      case FactKind::kSetMember:
        store.AddSetMember(method, recv, args, value);
        break;
      default:
        return Status(InvalidArgument("snapshot corrupt: unknown fact kind"));
    }
  }
  if (!r.Ok()) {
    return Status(InvalidArgument("snapshot corrupt: truncated input"));
  }
  if (r.remaining() != 0) {
    return Status(InvalidArgument("snapshot corrupt: trailing bytes"));
  }
  if (store.generation() != facts) {
    return Status(Internal("snapshot replay produced a different log"));
  }
  return store;
}

}  // namespace

Result<std::string> SerializeSnapshot(const ObjectStore& store) {
  std::string out;
  out.reserve(SnapshotSize(store));
  PATHLOG_RETURN_IF_ERROR(AppendSnapshot(store, &out));
  return out;
}

size_t SnapshotSize(const ObjectStore& store) {
  size_t size = kMagicLen + 12 + 8 + 8;  // header, object and fact counts
  const size_t n = store.UniverseSize();
  for (Oid o = 0; o < n; ++o) {
    size += store.kind(o) == ObjectKind::kInt ? 1 + 8
                                               : 1 + 4 + RawName(store, o).size();
  }
  const uint64_t facts = store.generation();
  for (uint64_t g = 0; g < facts; ++g) {
    size += 1 + 4 + 4 + 2 + 4 * store.FactAt(g).args.size() + 4;
  }
  return size;
}

Status AppendSnapshot(const ObjectStore& store, std::string* out) {
  const size_t header = out->size();
  out->append(kMagicV2, kMagicLen);
  PutU32(out, 0);  // crc32(body), patched below
  PutU64(out, 0);  // body_len, patched below
  const size_t body = out->size();
  PATHLOG_RETURN_IF_ERROR(AppendBody(store, out));
  const std::string_view written = std::string_view(*out).substr(body);
  PatchU32(out, header + kMagicLen, Crc32(written));
  PatchU64(out, header + kMagicLen + 4, written.size());
  return Status::OK();
}

Result<ObjectStore> DeserializeSnapshot(std::string_view bytes) {
  if (bytes.size() >= kMagicLen &&
      std::memcmp(bytes.data(), kMagicV1, kMagicLen) == 0) {
    // Legacy v1: bare body, no checksum.
    return DeserializeBody(bytes.substr(kMagicLen));
  }
  if (bytes.size() < kMagicLen ||
      std::memcmp(bytes.data(), kMagicV2, kMagicLen) != 0) {
    return Status(InvalidArgument("not a PathLog snapshot (bad magic)"));
  }
  ByteReader header(bytes.substr(kMagicLen));
  const uint32_t crc = header.U32();
  const uint64_t body_len = header.U64();
  if (!header.Ok()) {
    return Status(InvalidArgument("snapshot corrupt: truncated header"));
  }
  std::string_view body = bytes.substr(kMagicLen + 12);
  if (body.size() != body_len) {
    return Status(InvalidArgument(StrCat(
        "snapshot corrupt: body is ", body.size(), " bytes, header says ",
        body_len)));
  }
  if (Crc32(body) != crc) {
    return Status(InvalidArgument(
        "snapshot corrupt: body checksum mismatch"));
  }
  return DeserializeBody(body);
}

Status WriteSnapshotFile(const ObjectStore& store, const std::string& path,
                         FileOps* ops) {
  if (ops == nullptr) ops = DefaultFileOps();
  Result<std::string> bytes = SerializeSnapshot(store);
  if (!bytes.ok()) return bytes.status();
  return WriteFileAtomic(ops, path, *bytes);
}

Result<ObjectStore> ReadSnapshotFile(const std::string& path, FileOps* ops) {
  if (ops == nullptr) ops = DefaultFileOps();
  Result<std::string> bytes = ops->ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return DeserializeSnapshot(*bytes);
}

}  // namespace pathlog
