#include "store/snapshot.h"

#include <cstring>
#include <utility>

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

/// The complete objects and facts of a body, up to the first
/// malformed one: one counting pass that sizes the builder.
std::pair<size_t, size_t> CountBody(std::string_view body) {
  ByteReader r(body);
  const uint64_t n = r.U64();
  size_t objects = 0, facts = 0;
  while (objects < n && r.Ok()) {
    if (static_cast<ObjectKind>(r.U8()) == ObjectKind::kInt) {
      r.U64();
    } else {
      r.Bytes(r.U32());
    }
    objects += r.Ok();
  }
  const uint64_t count = r.Ok() ? r.U64() : 0;
  while (facts < count && r.Ok()) {
    r.Bytes(9);                          // kind, method, receiver
    r.Bytes(4 * size_t{r.U16()} + 4);    // args, value
    facts += r.Ok();
  }
  return {objects, facts};
}

/// Builds a store from a body in bulk (ObjectStore::Builder). Whatever
/// a replay of the body through the mutators would reject, this rejects
/// with the same code: decoding stops at the first malformed object or
/// fact, and the builder reports a fact before it that the mutators
/// reject, which a replay would have met first.
Result<ObjectStore> DeserializeBody(std::string_view body) {
  const auto [objects, facts] = CountBody(body);
  ObjectStore::Builder builder(objects, facts);
  ByteReader r(body);
  Status malformed;
  const uint64_t n = r.U64();
  for (uint64_t i = 0; i < n && r.Ok(); ++i) {
    const ObjectKind kind = static_cast<ObjectKind>(r.U8());
    int64_t value = 0;
    std::string_view text;
    if (kind == ObjectKind::kInt) {
      value = r.I64();
    } else if (kind <= ObjectKind::kAnonymous) {
      text = r.Bytes(r.U32());
    } else if (r.Ok()) {
      malformed = InvalidArgument("snapshot corrupt: unknown object kind");
      break;
    }
    if (!r.Ok()) break;
    builder.AddObject(kind, text, value);
  }

  const uint64_t count = malformed.ok() && r.Ok() ? r.U64() : 0;
  for (uint64_t g = 0; g < count && r.Ok(); ++g) {
    const FactKind kind = static_cast<FactKind>(r.U8());
    const Oid method = r.U32();
    const Oid recv = r.U32();
    std::vector<Oid> args(r.U16());
    for (Oid& a : args) a = r.U32();
    const Oid value = r.U32();
    if (!r.Ok()) break;
    // Every fact oid must refer to an object declared above; without
    // this check a corrupt file would plant out-of-range oids in the
    // tables. Every derived index (forward, inverted, statistics and
    // hierarchy closure) is rebuilt, so none of them are serialized.
    bool oids_ok = method < n && recv < n &&
                   (kind == FactKind::kIsa || value < n);
    for (Oid a : args) oids_ok = oids_ok && a < n;
    if (!oids_ok) {
      malformed = InvalidArgument(
          StrCat("snapshot corrupt: fact ", g, " references an oid outside "
                 "the object table"));
      break;
    }
    if (kind > FactKind::kSetMember) {
      malformed = InvalidArgument("snapshot corrupt: unknown fact kind");
      break;
    }
    builder.AddFact(Fact{kind, method, recv, std::move(args), value});
  }
  if (malformed.ok() && !r.Ok()) {
    malformed = InvalidArgument("snapshot corrupt: truncated input");
  }

  uint64_t repeats = 0;
  Result<ObjectStore> store = builder.Finish(&repeats);
  if (!store.ok()) return store.status();
  if (!malformed.ok()) return malformed;
  if (r.remaining() != 0) {
    return Status(InvalidArgument("snapshot corrupt: trailing bytes"));
  }
  if (repeats != 0) {
    return Status(Internal(
        "snapshot corrupt: a fact repeats one before it (replay would "
        "produce a different log)"));
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
