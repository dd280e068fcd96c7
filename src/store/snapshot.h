// Binary snapshots of an object store.
//
// The PathLog-text dump (StoreToProgramText) is human-readable but
// cannot round-trip *anonymous* objects — a materialised database full
// of virtual objects like `_boss(p1)` needs a faithful format.
// Snapshots serialise the object table and the fact log; loading
// replays the log, so oids, display names, generations and all derived
// indexes are reproduced exactly.
//
// Format v2 (little-endian, fixed-width):
//   magic "PLGSNAP2"
//   u32 crc32(body)
//   u64 body_len
//   body:
//     u64 object_count
//       per object: u8 kind; kInt: i64 value; else: u32 len + bytes
//     u64 fact_count
//       per fact: u8 kind, u32 method, u32 recv,
//                 u16 argc, u32 args[argc], u32 value
//
// v1 ("PLGSNAP1") is the same body with no checksum; it remains
// readable but is no longer written. A flipped bit anywhere in a v2
// body fails the CRC before any content reaches the store.

#ifndef PATHLOG_STORE_SNAPSHOT_H_
#define PATHLOG_STORE_SNAPSHOT_H_

#include <string>
#include <string_view>

#include "base/result.h"
#include "store/file_ops.h"
#include "store/object_store.h"

namespace pathlog {

/// Serialises the store into a (v2, checksummed) byte string.
/// kInvalidArgument if any fact has more than 65535 arguments — the
/// wire format's u16 argc cannot represent it, and silently truncating
/// would corrupt the snapshot.
Result<std::string> SerializeSnapshot(const ObjectStore& store);

/// The exact length of SerializeSnapshot(store), computed without
/// serialising: lets a caller that embeds the image reserve its whole
/// buffer once.
size_t SnapshotSize(const ObjectStore& store);

/// Appends SerializeSnapshot(store)'s bytes to `*out` in place: the
/// body is written directly into `*out` and the header's checksum and
/// length are patched in afterwards, so the image is never copied.
/// Fails like SerializeSnapshot, leaving a partial image in `*out`.
Status AppendSnapshot(const ObjectStore& store, std::string* out);

/// Reconstructs a store from SerializeSnapshot output (v2) or a legacy
/// v1 image. The result is bit-for-bit equivalent: same oids, names,
/// facts and generations.
Result<ObjectStore> DeserializeSnapshot(std::string_view bytes);

/// File convenience wrappers. Writing is atomic (temp + fsync +
/// rename): a crash never leaves a partial file visible at `path`.
/// `ops` defaults to the real file system; tests inject faults.
Status WriteSnapshotFile(const ObjectStore& store, const std::string& path,
                         FileOps* ops = nullptr);
Result<ObjectStore> ReadSnapshotFile(const std::string& path,
                                     FileOps* ops = nullptr);

}  // namespace pathlog

#endif  // PATHLOG_STORE_SNAPSHOT_H_
