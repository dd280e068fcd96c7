// Little-endian fixed-width encoding helpers, shared by the snapshot
// and WAL binary formats (src/store/snapshot.cc, src/store/wal.cc).
//
// ByteReader tolerates truncated input: every accessor returns a
// zero value once the buffer runs dry and Ok() flips to false, so
// parsers can decode an entire section and check Ok() once.

#ifndef PATHLOG_BASE_CODING_H_
#define PATHLOG_BASE_CODING_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace pathlog {

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
inline void PutU16(std::string* out, uint16_t v) {
  for (int i = 0; i < 2; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

/// Overwrites the fixed-width value at byte `pos` of `out`, for fields
/// such as a checksum that are known only after what follows them.
inline void PatchU32(std::string* out, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) (*out)[pos + i] = static_cast<char>(v >> (8 * i));
}
inline void PatchU64(std::string* out, size_t pos, uint64_t v) {
  for (int i = 0; i < 8; ++i) (*out)[pos + i] = static_cast<char>(v >> (8 * i));
}

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool Ok() const { return ok_; }
  size_t remaining() const { return bytes_.size() - pos_; }

  uint8_t U8() { return Fixed<uint8_t>(1); }
  uint16_t U16() { return Fixed<uint16_t>(2); }
  uint32_t U32() { return Fixed<uint32_t>(4); }
  uint64_t U64() { return Fixed<uint64_t>(8); }
  int64_t I64() { return static_cast<int64_t>(U64()); }

  std::string_view Bytes(size_t n) { return Take(n); }

 private:
  template <typename T>
  T Fixed(size_t n) {
    std::string_view s = Take(n);
    T v = 0;
    for (size_t i = 0; i < s.size(); ++i) {
      v |= static_cast<T>(static_cast<uint8_t>(s[i])) << (8 * i);
    }
    return v;
  }

  std::string_view Take(size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return std::string_view();
    }
    std::string_view s = bytes_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace pathlog

#endif  // PATHLOG_BASE_CODING_H_
