// Object identifiers and related small types.

#ifndef PATHLOG_STORE_OID_H_
#define PATHLOG_STORE_OID_H_

#include <cstddef>
#include <cstdint>

namespace pathlog {

/// A system-wide unique object identifier (paper section 1: "each
/// object has a systemwide unique identifier, typically called oid").
/// Oids are dense indexes into the store's object table; they are a
/// storage-level concept and never surface in query syntax.
using Oid = uint32_t;

/// Sentinel: no object.
inline constexpr Oid kNilOid = static_cast<Oid>(-1);

/// FNV-1a accumulation, for hash keys made of several oids.
inline size_t HashCombine(size_t seed, size_t v) {
  // 64-bit FNV-1a step over the 8 bytes of v.
  size_t h = seed;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

inline size_t HashOidSpan(const Oid* data, size_t n, size_t seed) {
  size_t h = seed;
  for (size_t i = 0; i < n; ++i) h = HashCombine(h, data[i]);
  return h;
}

}  // namespace pathlog

#endif  // PATHLOG_STORE_OID_H_
