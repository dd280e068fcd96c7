// CRC-32 (IEEE 802.3 polynomial, reflected) over byte strings.
//
// Used by the durability layer: WAL records and snapshot-v2 bodies
// carry a CRC so a torn or bit-flipped file is detected before any of
// its content reaches the store. The implementation is table-driven
// slice-by-8 (eight bytes per step, a byte loop for the tail): the
// snapshot checksum runs over every byte of the store on each
// checkpoint and each reopen, so its throughput is on that path.

#ifndef PATHLOG_BASE_CRC32_H_
#define PATHLOG_BASE_CRC32_H_

#include <cstdint>
#include <string_view>

namespace pathlog {

/// CRC-32 of `bytes`, optionally chaining a previous CRC (pass the
/// prior result as `seed` to checksum a logical stream in pieces).
uint32_t Crc32(std::string_view bytes, uint32_t seed = 0);

}  // namespace pathlog

#endif  // PATHLOG_BASE_CRC32_H_
