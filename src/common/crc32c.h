// CRC32-C (Castagnoli) checksum. Page headers, WAL records and wire
// frames carry a CRC so corruption is detected on read rather than
// silently propagated — standard practice in the storage engines the
// substrate is modeled on. Extend() uses the SSE4.2 CRC32 instruction
// when the CPU has it and a table loop otherwise; both give the same bits.

#ifndef LAXML_COMMON_CRC32C_H_
#define LAXML_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace laxml {
namespace crc32c {

/// Extends a running CRC with `n` bytes at `data`. Seed with 0. Picks the
/// SSE4.2 path once per process when the CPU reports it.
uint32_t Extend(uint32_t crc, const uint8_t* data, size_t n);

/// The byte-at-a-time table loop: the reference Extend() must match bit
/// for bit, and the path it takes on CPUs without SSE4.2.
uint32_t ExtendPortable(uint32_t crc, const uint8_t* data, size_t n);

/// Computes the CRC of a buffer from scratch.
inline uint32_t Value(const uint8_t* data, size_t n) {
  return Extend(0, data, n);
}

/// Masks a CRC so that a CRC stored alongside the data it covers does not
/// checksum to a fixed point (the classic LevelDB trick).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace crc32c
}  // namespace laxml

#endif  // LAXML_COMMON_CRC32C_H_
