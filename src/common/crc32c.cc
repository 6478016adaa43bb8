#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace laxml {
namespace crc32c {

namespace {

// CRC32-C polynomial, reflected.
constexpr uint32_t kPoly = 0x82f63b78u;

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

#if defined(__x86_64__)
// The SSE4.2 CRC32 instruction computes the same reflected Castagnoli CRC
// as the table loop, eight bytes a step. Words are loaded with memcpy, so
// `data` needs no alignment.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const uint8_t* data,
                                                       size_t n) {
  uint64_t c = ~crc;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, data, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++data, --n) c32 = _mm_crc32_u8(c32, *data);
  return ~c32;
}

bool HaveSse42() {
  // __builtin_cpu_init() makes the answer right even when the first CRC
  // is computed from a static initializer, before the runtime has
  // filled in the CPU model on its own.
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return have;
}
#endif

}  // namespace

uint32_t ExtendPortable(uint32_t crc, const uint8_t* data, size_t n) {
  const auto& table = Table();
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Extend(uint32_t crc, const uint8_t* data, size_t n) {
#if defined(__x86_64__)
  if (HaveSse42()) return ExtendSse42(crc, data, n);
#endif
  return ExtendPortable(crc, data, n);
}

}  // namespace crc32c
}  // namespace laxml
