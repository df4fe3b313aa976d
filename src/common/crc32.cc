#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace xftl {
namespace {

constexpr uint32_t kPoly = 0x82f63b78u;  // reflected CRC-32C polynomial

// Slicing-by-8: kTables[0] is the bytewise table; kTables[k][i] is the CRC
// of byte i followed by k zero bytes, so one step folds 8 input bytes.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

// The 8-byte steps read each word in host order, like coding.h.
static_assert(std::endian::native == std::endian::little,
              "Crc32c's 8-byte step assumes a little-endian host");

#if defined(__x86_64__)
// SSE4.2's crc32 instruction computes the same reflected Castagnoli CRC as
// the tables, 8 bytes per step. Only this function is compiled for SSE4.2,
// so the program still runs on a CPU without it; Crc32c calls it only after
// checking the CPU. One dependent chain: the pages checksummed here mostly
// come from outside L1, so interleaved streams bought nothing end to end.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t n,
                                                       uint32_t init) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~init;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    crc = _mm_crc32_u64(crc, w);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#endif

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

Crc32cFn PickCrc32c() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cPortable;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t init) {
  // A function-local static: a checksum taken during another file's static
  // initialization still finds the path picked.
  static const Crc32cFn crc32c = PickCrc32c();
  return crc32c(data, n, init);
}

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t init) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~init;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    w ^= crc;
    crc = kTables[7][w & 0xff] ^ kTables[6][(w >> 8) & 0xff] ^
          kTables[5][(w >> 16) & 0xff] ^ kTables[4][(w >> 24) & 0xff] ^
          kTables[3][(w >> 32) & 0xff] ^ kTables[2][(w >> 40) & 0xff] ^
          kTables[1][(w >> 48) & 0xff] ^ kTables[0][w >> 56];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace xftl
