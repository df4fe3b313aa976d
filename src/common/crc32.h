// CRC-32C (Castagnoli) used to detect torn/corrupt pages in journal, WAL and
// mapping-table snapshots.
#ifndef XFTL_COMMON_CRC32_H_
#define XFTL_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace xftl {

// Computes CRC-32C of data[0, n), extending `init` (pass 0 for a fresh CRC).
// Runs on the CPU's CRC-32C instruction where the CPU has one (x86-64 with
// SSE4.2, checked once per process), on Crc32cPortable otherwise; both give
// the same value.
uint32_t Crc32c(const void* data, size_t n, uint32_t init = 0);

// The table-driven CRC-32C that Crc32c falls back to on a CPU without the
// instruction. Declared so that tests check it on every host.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t init = 0);

}  // namespace xftl

#endif  // XFTL_COMMON_CRC32_H_
