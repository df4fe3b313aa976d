// ECC model for the FTL's read path. Real controllers run a BCH/LDPC decoder
// over every page read: up to k raw bit errors per page are corrected
// inline, heavier damage triggers read-retry (re-sensing the cells with
// shifted reference voltages, which lowers the raw bit error rate), and only
// when every retry level still overwhelms the decoder is the read reported
// uncorrectable. Decode and retry latencies are charged to the simulation
// clock; corrected/uncorrectable counts land in FlashStats next to the raw
// bit-flip counter, and retry rounds are counted in FtlStats.
#ifndef XFTL_FTL_ECC_H_
#define XFTL_FTL_ECC_H_

#include <cstdint>

#include "common/sim_clock.h"
#include "common/status.h"
#include "flash/flash_device.h"
#include "ftl/ftl_stats.h"

namespace xftl::ftl {

// Correction strength in bits per page (BCH over the page's sectors; the
// OpenSSD-era MLC parts shipped with 16 bits per 512+spare sector — this is
// the whole-page budget our coarser model enforces).
inline constexpr uint32_t kEccCorrectableBits = 16;
// Read-retry rounds before a read is declared uncorrectable.
inline constexpr uint32_t kEccMaxReadRetries = 4;
// Decoder latency charged when a read needed correction at all.
inline constexpr SimNanos kEccDecodeLatency = Micros(8);
// Reference-voltage reconfiguration cost per retry round (the re-read itself
// is charged by the device as a normal page read).
inline constexpr SimNanos kEccRetrySetupLatency = Micros(40);

class EccEngine {
 public:
  EccEngine(SimClock* clock, FtlStats* stats) : clock_(clock), stats_(stats) {}

  // Reads `ppn` through the decode + read-retry pipeline. Returns the
  // device's own error for torn pages / power loss, Corruption when the raw
  // bit errors exceed the correction budget at every retry level, OK (with
  // clean data) otherwise.
  Status Read(flash::FlashDevice* device, flash::Ppn ppn, uint8_t* data,
              flash::PageOob* oob = nullptr) {
    uint32_t bit_errors = 0;
    XFTL_RETURN_IF_ERROR(device->ReadPage(ppn, data, oob, &bit_errors, 0));
    if (bit_errors == 0) return Status::OK();
    if (bit_errors <= kEccCorrectableBits) {
      clock_->Advance(kEccDecodeLatency);
      device->NoteEccCorrected(bit_errors);
      return Status::OK();
    }
    for (uint32_t level = 1; level <= kEccMaxReadRetries; ++level) {
      clock_->Advance(kEccRetrySetupLatency);
      stats_->ecc_read_retries++;
      XFTL_RETURN_IF_ERROR(
          device->ReadPage(ppn, data, oob, &bit_errors, level));
      if (bit_errors <= kEccCorrectableBits) {
        clock_->Advance(kEccDecodeLatency);
        device->NoteEccCorrected(bit_errors);
        return Status::OK();
      }
    }
    device->NoteEccUncorrectable();
    return Status::Corruption("uncorrectable ECC error at ppn " +
                              std::to_string(ppn));
  }

 private:
  SimClock* const clock_;
  FtlStats* const stats_;
};

}  // namespace xftl::ftl

#endif  // XFTL_FTL_ECC_H_
