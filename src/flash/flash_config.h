// Geometry and timing parameters of the simulated NAND flash array.
//
// Defaults model the Samsung K9LCG08U1M MLC chips on the OpenSSD board used
// in the paper: 8 KB pages, 128 pages per block, with the Barefoot
// controller's 4-way bank interleaving.
#ifndef XFTL_FLASH_FLASH_CONFIG_H_
#define XFTL_FLASH_FLASH_CONFIG_H_

#include <array>
#include <cstdint>

#include "common/counters.h"
#include "common/units.h"

namespace xftl::flash {

// Physical page number: linear index over the whole device.
using Ppn = uint32_t;
// Block number: ppn / pages_per_block.
using BlockNum = uint32_t;

inline constexpr Ppn kInvalidPpn = ~Ppn{0};
inline constexpr uint64_t kInvalidLpn = ~uint64_t{0};

struct FlashTimings {
  SimNanos read_page = Micros(200);     // tR, cell array -> page register
  SimNanos program_page = Micros(1300); // tPROG (MLC)
  SimNanos erase_block = Micros(3000);  // tBERS
  SimNanos bus_per_page = Micros(50);   // 8 KB over the flash channel
};

// NAND failure model. MLC chips like the K9LCG08U1M report *status failures*
// on program and erase (the operation completes with the fail bit set and
// the block must be retired as a grown bad block), and accumulate raw bit
// errors with wear that the controller's ECC must correct on reads.
//
// Probabilities apply independently per operation; deterministic scripted
// injection (FlashDevice::ScriptProgramFail / ScriptEraseFail) composes with
// them and is what the crash sweeps use. A block that suffers a status
// failure is permanently bad: later programs/erases on it fail immediately,
// exactly like real silicon.
struct FaultModel {
  double program_fail_prob = 0.0;  // per ProgramPage call
  double erase_fail_prob = 0.0;    // per EraseBlock call
  // Raw bit error rate per bit read: rber_base + rber_per_pe_cycle * (block
  // erase count). Sampled per read as a Poisson draw over the page's bits;
  // the count is reported to the caller (the FTL's ECC engine), the data
  // buffer itself is returned intact — ECC either corrects or rejects.
  double rber_base = 0.0;
  double rber_per_pe_cycle = 0.0;
  // Each read-retry level (shifted sensing voltages) scales the effective
  // RBER down by this factor.
  double retry_rber_factor = 0.25;
  uint64_t seed = 0xfa117;
};

// Seeded description of a power cut. Arming a plan makes the
// `crash_after_programs`-th subsequent program the crash point: the device
// dies at that instant, every still-buffered (issued but not yet retired)
// program is independently persisted or dropped with `persist_prob`, and the
// crashing program itself tears at a random sector boundary. Dropping is
// per-block prefix-consistent (NAND programs pages in order, so a block
// cannot hold page k+1 without page k), but blocks on different banks drop
// independently — buffered writes may persist out of issue order across
// banks, exactly the hazard barrier-enabled I/O stacks guard against.
//
// Everything is derived from `seed`, so a crash state is reproducible.
// `persist_prob` = 1 keeps every buffered program: the deterministic cut of
// the boundary sweeps.
struct CrashPlan {
  // N-th program from arming (1 = next; 0 is clamped to 1).
  uint64_t crash_after_programs = 0;
  uint64_t seed = 0;
  double persist_prob = 0.5;  // per buffered program, prefix-consistent
};

struct FlashConfig {
  uint32_t page_size = 8192;
  uint32_t pages_per_block = 128;
  uint32_t num_blocks = 1024;  // whole device
  uint32_t num_banks = 4;      // interleaved block-wise
  // NAND sector granule: a torn program lands on a sector boundary.
  uint32_t sector_size = 512;
  // Maximum programs in flight before the issuer must stall (controller
  // write-buffer depth).
  uint32_t write_buffer_pages = 16;
  FlashTimings timings;
  FaultModel fault;

  uint64_t TotalPages() const {
    return uint64_t(num_blocks) * pages_per_block;
  }
  uint64_t TotalBytes() const { return TotalPages() * page_size; }
  BlockNum BlockOf(Ppn ppn) const { return ppn / pages_per_block; }
  uint32_t PageInBlock(Ppn ppn) const { return ppn % pages_per_block; }
  uint32_t BankOf(BlockNum block) const { return block % num_banks; }
};

// Out-of-band (spare-area) metadata stored with each physical page. The FTL
// uses it for reverse mapping and power-failure recovery scans. The link
// fields are used by cyclic-commit schemes (TxFlash/SCC): each page of a
// transaction names the (lpn, seq) of the next page, and a complete cycle is
// the commit record.
struct PageOob {
  uint64_t lpn = kInvalidLpn;  // logical page this physical page holds
  uint64_t seq = 0;            // monotonically increasing write sequence
  uint64_t tag = 0;            // layer-specific (e.g., meta-page kind)
  uint64_t link_lpn = kInvalidLpn;
  uint64_t link_seq = 0;
  // Block stamp of a data page: the FTL's write sequence when it opened the
  // page's block, identical on every page of one block lifetime (0 =
  // unknown). A stamp newer than a mapping checkpoint proves the block was
  // (re)opened after it.
  uint64_t block_seq = 0;
};

// Counters of raw flash activity.
struct FlashStats {
  uint64_t page_reads = 0;
  uint64_t oob_reads = 0;  // OOB-only senses (the recovery scan)
  uint64_t page_programs = 0;
  uint64_t block_erases = 0;
  uint64_t torn_programs = 0;  // programs destroyed by power failure
  // Volatile write-buffer model.
  uint64_t buffer_flushes = 0;    // SyncAll flush barriers issued
  uint64_t programs_flushed = 0;  // buffered programs made durable by a flush
  uint64_t programs_dropped = 0;  // buffered programs lost at a power cut
  // Barrier (epoch) ordering model.
  uint64_t barrier_epochs = 0;  // epochs opened by AdvanceEpoch()
  uint64_t programs_stalled_for_order = 0;  // delayed by an epoch fence
  uint64_t programs_stalled_for_bank = 0;   // delayed by a busy bank (only
                                            // counted once epochs are in use)
  uint64_t max_epochs_in_flight = 0;  // peak distinct epochs buffered at once
  // NAND failure model.
  uint64_t program_fails = 0;      // program status failures (block retired)
  uint64_t erase_fails = 0;        // erase status failures (block retired)
  uint64_t bit_flips = 0;          // raw bit errors injected into reads
  uint64_t ecc_corrected = 0;      // bits corrected by the FTL's ECC engine
  uint64_t ecc_uncorrectable = 0;  // reads the ECC engine gave up on

  // Every counter, for AddCounters and CounterDelta.
  static constexpr std::array kCounters = {
      &FlashStats::page_reads,
      &FlashStats::oob_reads,
      &FlashStats::page_programs,
      &FlashStats::block_erases,
      &FlashStats::torn_programs,
      &FlashStats::buffer_flushes,
      &FlashStats::programs_flushed,
      &FlashStats::programs_dropped,
      &FlashStats::barrier_epochs,
      &FlashStats::programs_stalled_for_order,
      &FlashStats::programs_stalled_for_bank,
      // A peak, not a count: a sum or delta of it means nothing, and no
      // caller reads it from one. Listed so the table stays complete.
      &FlashStats::max_epochs_in_flight,
      &FlashStats::program_fails,
      &FlashStats::erase_fails,
      &FlashStats::bit_flips,
      &FlashStats::ecc_corrected,
      &FlashStats::ecc_uncorrectable,
  };
};
static_assert(ListsEveryCounter<FlashStats>());

}  // namespace xftl::flash

#endif  // XFTL_FLASH_FLASH_CONFIG_H_
