// Counters of FTL-side activity, matching the "FTL-side" columns of the
// paper's Table 1: pages written and read (including internal copy-backs),
// garbage-collection runs and block erases.
#ifndef XFTL_FTL_FTL_STATS_H_
#define XFTL_FTL_FTL_STATS_H_

#include <array>
#include <cstdint>

#include "common/counters.h"

namespace xftl::ftl {

struct FtlStats {
  // Host-initiated traffic.
  uint64_t host_page_writes = 0;
  uint64_t host_page_reads = 0;
  // Garbage collection.
  uint64_t gc_runs = 0;
  uint64_t gc_copyback_reads = 0;
  uint64_t gc_copyback_writes = 0;
  uint64_t gc_valid_pages_seen = 0;  // valid pages across all victims
  // Mapping-table persistence (segments + roots + transactional tables).
  uint64_t meta_page_writes = 0;
  // Block erases (data blocks collected + meta blocks recycled).
  uint64_t block_erases = 0;
  // Barriers / commits.
  uint64_t flush_barriers = 0;
  uint64_t ordered_barriers = 0;  // order-only barriers (no completion wait)
  // NAND failure handling (grown-bad-block management + ECC).
  uint64_t grown_bad_blocks = 0;      // blocks retired after status failures
  uint64_t program_fail_reissues = 0; // in-flight pages re-issued elsewhere
  uint64_t retire_relocations = 0;    // valid pages moved off retiring blocks
  uint64_t ecc_read_retries = 0;      // read-retry rounds by the ECC engine
  uint64_t pages_lost = 0;            // unrecoverable pages dropped at retire
  // Crash recovery (what a power cut cost us and what recovery discarded).
  uint64_t recovery_torn_meta_pages = 0;  // unreadable pages in the meta ring
  uint64_t recovery_root_fallbacks = 0;   // checkpoint epochs skipped (bad
                                          // segments, torn X-L2P snapshots)
  uint64_t recovery_stale_mappings = 0;   // checkpointed mappings discarded
  uint64_t recovery_discarded_txn_pages = 0;   // ACTIVE X-L2P entries rolled back
  // Checkpoint-bounded boot scan: programmed data blocks whose pages beyond
  // page 0 were trusted from the loaded root (the rest were written after
  // it and scanned), OOB senses issued, and partial blocks resumed as active
  // blocks instead of being sealed.
  uint64_t recovery_blocks_trusted = 0;
  uint64_t recovery_pages_scanned = 0;
  uint64_t recovery_blocks_resumed = 0;

  // Every counter, for AddCounters and CounterDelta.
  static constexpr std::array kCounters = {
      &FtlStats::host_page_writes,
      &FtlStats::host_page_reads,
      &FtlStats::gc_runs,
      &FtlStats::gc_copyback_reads,
      &FtlStats::gc_copyback_writes,
      &FtlStats::gc_valid_pages_seen,
      &FtlStats::meta_page_writes,
      &FtlStats::block_erases,
      &FtlStats::flush_barriers,
      &FtlStats::ordered_barriers,
      &FtlStats::grown_bad_blocks,
      &FtlStats::program_fail_reissues,
      &FtlStats::retire_relocations,
      &FtlStats::ecc_read_retries,
      &FtlStats::pages_lost,
      &FtlStats::recovery_torn_meta_pages,
      &FtlStats::recovery_root_fallbacks,
      &FtlStats::recovery_stale_mappings,
      &FtlStats::recovery_discarded_txn_pages,
      &FtlStats::recovery_blocks_trusted,
      &FtlStats::recovery_pages_scanned,
      &FtlStats::recovery_blocks_resumed,
  };

  // Total physical page programs, as the paper's Table 1 "Write" column
  // counts them (host + copied-back + metadata).
  uint64_t TotalPageWrites() const {
    return host_page_writes + gc_copyback_writes + meta_page_writes +
           retire_relocations;
  }
  uint64_t TotalPageReads() const {
    return host_page_reads + gc_copyback_reads;
  }
  // Mean fraction of valid pages carried over per collected block.
  double MeanGcValidRatio(uint32_t pages_per_block) const {
    if (gc_runs == 0) return 0.0;
    return double(gc_valid_pages_seen) /
           (double(gc_runs) * double(pages_per_block));
  }

  // Field-wise equality (replay-determinism checks compare snapshots).
  bool operator==(const FtlStats&) const = default;

  // Counter deltas since `base` (a snapshot taken earlier from the same
  // FTL): the traffic attributable to the interval between the two reads.
  FtlStats Delta(const FtlStats& base) const {
    return CounterDelta(*this, base);
  }
};
static_assert(ListsEveryCounter<FtlStats>());

}  // namespace xftl::ftl

#endif  // XFTL_FTL_FTL_STATS_H_
