// Counters of FTL-side activity, matching the "FTL-side" columns of the
// paper's Table 1: pages written and read (including internal copy-backs),
// garbage-collection runs and block erases.
#ifndef XFTL_FTL_FTL_STATS_H_
#define XFTL_FTL_FTL_STATS_H_

#include <cstdint>

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

  // Field-wise sum: aggregates per-device counters into an array-wide view
  // (the workload harness over a host::StripedVolume sums its members).
  void Add(const FtlStats& o) {
    host_page_writes += o.host_page_writes;
    host_page_reads += o.host_page_reads;
    gc_runs += o.gc_runs;
    gc_copyback_reads += o.gc_copyback_reads;
    gc_copyback_writes += o.gc_copyback_writes;
    gc_valid_pages_seen += o.gc_valid_pages_seen;
    meta_page_writes += o.meta_page_writes;
    block_erases += o.block_erases;
    flush_barriers += o.flush_barriers;
    ordered_barriers += o.ordered_barriers;
    grown_bad_blocks += o.grown_bad_blocks;
    program_fail_reissues += o.program_fail_reissues;
    retire_relocations += o.retire_relocations;
    ecc_read_retries += o.ecc_read_retries;
    pages_lost += o.pages_lost;
    recovery_torn_meta_pages += o.recovery_torn_meta_pages;
    recovery_root_fallbacks += o.recovery_root_fallbacks;
    recovery_stale_mappings += o.recovery_stale_mappings;
    recovery_discarded_txn_pages += o.recovery_discarded_txn_pages;
    recovery_blocks_trusted += o.recovery_blocks_trusted;
    recovery_pages_scanned += o.recovery_pages_scanned;
    recovery_blocks_resumed += o.recovery_blocks_resumed;
  }

  // Counter deltas since `base` (a snapshot taken earlier from the same
  // FTL): the traffic attributable to the interval between the two reads.
  FtlStats Delta(const FtlStats& base) const {
    FtlStats d;
    d.host_page_writes = host_page_writes - base.host_page_writes;
    d.host_page_reads = host_page_reads - base.host_page_reads;
    d.gc_runs = gc_runs - base.gc_runs;
    d.gc_copyback_reads = gc_copyback_reads - base.gc_copyback_reads;
    d.gc_copyback_writes = gc_copyback_writes - base.gc_copyback_writes;
    d.gc_valid_pages_seen = gc_valid_pages_seen - base.gc_valid_pages_seen;
    d.meta_page_writes = meta_page_writes - base.meta_page_writes;
    d.block_erases = block_erases - base.block_erases;
    d.flush_barriers = flush_barriers - base.flush_barriers;
    d.ordered_barriers = ordered_barriers - base.ordered_barriers;
    d.grown_bad_blocks = grown_bad_blocks - base.grown_bad_blocks;
    d.program_fail_reissues =
        program_fail_reissues - base.program_fail_reissues;
    d.retire_relocations = retire_relocations - base.retire_relocations;
    d.ecc_read_retries = ecc_read_retries - base.ecc_read_retries;
    d.pages_lost = pages_lost - base.pages_lost;
    d.recovery_torn_meta_pages =
        recovery_torn_meta_pages - base.recovery_torn_meta_pages;
    d.recovery_root_fallbacks =
        recovery_root_fallbacks - base.recovery_root_fallbacks;
    d.recovery_stale_mappings =
        recovery_stale_mappings - base.recovery_stale_mappings;
    d.recovery_discarded_txn_pages =
        recovery_discarded_txn_pages - base.recovery_discarded_txn_pages;
    d.recovery_blocks_trusted =
        recovery_blocks_trusted - base.recovery_blocks_trusted;
    d.recovery_pages_scanned =
        recovery_pages_scanned - base.recovery_pages_scanned;
    d.recovery_blocks_resumed =
        recovery_blocks_resumed - base.recovery_blocks_resumed;
    return d;
  }
};

}  // namespace xftl::ftl

#endif  // XFTL_FTL_FTL_STATS_H_
