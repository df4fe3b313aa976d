// Flattens the stack's per-module stat structs into MetricsRegistry named
// counters. Header-only on purpose: it includes ftl/flash headers, but the
// trace library itself stays below them in the link graph (only struct
// fields are touched, nothing is linked).
#ifndef XFTL_TRACE_STATS_ADAPTER_H_
#define XFTL_TRACE_STATS_ADAPTER_H_

#include "flash/flash_config.h"
#include "ftl/ftl_stats.h"
#include "trace/metrics_registry.h"

namespace xftl::trace {

// Snapshot-absorbs an FtlStats into `reg` under "ftl." names.
inline void AbsorbFtlStats(MetricsRegistry* reg, const ftl::FtlStats& s) {
  reg->Set("ftl.host_page_writes", s.host_page_writes);
  reg->Set("ftl.host_page_reads", s.host_page_reads);
  reg->Set("ftl.gc_runs", s.gc_runs);
  reg->Set("ftl.gc_copyback_reads", s.gc_copyback_reads);
  reg->Set("ftl.gc_copyback_writes", s.gc_copyback_writes);
  reg->Set("ftl.gc_valid_pages_seen", s.gc_valid_pages_seen);
  reg->Set("ftl.meta_page_writes", s.meta_page_writes);
  reg->Set("ftl.block_erases", s.block_erases);
  reg->Set("ftl.flush_barriers", s.flush_barriers);
  reg->Set("ftl.grown_bad_blocks", s.grown_bad_blocks);
  reg->Set("ftl.program_fail_reissues", s.program_fail_reissues);
  reg->Set("ftl.retire_relocations", s.retire_relocations);
  reg->Set("ftl.ecc_read_retries", s.ecc_read_retries);
  reg->Set("ftl.pages_lost", s.pages_lost);
  reg->Set("ftl.total_page_writes", s.TotalPageWrites());
  reg->Set("ftl.total_page_reads", s.TotalPageReads());
}

// Snapshot-absorbs a FlashStats into `reg` under "flash." names.
inline void AbsorbFlashStats(MetricsRegistry* reg, const flash::FlashStats& s) {
  reg->Set("flash.page_reads", s.page_reads);
  reg->Set("flash.oob_reads", s.oob_reads);
  reg->Set("flash.page_programs", s.page_programs);
  reg->Set("flash.block_erases", s.block_erases);
  reg->Set("flash.torn_programs", s.torn_programs);
  reg->Set("flash.program_fails", s.program_fails);
  reg->Set("flash.erase_fails", s.erase_fails);
  reg->Set("flash.bit_flips", s.bit_flips);
  reg->Set("flash.ecc_corrected", s.ecc_corrected);
  reg->Set("flash.ecc_uncorrectable", s.ecc_uncorrectable);
}

}  // namespace xftl::trace

#endif  // XFTL_TRACE_STATS_ADAPTER_H_
