// Offline trace tooling: inspect and re-drive binary traces captured by the
// simulator's Tracer (src/trace/).
//
//   xftl_trace dump <trace>             print events as text
//   xftl_trace summary <trace>          per-layer latency percentiles,
//                                       per-transaction page counts and the
//                                       write-amplification breakdown
//   xftl_trace replay <trace>           re-drive the SATA-layer command
//                                       stream against a chosen device
//                                       profile, twice, and verify the two
//                                       replays produce identical FtlStats
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/histogram.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "storage/sim_ssd.h"
#include "trace/replay.h"
#include "trace/trace_event.h"
#include "trace/trace_file.h"

namespace xftl::trace {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: xftl_trace <command> <trace-file> [options]\n"
      "\n"
      "commands:\n"
      "  dump     print events as text (--limit=N caps the output)\n"
      "  summary  per-layer/op latency percentiles, per-transaction page\n"
      "           counts, per-session transaction latency (multi-session\n"
      "           host traces), snapshot-read accounting (MVCC traces),\n"
      "           write-amplification breakdown, FTL restart scan size\n"
      "  replay   re-drive the SATA command stream on a fresh device and\n"
      "           check replay determinism\n"
      "           --profile=openssd|s830   device profile (default openssd)\n"
      "           --ftl=xftl|page          transactional or original FTL\n"
      "           --blocks=N               device size (default 512)\n");
  return 2;
}

int Dump(const std::string& path, long limit) {
  auto reader_or = TraceReader::Open(path);
  if (!reader_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 reader_or.status().ToString().c_str());
    return 1;
  }
  auto reader = std::move(reader_or).value();
  std::printf("%14s %-6s %-10s %6s %5s %10s %10s %12s %s\n", "time(ns)",
              "layer", "op", "tid", "sid", "a", "b", "latency(ns)", "status");
  TraceEvent e;
  long printed = 0;
  while ((limit <= 0 || printed < limit) && reader->Next(&e)) {
    std::printf("%14llu %-6s %-10s %6u %5u %10llu %10llu %12llu %s\n",
                (unsigned long long)e.time, LayerName(e.layer), OpName(e.op),
                e.tid, e.sid, (unsigned long long)e.a,
                (unsigned long long)e.b, (unsigned long long)e.latency,
                StatusCodeToString(e.status));
    printed++;
  }
  if (reader->truncated()) {
    std::printf("(trace ends in a torn frame; complete prefix shown)\n");
  }
  std::printf("%llu events\n", (unsigned long long)reader->events_read());
  return 0;
}

int Summary(const std::string& path) {
  bool truncated = false;
  auto events_or = TraceReader::ReadAll(path, &truncated);
  if (!events_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 events_or.status().ToString().c_str());
    return 1;
  }
  const std::vector<TraceEvent>& events = events_or.value();

  // Per-(layer, op) latency histograms.
  Histogram lat[kNumLayers][kNumOps];
  // Pages written per device-level transaction (kSata tx-writes by tid).
  std::map<uint32_t, uint64_t> txn_pages;
  uint64_t host_writes = 0;    // device-level write commands (tx or not)
  uint64_t flash_programs = 0; // physical page programs
  uint64_t gc_copybacks = 0;   // valid pages carried by GC
  uint64_t erases = 0;
  // Durability barriers per layer: flush/fsync command counts and the
  // simulated time spent inside them (the price of the volatile write
  // buffer's guarantees).
  uint64_t flush_count[kNumLayers] = {};
  uint64_t flush_nanos[kNumLayers] = {};
  uint64_t programs_made_durable = 0;  // buffered programs retired by barriers
  // Queued-command pipeline: flash-layer events carry the bank in `tid`,
  // SATA write events carry the NCQ occupancy after submit in `b`.
  std::map<uint32_t, uint64_t> bank_programs;
  Histogram queue_occupancy;
  // Error recovery: kLinkFault carries the fault kind in `b` and any backoff
  // paid in `latency`; kLinkReset carries reissued pages in `b`; kDegrade
  // carries the new ladder mode in `a`.
  uint64_t crc_faults = 0, timeout_faults = 0, abort_faults = 0;
  uint64_t link_retries = 0, backoff_nanos = 0;
  uint64_t link_resets = 0, reissued_pages = 0;
  uint64_t degrade_enters = 0, degrade_exits = 0, link_deaths = 0;
  // Host sessions: kHost/kTxn events are whole application transactions,
  // one per dispatch, tagged with the session id and carrying the
  // host-busy share in `b`.
  std::map<uint32_t, Histogram> session_lat;
  std::map<uint32_t, uint64_t> session_busy;
  uint64_t host_txns = 0;
  SimNanos host_first = ~0ull, host_last = 0;
  // Array commit (cross-device two-phase): kSata kTxPrepare commands,
  // kCommitRecord with `a` = 1 write / 0 release, kResolve with `a` = 1
  // forward / 0 abort; kHost kMemberFault marks a member going offline
  // (`b` = 1) or back online (`b` = 0), `a` = member index — pairs bound
  // the degraded-mode intervals.
  uint64_t prepares = 0, record_writes = 0, record_releases = 0;
  uint64_t resolved_forward = 0, resolved_abort = 0;
  uint64_t member_faults = 0;
  // MVCC snapshot reads: kSata kSnapPin/kSnapUnpin/kSnapRead are the device
  // commands; the XFTL layer's kSnapRead carries hit(1)/live(0) in `b` and
  // kSnapDefer carries committed slots kept alive for a pinned reader in `a`.
  uint64_t snap_pins = 0, snap_unpins = 0, snap_reads = 0;
  uint64_t snap_version_hits = 0, snap_live_reads = 0;
  uint64_t snap_defer_scans = 0, snap_deferred_slots = 0;
  // Barrier ordering (kBarrier firmware): host/sata barrier commands, and
  // the flash scheduler's bookkeeping — kFlash kBarrier events carry the
  // kind in `b` (0 = epoch opened, `a` = epoch id, `tid` = epochs in
  // flight; 1 = program stalled for order; 2 = stalled for its bank while
  // the fence was also up; stalls carry the wait in `latency`).
  uint64_t host_barriers = 0, ftl_barriers = 0;
  uint64_t epochs_opened = 0, max_epochs_in_flight = 0;
  uint64_t order_stalls = 0, order_stall_nanos = 0;
  uint64_t bank_stalls = 0, bank_stall_nanos = 0;
  std::map<uint32_t, SimNanos> member_down_since;
  uint64_t degraded_nanos = 0;
  SimNanos last_time = 0;
  // FTL restarts: kFtl kRecover carries the pages the OOB scan sensed in
  // `a` and every OOB read the recovery issued in `b`; kRecoverBlocks the
  // data blocks trusted from the checkpoint (`a`), scanned as written after
  // it (`b`) and resumed (`tid`).
  uint64_t recoveries = 0, recovery_nanos = 0;
  uint64_t recovery_pages_scanned = 0, recovery_oob_reads = 0;
  uint64_t blocks_trusted = 0, blocks_scanned = 0, blocks_resumed = 0;

  for (const TraceEvent& e : events) {
    last_time = std::max(last_time, e.time);
    lat[int(e.layer)][int(e.op)].Add(e.latency);
    if (e.op == Op::kFlush || e.op == Op::kFsync) {
      flush_count[int(e.layer)]++;
      flush_nanos[int(e.layer)] += e.latency;
      if (e.layer == Layer::kFlash && e.op == Op::kFlush) {
        programs_made_durable += e.b;
      }
    }
    if (e.layer == Layer::kSata) {
      if (e.op == Op::kWrite) host_writes++;
      if (e.op == Op::kTxWrite) {
        host_writes++;
        txn_pages[e.tid]++;
      }
      if (e.op == Op::kWrite || e.op == Op::kTxWrite) {
        queue_occupancy.Add(e.b);
      }
      if (e.op == Op::kLinkFault) {
        if (e.b == 0) crc_faults++;
        if (e.b == 1) timeout_faults++;
        if (e.b == 2) abort_faults++;
        if (e.latency > 0) {
          link_retries++;
          backoff_nanos += e.latency;
        }
      }
      if (e.op == Op::kLinkReset) {
        link_resets++;
        reissued_pages += e.b;
      }
      if (e.op == Op::kDegrade) {
        if (e.a == 1) degrade_enters++;
        if (e.a == 0) degrade_exits++;
        if (e.a == 2) link_deaths++;
      }
      if (e.op == Op::kTxPrepare) prepares++;
      if (e.op == Op::kCommitRecord) {
        if (e.a == 1) record_writes++;
        if (e.a == 0) record_releases++;
      }
      if (e.op == Op::kResolve) {
        if (e.a == 1) resolved_forward++;
        if (e.a == 0) resolved_abort++;
      }
      if (e.op == Op::kBarrier) host_barriers++;
      if (e.op == Op::kSnapPin) snap_pins++;
      if (e.op == Op::kSnapUnpin) snap_unpins++;
      if (e.op == Op::kSnapRead) snap_reads++;
    }
    if (e.layer == Layer::kXftl) {
      if (e.op == Op::kSnapRead && e.status == StatusCode::kOk) {
        if (e.b == 1) snap_version_hits++;
        else snap_live_reads++;
      }
      if (e.op == Op::kSnapDefer) {
        snap_defer_scans++;
        snap_deferred_slots += e.a;
      }
    }
    if (e.layer == Layer::kFtl && e.op == Op::kBarrier) ftl_barriers++;
    if (e.layer == Layer::kFtl && e.op == Op::kRecover) {
      recoveries++;
      recovery_nanos += e.latency;
      recovery_pages_scanned += e.a;
      recovery_oob_reads += e.b;
    }
    if (e.layer == Layer::kFtl && e.op == Op::kRecoverBlocks) {
      blocks_trusted += e.a;
      blocks_scanned += e.b;
      blocks_resumed += e.tid;
    }
    if (e.layer == Layer::kFlash && e.op == Op::kBarrier) {
      if (e.b == 0) {
        epochs_opened++;
        max_epochs_in_flight = std::max<uint64_t>(max_epochs_in_flight, e.tid);
      }
      if (e.b == 1) {
        order_stalls++;
        order_stall_nanos += e.latency;
      }
      if (e.b == 2) {
        bank_stalls++;
        bank_stall_nanos += e.latency;
      }
    }
    if (e.layer == Layer::kHost && e.op == Op::kMemberFault) {
      if (e.b == 1) {
        member_faults++;
        member_down_since.emplace(uint32_t(e.a), e.time);
      } else {
        auto it = member_down_since.find(uint32_t(e.a));
        if (it != member_down_since.end()) {
          degraded_nanos += e.time - it->second;
          member_down_since.erase(it);
        }
      }
    }
    if (e.layer == Layer::kFlash && e.op == Op::kWrite) {
      flash_programs++;
      bank_programs[e.tid]++;
    }
    if (e.layer == Layer::kHost && e.op == Op::kTxn) {
      session_lat[e.sid].Add(e.latency);
      session_busy[e.sid] += e.b;
      host_txns++;
      host_first = std::min(host_first, e.time);
      host_last = std::max(host_last, e.time + e.latency);
    }
    if (e.layer == Layer::kFlash && e.op == Op::kErase) erases++;
    if (e.layer == Layer::kFtl && e.op == Op::kGc &&
        e.status == StatusCode::kOk) {
      gc_copybacks += e.b;  // valid pages the victim carried
    }
  }

  std::printf("%llu events%s\n\n", (unsigned long long)events.size(),
              truncated ? " (torn tail skipped)" : "");

  std::printf("per-layer latency (ns)\n");
  std::printf("%-6s %-10s %10s %10s %10s %10s %10s\n", "layer", "op", "count",
              "mean", "p50", "p95", "p99");
  for (int l = 0; l < kNumLayers; ++l) {
    for (int o = 0; o < kNumOps; ++o) {
      const Histogram& h = lat[l][o];
      if (h.count() == 0) continue;
      std::printf("%-6s %-10s %10llu %10.0f %10.0f %10.0f %10.0f\n",
                  LayerName(Layer(l)), OpName(Op(o)),
                  (unsigned long long)h.count(), h.Mean(), h.Percentile(50),
                  h.Percentile(95), h.Percentile(99));
    }
  }

  if (host_txns > 0) {
    std::printf("\nper-session transactions (host layer)\n");
    std::printf("%5s %10s %12s %12s %12s %12s\n", "sid", "txns", "mean-us",
                "p50-us", "p99-us", "busy-ms");
    for (const auto& [sid, h] : session_lat) {
      std::printf("%5u %10llu %12.1f %12.1f %12.1f %12.2f\n", sid,
                  (unsigned long long)h.count(), h.Mean() / 1e3,
                  h.Percentile(50) / 1e3, h.Percentile(99) / 1e3,
                  double(session_busy[sid]) / 1e6);
    }
    const double span_sec =
        host_last > host_first ? double(host_last - host_first) / 1e9 : 0.0;
    std::printf("  array: %llu txns across %llu sessions over %.3f s",
                (unsigned long long)host_txns,
                (unsigned long long)session_lat.size(), span_sec);
    if (span_sec > 0) {
      std::printf("  ->  %.0f txn/s", double(host_txns) / span_sec);
    }
    std::printf("\n");
  }

  // MVCC snapshot reads (traces with pinned-snapshot readers only).
  if (snap_pins + snap_unpins + snap_reads + snap_defer_scans > 0) {
    std::printf("\nsnapshot reads (MVCC pinned readers)\n");
    std::printf("  pins opened: %llu, closed: %llu%s\n",
                (unsigned long long)snap_pins,
                (unsigned long long)snap_unpins,
                snap_pins > snap_unpins ? "  [PIN STILL OPEN AT TRACE END]"
                                        : "");
    std::printf("  snapshot read commands: %llu (%llu version hits, "
                "%llu served live)\n",
                (unsigned long long)snap_reads,
                (unsigned long long)snap_version_hits,
                (unsigned long long)snap_live_reads);
    std::printf("  reclaim deferrals: %llu slots held across %llu release "
                "scans\n",
                (unsigned long long)snap_deferred_slots,
                (unsigned long long)snap_defer_scans);
  }

  if (!txn_pages.empty()) {
    uint64_t total = 0, mx = 0, mn = ~0ull;
    for (const auto& [tid, pages] : txn_pages) {
      total += pages;
      mx = std::max(mx, pages);
      mn = std::min(mn, pages);
    }
    std::printf("\nper-transaction page counts\n");
    std::printf("  transactions: %llu   pages/txn min %llu  mean %.1f  "
                "max %llu\n",
                (unsigned long long)txn_pages.size(), (unsigned long long)mn,
                double(total) / double(txn_pages.size()),
                (unsigned long long)mx);
  }

  uint64_t total_flushes = 0;
  for (int l = 0; l < kNumLayers; ++l) total_flushes += flush_count[l];
  if (total_flushes > 0) {
    std::printf("\ndurability barriers (flush / fsync)\n");
    std::printf("%-6s %10s %12s %12s\n", "layer", "count", "total-us",
                "mean-us");
    for (int l = 0; l < kNumLayers; ++l) {
      if (flush_count[l] == 0) continue;
      std::printf("%-6s %10llu %12.1f %12.1f\n", LayerName(Layer(l)),
                  (unsigned long long)flush_count[l],
                  double(flush_nanos[l]) / 1e3,
                  double(flush_nanos[l]) / 1e3 / double(flush_count[l]));
    }
    std::printf("  flash barriers made %llu buffered programs durable\n",
                (unsigned long long)programs_made_durable);
  }

  if (flash_programs > 0) {
    uint64_t other = flash_programs - std::min(flash_programs,
                                               host_writes + gc_copybacks);
    std::printf("\nwrite amplification\n");
    std::printf("  host writes %llu, flash programs %llu "
                "(gc copy-backs %llu, meta/other %llu)\n",
                (unsigned long long)host_writes,
                (unsigned long long)flash_programs,
                (unsigned long long)gc_copybacks, (unsigned long long)other);
    std::printf("  erases %llu   WA %.3f\n", (unsigned long long)erases,
                host_writes == 0
                    ? 0.0
                    : double(flash_programs) / double(host_writes));
  }

  // Queued-command pipeline: how deep the NCQ ran and how evenly the
  // programs spread across banks (ideal share = 1/banks).
  if (queue_occupancy.count() > 0 || !bank_programs.empty()) {
    std::printf("\nqueued-command pipeline\n");
    if (queue_occupancy.count() > 0) {
      std::printf("  ncq occupancy at submit: mean %.1f  p50 %.0f  p95 %.0f  "
                  "max %.0f (over %llu write commands)\n",
                  queue_occupancy.Mean(), queue_occupancy.Percentile(50),
                  queue_occupancy.Percentile(95),
                  queue_occupancy.Percentile(100),
                  (unsigned long long)queue_occupancy.count());
    }
    if (!bank_programs.empty()) {
      std::printf("  bank utilization (page programs per bank):\n");
      for (const auto& [bank, n] : bank_programs) {
        std::printf("    bank %2u: %10llu (%.1f%%)\n", bank,
                    (unsigned long long)n,
                    100.0 * double(n) / double(flash_programs));
      }
    }
  }

  // FTL restarts: how much flash the boot scan touched. A healthy scan
  // senses each page's OOB at most once, so oob reads == pages scanned
  // (more means some recovery step re-read flash), and senses past page 0
  // only in blocks written after the checkpoint: a slow boot shows up as
  // many scanned blocks, i.e. a long log tail since the last checkpoint.
  if (recoveries > 0) {
    std::printf("\nftl restart (power-on recovery)\n");
    std::printf("  recoveries: %llu   total %.1f ms   pages scanned %llu   "
                "oob reads %llu (%.2f per page)\n",
                (unsigned long long)recoveries, double(recovery_nanos) / 1e6,
                (unsigned long long)recovery_pages_scanned,
                (unsigned long long)recovery_oob_reads,
                recovery_pages_scanned == 0
                    ? 0.0
                    : double(recovery_oob_reads) /
                          double(recovery_pages_scanned));
    std::printf("  data blocks: %llu trusted from the checkpoint, %llu "
                "scanned as written after it   resumed as open: %llu\n",
                (unsigned long long)blocks_trusted,
                (unsigned long long)blocks_scanned,
                (unsigned long long)blocks_resumed);
  }

  // Error recovery: what the link-fault model injected and what the NCQ
  // error protocol + degradation ladder did about it.
  uint64_t total_faults = crc_faults + timeout_faults + abort_faults;
  if (total_faults > 0 || link_resets > 0 || degrade_enters > 0) {
    std::printf("\nerror recovery\n");
    std::printf("  link faults: %llu crc, %llu timeout, %llu abort\n",
                (unsigned long long)crc_faults,
                (unsigned long long)timeout_faults,
                (unsigned long long)abort_faults);
    std::printf("  retries: %llu (total backoff %.1f us)\n",
                (unsigned long long)link_retries,
                double(backoff_nanos) / 1e3);
    std::printf("  queue resets: %llu, aborted tags reissued %llu pages\n",
                (unsigned long long)link_resets,
                (unsigned long long)reissued_pages);
    std::printf("  degraded qd=1 mode: entered %llu, restored %llu"
                "%s\n",
                (unsigned long long)degrade_enters,
                (unsigned long long)degrade_exits,
                link_deaths > 0 ? "  [LINK FAILED]" : "");
  }

  // Barrier ordering: order-preserving barriers instead of queue drains
  // (kBarrier firmware traces only).
  if (host_barriers > 0 || epochs_opened > 0) {
    std::printf("\nbarrier ordering (order-preserving barriers)\n");
    std::printf("  barrier commands: %llu host, %llu ftl   epochs opened: "
                "%llu   max epochs in flight: %llu\n",
                (unsigned long long)host_barriers,
                (unsigned long long)ftl_barriers,
                (unsigned long long)epochs_opened,
                (unsigned long long)max_epochs_in_flight);
    std::printf("  programs stalled for order: %llu (%.1f us)   "
                "stalled for bank under fence: %llu (%.1f us)\n",
                (unsigned long long)order_stalls,
                double(order_stall_nanos) / 1e3,
                (unsigned long long)bank_stalls,
                double(bank_stall_nanos) / 1e3);
  }

  // Array commit: the cross-device two-phase protocol and per-member fault
  // domains (striped-volume traces only).
  if (prepares > 0 || record_writes > 0 || member_faults > 0 ||
      resolved_forward + resolved_abort > 0) {
    // A member still offline when the trace ends counts as degraded through
    // the last event.
    size_t still_down = member_down_since.size();
    for (const auto& [m, t0] : member_down_since) {
      degraded_nanos += last_time - t0;
    }
    std::printf("\narray commit (cross-device two-phase)\n");
    std::printf("  prepares: %llu   commit records: %llu written, "
                "%llu released\n",
                (unsigned long long)prepares,
                (unsigned long long)record_writes,
                (unsigned long long)record_releases);
    std::printf("  in-doubt resolved: %llu forward, %llu aborted\n",
                (unsigned long long)resolved_forward,
                (unsigned long long)resolved_abort);
    std::printf("  member faults: %llu, degraded-mode time %.1f us%s\n",
                (unsigned long long)member_faults,
                double(degraded_nanos) / 1e3,
                still_down > 0 ? "  [MEMBER STILL OFFLINE]" : "");
  }
  return 0;
}

int Replay(const std::string& path, int argc, char** argv) {
  std::string profile = bench::FlagString(argc, argv, "profile", "openssd");
  std::string ftl = bench::FlagString(argc, argv, "ftl", "xftl");
  long blocks = bench::FlagInt(argc, argv, "blocks", 512);
  if (!bench::FlagOneOf("profile", profile, {"openssd", "s830"}) ||
      !bench::FlagOneOf("ftl", ftl, {"xftl", "page"})) {
    return 2;
  }

  storage::SsdSpec spec = profile == "s830"
                              ? storage::S830Spec(uint32_t(blocks))
                              : storage::OpenSsdSpec(uint32_t(blocks));
  spec.transactional = ftl != "page";

  auto first_or = ReplayTrace(path, spec);
  if (!first_or.ok()) {
    std::fprintf(stderr, "error: %s\n", first_or.status().ToString().c_str());
    return 1;
  }
  const ReplayResult& r = first_or.value();
  std::printf("replayed %llu commands on %s/%s: %llu reads, %llu writes, "
              "%llu trims, %llu flushes, %llu commits, %llu aborts, "
              "%llu snapshot pins/unpins (%llu skipped, %llu errors)%s\n",
              (unsigned long long)r.Commands(), profile.c_str(), ftl.c_str(),
              (unsigned long long)r.reads, (unsigned long long)r.writes,
              (unsigned long long)r.trims, (unsigned long long)r.flushes,
              (unsigned long long)r.commits, (unsigned long long)r.aborts,
              (unsigned long long)r.snap_pins, (unsigned long long)r.skipped,
              (unsigned long long)r.errors,
              r.truncated ? " [torn tail skipped]" : "");
  std::printf("device: %llu page programs, %llu reads, %llu erases, "
              "%llu gc runs, elapsed %.3f ms\n",
              (unsigned long long)r.ftl.TotalPageWrites(),
              (unsigned long long)r.ftl.TotalPageReads(),
              (unsigned long long)r.ftl.block_erases,
              (unsigned long long)r.ftl.gc_runs, double(r.elapsed) / 1e6);

  // Determinism check: a second replay of the same trace on the same spec
  // must land on bit-identical FTL counters.
  auto second_or = ReplayTrace(path, spec);
  if (!second_or.ok()) {
    std::fprintf(stderr, "error on second replay: %s\n",
                 second_or.status().ToString().c_str());
    return 1;
  }
  bool deterministic = first_or.value().ftl == second_or.value().ftl;
  std::printf("determinism: FtlStats across two replays %s\n",
              deterministic ? "identical" : "DIVERGED");
  return deterministic ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string cmd = argv[1];
  std::string path = argv[2];
  if (cmd == "dump") return Dump(path, bench::FlagInt(argc, argv, "limit", 0));
  if (cmd == "summary") return Summary(path);
  if (cmd == "replay") return Replay(path, argc, argv);
  return Usage();
}

}  // namespace
}  // namespace xftl::trace

int main(int argc, char** argv) { return xftl::trace::Main(argc, argv); }
