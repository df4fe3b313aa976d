// MVCC readers-vs-writer bench: read-only sessions pinning FTL snapshots
// while one writer keeps committing, across the paper's three setups.
//
// The question this bench answers: do snapshot readers scale without
// throttling the writer? Each cell runs one open-loop writer session
// (s1.db) plus N read-only connections onto the same file; every reader
// dispatch is BEGIN READONLY + full table scan + snapshot-consistency
// verification + COMMIT. Under X-FTL the readers pin a device snapshot
// epoch and resolve pages through retained X-L2P pre-images; under WAL
// they take a SQLite-style reader snapshot of the log; under RBJ they read
// the committed database file directly.
//
// Default sweep: setups {xftl, wal, rbj} x readers {0, 1, 8}. The
// readers=0 cell is the writer baseline. Per-session throughput uses each
// session's own completion time, so the writer bar is exact even though
// readers finish on their own clock. Any snapshot-consistency violation
// (torn transaction, non-prefix ids, regressing row count) fails the
// dispatch and therefore the bench.
//
//   --setup=xftl|wal|rbj  pin one setup (default: sweep all three)
//   --readers=N           pin one reader count (default: sweep 0, 1, 8)
//   --txns=N              writer transactions (default 150)
//   --read-txns=N         transactions per reader (default 40)
//   --rate=R              writer arrival rate, txn/s (default 200)
//   --read-rate=R         per-reader arrival rate, txn/s (default 50)
//   --rows=N              rows inserted per writer transaction (default 2)
//   --blocks=N            flash blocks (default 256)
//   --profile=s830|openssd  device profile (default s830)
//   --trace=PATH          capture a trace (xftl_trace summary shows the
//                         snapshot-read section); needs a single cell, so
//                         pin --setup and --readers
//   --json                emit one JSON line per cell
//   --check               after the sweep, assert the acceptance bars on
//                         every swept setup: >= 3x aggregate read
//                         throughput at 8 readers vs 1, and writer txn/s
//                         within 15% of the no-reader baseline
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "workload/harness.h"

namespace xftl::bench {
namespace {

struct CellResult {
  double writer_tps = 0.0;
  double agg_read_tps = 0.0;
  uint64_t read_committed = 0;
};

int Run(int argc, char** argv) {
  const std::string setup_flag = FlagString(argc, argv, "setup", "");
  const long readers_flag = FlagInt(argc, argv, "readers", -1);
  const long txns = FlagInt(argc, argv, "txns", 150);
  const long read_txns = FlagInt(argc, argv, "read-txns", 40);
  const double rate = FlagDouble(argc, argv, "rate", 200.0);
  const double read_rate = FlagDouble(argc, argv, "read-rate", 50.0);
  const long rows = FlagInt(argc, argv, "rows", 2);
  const long blocks = FlagInt(argc, argv, "blocks", 256);
  const std::string profile = FlagString(argc, argv, "profile", "s830");
  const std::string trace = FlagString(argc, argv, "trace", "");
  const bool json = FlagBool(argc, argv, "json");
  const bool check = FlagBool(argc, argv, "check");
  if ((!setup_flag.empty() &&
       !FlagOneOf("setup", setup_flag, {"xftl", "wal", "rbj"})) ||
      !FlagOneOf("profile", profile, {"s830", "openssd"})) {
    return 1;
  }

  std::vector<std::string> setups =
      setup_flag.empty() ? std::vector<std::string>{"xftl", "wal", "rbj"}
                         : std::vector<std::string>{setup_flag};
  std::vector<uint32_t> reader_axis =
      readers_flag >= 0 ? std::vector<uint32_t>{uint32_t(readers_flag)}
                        : std::vector<uint32_t>{0, 1, 8};

  if (!json) {
    PrintHeader("bench_mvcc: snapshot readers vs one committing writer");
    std::printf("profile %s, writer %.0f txn/s x %ld txns x %ld rows, "
                "readers %.0f txn/s x %ld scans each\n\n",
                profile.c_str(), rate, txns, rows, read_rate, read_txns);
    std::printf("%6s %8s %12s %14s %12s %12s\n", "setup", "readers",
                "writer-tps", "agg-read-tps", "read-p99-ms", "version-hits");
  }

  // (setup, readers) -> result, for the acceptance bars.
  std::map<std::pair<std::string, uint32_t>, CellResult> grid;

  for (const std::string& setup : setups) {
    for (uint32_t readers : reader_axis) {
      workload::HarnessConfig hc;
      hc.setup = setup == "wal"   ? workload::Setup::kWal
                 : setup == "rbj" ? workload::Setup::kRbj
                                  : workload::Setup::kXftl;
      hc.s830 = profile != "openssd";
      hc.device_blocks = uint32_t(blocks);
      hc.cpu_per_statement = Micros(10);
      hc.seed = 42;
      workload::Harness h(hc);
      Status st = h.Setup();
      if (!st.ok()) {
        std::fprintf(stderr, "setup failed (%s): %s\n", setup.c_str(),
                     st.ToString().c_str());
        return 1;
      }
      if (!trace.empty()) {
        // Trace only the cell the flags pinned; a sweep would overwrite it.
        if (setups.size() > 1 || reader_axis.size() > 1) {
          std::fprintf(stderr,
                       "--trace needs a single cell: pin --setup and "
                       "--readers\n");
          return 1;
        }
        st = h.EnableTracing(trace);
        if (!st.ok()) {
          std::fprintf(stderr, "tracing: %s\n", st.ToString().c_str());
          return 1;
        }
      }

      workload::MultiSessionConfig mc;
      mc.sessions = 1;
      mc.txns_per_session = uint64_t(txns);
      mc.open_loop = true;
      mc.rate_per_sec = rate;
      mc.rows_per_txn = uint32_t(rows);
      mc.readers = readers;
      mc.txns_per_reader = uint64_t(read_txns);
      mc.reader_rate_per_sec = read_rate;
      auto r = h.RunMultiSession(mc);
      if (!r.ok()) {
        std::fprintf(stderr, "run failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      if (!r->run_status.ok()) {
        // Snapshot-consistency violations surface here: a reader that saw a
        // torn or regressing state failed its dispatch and killed the run.
        std::fprintf(stderr, "run died mid-flight (%s, %u readers): %s\n",
                     setup.c_str(), readers,
                     r->run_status.ToString().c_str());
        return 1;
      }
      if (!trace.empty()) (void)h.FinishTracing();

      CellResult cell;
      Histogram read_lat;
      for (const auto& s : r->sessions) {
        if (s.done == 0) continue;
        const double tps = double(s.committed) / NanosToSeconds(s.done);
        if (s.read_only) {
          cell.agg_read_tps += tps;
          cell.read_committed += s.committed;
          read_lat.Merge(s.latency);
        } else {
          cell.writer_tps = tps;
        }
      }
      grid[{setup, readers}] = cell;

      // Device-level snapshot accounting (X-FTL cells only; the other
      // setups never issue snapshot commands).
      uint64_t snap_reads = 0, version_hits = 0, deferrals = 0;
      for (uint32_t d = 0; d < h.num_devices(); ++d) {
        storage::SimSsd* ssd = h.ssd(d);
        snap_reads += ssd->device()->stats().snap_read_commands;
        if (ssd->xftl() != nullptr) {
          version_hits += ssd->xftl()->xstats().version_hits;
          deferrals += ssd->xftl()->xstats().reclaim_deferrals;
        }
      }

      if (json) {
        JsonObject o;
        o.Add("bench", "mvcc")
            .Add("profile", profile)
            .Add("setup", setup)
            .Add("readers", uint64_t(readers))
            .Add("writer_txns", uint64_t(txns))
            .Add("writer_tps", cell.writer_tps)
            .Add("agg_read_tps", cell.agg_read_tps)
            .Add("read_committed", cell.read_committed)
            .Add("read_p99_ms", read_lat.Percentile(99) / 1e6)
            .Add("snap_read_commands", snap_reads)
            .Add("version_hits", version_hits)
            .Add("reclaim_deferrals", deferrals);
        o.Print();
      } else {
        std::printf("%6s %8u %12.0f %14.0f %12.2f %12llu\n", setup.c_str(),
                    readers, cell.writer_tps, cell.agg_read_tps,
                    read_lat.Percentile(99) / 1e6,
                    (unsigned long long)version_hits);
      }
    }
  }

  if (check) {
    // Acceptance bars need the full reader axis per setup.
    if (reader_axis.size() < 3) {
      std::fprintf(stderr, "--check needs the full reader sweep (0, 1, 8)\n");
      return 1;
    }
    for (const std::string& setup : setups) {
      const CellResult& base = grid[{setup, 0}];
      const CellResult& one = grid[{setup, 1}];
      const CellResult& eight = grid[{setup, 8}];
      const double scale =
          one.agg_read_tps > 0 ? eight.agg_read_tps / one.agg_read_tps : 0.0;
      const double writer_dev =
          base.writer_tps > 0
              ? std::fabs(eight.writer_tps - base.writer_tps) / base.writer_tps
              : 1.0;
      std::fprintf(stderr,
                   "check %s: read scaling 1->8 = %.2fx, writer deviation "
                   "with 8 readers = %.1f%%\n",
                   setup.c_str(), scale, writer_dev * 100.0);
      if (scale < 3.0) {
        std::fprintf(stderr, "FAIL %s: aggregate read throughput at 8 "
                     "readers is %.2fx of 1 reader (bar: >= 3x)\n",
                     setup.c_str(), scale);
        return 1;
      }
      if (writer_dev > 0.15) {
        std::fprintf(stderr, "FAIL %s: writer throughput moved %.1f%% with 8 "
                     "readers (bar: within 15%% of baseline)\n",
                     setup.c_str(), writer_dev * 100.0);
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace xftl::bench

int main(int argc, char** argv) { return xftl::bench::Run(argc, argv); }
