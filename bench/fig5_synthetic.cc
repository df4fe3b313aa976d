// Figure 5 (a)-(c): synthetic workload execution time for RBJ / WAL / X-FTL,
// sweeping the number of updated pages per transaction (1..20) at three
// device aging levels (GC victim validity ~30/50/70%).
//
// Flags: --tuples=N --txns=N --scale=F (shrinks both) --quick (only the 50%
// point) --json (machine-readable JSON Lines instead of the table)
// --trace=PREFIX (capture each cell's event stream to
// PREFIX.<setup>.v<validity>.u<upd>.trace for xftl_trace)
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "workload/harness.h"
#include "workload/synthetic.h"

using namespace xftl;
using namespace xftl::workload;

int main(int argc, char** argv) {
  double scale = bench::FlagDouble(argc, argv, "scale", 1.0);
  uint32_t tuples =
      uint32_t(bench::FlagInt(argc, argv, "tuples", 60000) * scale);
  uint32_t txns = uint32_t(bench::FlagInt(argc, argv, "txns", 1000) * scale);
  bool quick = bench::FlagBool(argc, argv, "quick");
  bool json = bench::FlagBool(argc, argv, "json");
  std::string trace_prefix = bench::FlagString(argc, argv, "trace", "");

  if (!json) {
    bench::PrintHeader(
        "Figure 5: SQLite synthetic workload (x1,000 transactions), elapsed "
        "seconds");
    std::printf("config: %u tuples, %u transactions per cell\n\n", tuples,
                txns);
  }

  std::vector<double> validities = quick ? std::vector<double>{0.5}
                                         : std::vector<double>{0.3, 0.5, 0.7};
  const int updates[] = {1, 5, 10, 15, 20};

  // Paper reference points at GC validity 50% (read off Figure 5(b)):
  // at 5 updates/txn RBJ ~ 230 s, WAL ~ 70 s, X-FTL ~ 20 s, i.e. X-FTL is
  // ~3.5x faster than WAL and ~11.7x faster than RBJ.
  for (double validity : validities) {
    if (!json) {
      std::printf("--- GC validity target %.0f%% ---\n", validity * 100);
      std::printf("%-10s", "upd/txn");
      for (int u : updates) std::printf("%10d", u);
      std::printf("%12s\n", "aged@");
    }
    for (Setup setup : {Setup::kRbj, Setup::kWal, Setup::kXftl}) {
      if (!json) std::printf("%-10s", SetupName(setup));
      double aged = 0;
      for (int u : updates) {
        HarnessConfig cfg;
        cfg.setup = setup;
        cfg.device_blocks = 256;
        cfg.gc_valid_target = validity;
        Harness h(cfg);
        CHECK(h.Setup().ok());
        aged = h.aged_validity();
        auto* db = h.OpenDatabase("synthetic.db").value();
        SyntheticConfig wl;
        wl.num_tuples = tuples;
        wl.transactions = txns;
        wl.updates_per_transaction = uint32_t(u);
        CHECK(LoadPartsupp(db, wl).ok());
        if (!trace_prefix.empty()) {
          char path[256];
          std::snprintf(path, sizeof(path), "%s.%s.v%.0f.u%d.trace",
                        trace_prefix.c_str(), SetupName(setup),
                        validity * 100, u);
          CHECK(h.EnableTracing(path).ok());
        }
        h.StartMeasurement();
        CHECK(RunSyntheticUpdates(db, wl).ok());
        IoSnapshot s = h.Snapshot();
        if (!trace_prefix.empty()) CHECK(h.FinishTracing().ok());
        if (json) {
          bench::JsonObject o;
          o.Add("bench", "fig5_synthetic")
              .Add("setup", SetupName(setup))
              .Add("gc_valid_target", validity)
              .Add("aged_validity", aged)
              .Add("updates_per_txn", long(u))
              .Add("tuples", uint64_t(tuples))
              .Add("txns", uint64_t(txns))
              .Add("elapsed_s", NanosToSeconds(s.elapsed))
              .Add("ftl_page_writes", s.ftl.TotalPageWrites())
              .Add("ftl_page_reads", s.ftl.host_page_reads)
              .Add("gc_count", s.ftl.gc_runs)
              .Add("erase_count", s.ftl.block_erases)
              .Add("fsync_calls", s.fsync_calls);
          o.Print();
        } else {
          std::printf("%10.1f", NanosToSeconds(s.elapsed));
        }
        std::fflush(stdout);
      }
      if (!json) std::printf("%11.0f%%\n", aged * 100);
    }
    if (!json) std::printf("\n");
  }
  if (!json) {
    std::printf("paper (Fig 5b @5 upd/txn): RBJ~230s WAL~70s X-FTL~20s; "
                "X-FTL 3.5x faster than WAL, 11.7x faster than RBJ\n");
  }
  return 0;
}
