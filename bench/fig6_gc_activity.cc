// Figure 6: I/O activity inside the drive for the synthetic workload at 5
// updated pages per transaction: (a) total page writes and (b) garbage
// collection count, vs the GC valid-page ratio (30/50/70%).
//
// Flags: --tuples=N --txns=N --scale=F
//        --json (JSON Lines, one object per cell, instead of the table)
#include <cstdio>

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
  bool json = bench::FlagBool(argc, argv, "json");

  if (!json) {
    bench::PrintHeader(
        "Figure 6: I/O activities inside the drive (5 updated pages per "
        "transaction)");
    std::printf("config: %u tuples, %u transactions per cell\n\n", tuples,
                txns);
    std::printf("%-9s %-8s %14s %10s %12s\n", "validity", "mode",
                "page-writes", "GC-count", "achieved");
  }

  for (double validity : {0.3, 0.5, 0.7}) {
    for (Setup setup : {Setup::kRbj, Setup::kWal, Setup::kXftl}) {
      HarnessConfig cfg;
      cfg.setup = setup;
      cfg.device_blocks = 256;
      cfg.gc_valid_target = validity;
      Harness h(cfg);
      CHECK(h.Setup().ok());
      auto* db = h.OpenDatabase("synthetic.db").value();
      SyntheticConfig wl;
      wl.num_tuples = tuples;
      wl.transactions = txns;
      wl.updates_per_transaction = 5;
      CHECK(LoadPartsupp(db, wl).ok());
      h.StartMeasurement();
      CHECK(RunSyntheticUpdates(db, wl).ok());
      IoSnapshot s = h.Snapshot();
      const double achieved =
          s.ftl.MeanGcValidRatio(h.ssd()->flash()->config().pages_per_block);
      if (json) {
        bench::JsonObject o;
        o.Add("bench", "fig6_gc_activity")
            .Add("validity_target", validity)
            .Add("mode", SetupName(setup))
            .Add("page_writes", s.ftl.TotalPageWrites())
            .Add("gc_count", s.ftl.gc_runs)
            .Add("achieved_validity", achieved);
        o.Print();
      } else {
        std::printf("%7.0f%%  %-8s %14llu %10llu %11.0f%%\n", validity * 100,
                    SetupName(setup),
                    (unsigned long long)s.ftl.TotalPageWrites(),
                    (unsigned long long)s.ftl.gc_runs, achieved * 100);
        std::fflush(stdout);
      }
    }
  }
  if (json) return 0;
  std::printf("\npaper (50%%): writes RBJ~244k WAL~93k X-FTL~33k; "
              "GC RBJ~756 WAL~409 X-FTL~115; both rise with validity and "
              "keep the RBJ > WAL > X-FTL ordering\n");
  return 0;
}
