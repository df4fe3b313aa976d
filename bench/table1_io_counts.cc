// Table 1: host-side and FTL-side I/O counts for the synthetic workload at
// 5 updated pages per transaction and ~50% GC validity.
//
// Flags: --tuples=N --txns=N --scale=F
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

  bench::PrintHeader(
      "Table 1: I/O counts (5 updated pages per transaction, GC validity "
      "~50%)");
  std::printf("config: %u tuples, %u transactions\n\n", tuples, txns);
  std::printf("%-7s | %9s %9s %9s %7s | %9s %9s %6s %7s | %8s\n", "mode",
              "DB-w", "Jrnl-w", "FS-meta", "fsync", "FTL-w", "FTL-r", "GC",
              "Erase", "time(s)");

  struct PaperRow {
    const char* mode;
    long db, jrnl, fs, fsync, ftlw, ftlr, gc, erase;
  };
  const PaperRow paper[] = {
      {"RBJ", 6230, 7222, 15987, 2999, 243639, 9792, 756, 2044},
      {"WAL", 3523, 5754, 3646, 1013, 92979, 3472, 409, 897},
      {"X-FTL", 5211, 0, 994, 994, 33239, 2011, 115, 243},
  };

  for (Setup setup : {Setup::kRbj, Setup::kWal, Setup::kXftl}) {
    HarnessConfig cfg;
    cfg.setup = setup;
    cfg.device_blocks = 256;
    cfg.gc_valid_target = 0.5;
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
    std::printf("%-7s | %9llu %9llu %9llu %7llu | %9llu %9llu %6llu %7llu | "
                "%8.1f\n",
                SetupName(setup), (unsigned long long)s.sqlite_db_writes,
                (unsigned long long)s.sqlite_journal_writes,
                (unsigned long long)s.fs_meta_writes,
                (unsigned long long)s.fsync_calls,
                (unsigned long long)s.ftl.TotalPageWrites(),
                (unsigned long long)s.ftl.host_page_reads,
                (unsigned long long)s.ftl.gc_runs,
                (unsigned long long)s.ftl.block_erases,
                NanosToSeconds(s.elapsed));
  }
  std::printf("\npaper reference (1000 txns, OpenSSD):\n");
  for (const PaperRow& row : paper) {
    std::printf("%-7s | %9ld %9ld %9ld %7ld | %9ld %9ld %6ld %7ld |\n",
                row.mode, row.db, row.jrnl, row.fs, row.fsync, row.ftlw,
                row.ftlr, row.gc, row.erase);
  }
  return 0;
}
