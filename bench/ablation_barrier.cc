// Barrier ablation: what killing the queue drain on the fsync path buys.
// Sweeps the firmware commit discipline {drain, barrier, plp} against NCQ
// queue depth and journal mode on two fsync-heavy workloads:
//
//   * FIO half: 8 KiB random writes with an fsync after EVERY write (the
//     paper's worst-case interval), over journaling-off/X-FTL and ext
//     ordered journaling, at queue depth 1 / 8 / 32. Drain mode empties the
//     whole NCQ queue at every fsync, so its throughput collapses as depth
//     grows useless; barrier mode replaces the drain with an ordered verb
//     and keeps the queue full. PLP (capacitor-backed) firmware is the
//     upper bound: no ordering work at all.
//
//   * TPC-C half: the write-intensive mix on the rbj / wal / xftl setups,
//     one commit discipline per run. Every SQL commit is at least one fsync,
//     so the commit discipline shows up directly in transactions/minute.
//
// Durability fine print: barrier mode acks commits after ORDERING, not
// completion — a power cut may drop an acknowledged epoch suffix, but never
// tear atomicity or reorder survival (epoch-prefix; see the crash sweep's
// _bar rows). The bench-smoke CI job asserts the headline: barrier-mode
// fsync-heavy FIO at qd=32 recovers >= 1.5x drain-mode throughput, and
// barrier-mode TPC-C beats drain mode (BENCH_barrier.json).
//
// Flags: --writes=N (FIO writes, default 2000)
//        --file_pages=N (default 2048)
//        --txns=N (TPC-C transactions per cell, default 200)
//        --json (JSON Lines, one object per cell, instead of the tables)
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "fs/ext_fs.h"
#include "storage/sim_ssd.h"
#include "workload/fio.h"
#include "workload/harness.h"
#include "workload/tpcc.h"

using namespace xftl;
using namespace xftl::workload;

namespace {

struct FioCell {
  double iops = 0;
  uint64_t ordered_barriers = 0;          // FTL barrier verbs issued
  uint64_t programs_stalled_for_order = 0;  // epoch-fence stalls at the flash
};

FioCell RunFioCell(fs::JournalMode mode, ftl::CommitMode commit, uint32_t qd,
                   uint64_t writes, uint64_t file_pages) {
  SimClock clock;
  storage::SsdSpec spec = storage::OpenSsdSpec(256);
  spec.transactional = mode == fs::JournalMode::kOff;
  spec.ftl.commit_mode = commit;
  spec.sata.ncq_depth = qd;
  storage::SimSsd ssd(spec, &clock);
  fs::FsOptions fs_opt;
  fs_opt.journal_mode = mode;
  fs_opt.journal_pages = 128;
  fs_opt.cache_pages = 512;
  CHECK(fs::ExtFs::Mkfs(ssd.device(), fs_opt).ok());
  auto fs = std::move(fs::ExtFs::Mount(ssd.device(), fs_opt, &clock)).value();
  FioConfig cfg;
  cfg.threads = 1;
  cfg.file_pages = file_pages;
  cfg.writes_per_fsync = 1;  // fsync-heavy: a durability point per write
  cfg.total_writes = writes;
  auto result = RunFio(fs.get(), cfg);
  CHECK(result.ok()) << result.status().ToString();
  FioCell cell;
  cell.iops = result->Iops();
  cell.ordered_barriers = ssd.ftl()->stats().ordered_barriers;
  cell.programs_stalled_for_order =
      ssd.flash()->stats().programs_stalled_for_order;
  return cell;
}

double RunTpccCell(Setup setup, ftl::CommitMode commit, uint64_t txns,
                   const TpccScale& scale) {
  HarnessConfig cfg;
  cfg.setup = setup;
  cfg.device_blocks = 256;
  cfg.db_cache_pages = 64;
  cfg.fs_cache_pages = 128;
  cfg.commit_mode = commit;
  Harness h(cfg);
  CHECK(h.Setup().ok());
  auto* db = h.OpenDatabase("tpcc.db").value();
  Tpcc tpcc(db, h.clock(), scale);
  CHECK(tpcc.Load().ok());
  CHECK(tpcc.Run(WriteIntensiveMix(), txns / 4).ok());  // ramp-up
  h.StartMeasurement();
  auto result = tpcc.Run(WriteIntensiveMix(), txns);
  CHECK(result.ok()) << result.status().ToString();
  return result->tpm();
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t writes = uint64_t(bench::FlagInt(argc, argv, "writes", 2000));
  uint64_t file_pages =
      uint64_t(bench::FlagInt(argc, argv, "file_pages", 2048));
  uint64_t txns = uint64_t(bench::FlagInt(argc, argv, "txns", 200));
  bool json = bench::FlagBool(argc, argv, "json");

  const ftl::CommitMode kCommits[] = {
      ftl::CommitMode::kDrain, ftl::CommitMode::kBarrier,
      ftl::CommitMode::kPlp};
  const uint32_t kDepths[] = {1, 8, 32};

  struct FsRow {
    const char* name;
    fs::JournalMode mode;
  };
  const FsRow fs_rows[] = {
      {"xftl", fs::JournalMode::kOff},
      {"ordered", fs::JournalMode::kOrdered},
  };

  if (!json) {
    bench::PrintHeader(
        "Barrier ablation, FIO half: 8 KiB random writes, fsync per write "
        "(IOPS, OpenSSD timings)");
    std::printf("config: %llu writes over a %llu-page file\n\n",
                (unsigned long long)writes, (unsigned long long)file_pages);
    std::printf("%-10s %-9s", "journal", "commit");
    for (uint32_t qd : kDepths) std::printf("    qd=%-7u", qd);
    std::printf("\n");
  }
  for (const FsRow& row : fs_rows) {
    for (ftl::CommitMode commit : kCommits) {
      if (!json) {
        std::printf("%-10s %-9s", row.name, ftl::CommitModeName(commit));
      }
      for (uint32_t qd : kDepths) {
        FioCell cell = RunFioCell(row.mode, commit, qd, writes, file_pages);
        if (json) {
          bench::JsonObject o;
          o.Add("bench", "ablation_barrier")
              .Add("half", "fio")
              .Add("journal", row.name)
              .Add("commit", ftl::CommitModeName(commit))
              .Add("queue_depth", uint64_t(qd))
              .Add("writes", writes)
              .Add("iops", cell.iops)
              .Add("ordered_barriers", cell.ordered_barriers)
              .Add("programs_stalled_for_order",
                   cell.programs_stalled_for_order);
          o.Print();
        } else {
          std::printf("    %9.0f", cell.iops);
          std::fflush(stdout);
        }
      }
      if (!json) std::printf("\n");
    }
  }

  const Setup kSetups[] = {Setup::kRbj, Setup::kWal, Setup::kXftl};
  TpccScale scale;
  scale.warehouses = 2;
  scale.items = 500;
  scale.districts_per_warehouse = 10;
  scale.customers_per_district = 30;
  scale.initial_orders_per_district = 30;

  if (!json) {
    std::printf("\n");
    bench::PrintHeader(
        "Barrier ablation, TPC-C half: write-intensive mix "
        "(txns per simulated minute)");
    std::printf("config: %llu transactions per cell\n\n",
                (unsigned long long)txns);
    std::printf("%-8s", "setup");
    for (ftl::CommitMode commit : kCommits) {
      std::printf(" %12s", ftl::CommitModeName(commit));
    }
    std::printf("\n");
  }
  for (Setup setup : kSetups) {
    if (!json) std::printf("%-8s", SetupName(setup));
    for (ftl::CommitMode commit : kCommits) {
      double tpm = RunTpccCell(setup, commit, txns, scale);
      if (json) {
        bench::JsonObject o;
        o.Add("bench", "ablation_barrier")
            .Add("half", "tpcc")
            .Add("setup", SetupName(setup))
            .Add("commit", ftl::CommitModeName(commit))
            .Add("txns", txns)
            .Add("tpm", tpm);
        o.Print();
      } else {
        std::printf(" %12.0f", tpm);
        std::fflush(stdout);
      }
    }
    if (!json) std::printf("\n");
  }
  if (!json) {
    std::printf(
        "\nexpect: drain-mode fsyncs flatten IOPS across queue depths (every "
        "durability point empties the queue); barrier mode recovers most of "
        "the PLP upper bound at qd=32 by ordering instead of waiting, and "
        "the TPC-C write-intensive mix gains on every setup\n");
  }
  return 0;
}
