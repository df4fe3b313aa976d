// Table 5: SQLite restart (recovery) time after a power failure in the
// middle of the synthetic workload, for the three modes. As in the paper,
// the common FTL recovery (L2P rebuild, file-system remount) is excluded:
// we report the host-side database recovery, plus the X-L2P load/reflect for
// X-FTL.
//
// The columns the paper's accounting leaves out come next to it:
//   device_ms    the full power-cycle boot (FTL recovery + remount), as a
//                simulated-clock lap around the crash/recover call;
//   oob_reads    OOB senses the FTL issued during that boot, at most
//   meta_pages   the programmed meta pages, plus
//   blocks       one page-0 sense per programmed data block, plus
//   tail_pages   the data pages past page 0 the loaded root cannot vouch
//                for (xftl_fsck's post_root_pages: pages written after the
//                root, and the pages X-L2P recovery consults);
//   programmed   the programmed pages on flash when recovery started (what
//                a boot that sensed every page would read);
//   scan_ms      the bound for those senses: the busiest bank's meta pages
//                and page-0 senses, plus the whole tail, at tR each;
//   read_ms      the full-page reads of the boot (roots, segments, X-L2P,
//                roll-forward candidates, fs metadata) at tR + transfer;
//   write_ms     its programs and erases (fs journal replay, a rebuilt
//                meta region) at their cell time + transfer.
// The page and block counts are taken before the cut, so they may include
// the few programs the cut drops. All are averaged over the runs.
//
// Flags: --runs=N (default 5) --txns=N (default 200) --json (one JSON object
// per mode instead of the table)
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench/bench_util.h"
#include "check/xftl_fsck.h"
#include "common/counters.h"
#include "workload/harness.h"
#include "workload/synthetic.h"

using namespace xftl;
using namespace xftl::workload;

namespace {

// The boot's first OOB batch on each bank: every programmed meta page and
// page 0 of every programmed data block.
std::vector<uint64_t> HeadsPerBank(const flash::FlashDevice& dev,
                                   uint32_t meta_blocks) {
  const flash::FlashConfig& fc = dev.config();
  std::vector<uint64_t> heads(fc.num_banks, 0);
  for (flash::BlockNum b = 0; b < fc.num_blocks; ++b) {
    const uint32_t np = dev.NextProgramPage(b);
    heads[fc.BankOf(b)] += b < meta_blocks ? np : std::min(np, 1u);
  }
  return heads;
}

}  // namespace

int main(int argc, char** argv) {
  int runs = int(bench::FlagInt(argc, argv, "runs", 5));
  uint32_t txns = uint32_t(bench::FlagInt(argc, argv, "txns", 200));
  bool json = bench::FlagBool(argc, argv, "json");

  if (!json) {
    bench::PrintHeader("Table 5: SQLite restart time after a crash (ms)");
    std::printf("config: crash mid-transaction after %u committed "
                "transactions, average of %d runs\n\n", txns, runs);
    std::printf("%-8s %13s %10s %11s %10s %6s %7s %5s %11s %9s %8s %9s\n",
                "mode", "measured(ms)", "paper(ms)", "device(ms)",
                "oob_reads", "meta", "blocks", "tail", "programmed",
                "scan(ms)", "read(ms)", "write(ms)");
  }

  const double paper_ms[] = {20.1, 153.0, 3.5};
  int i = 0;
  for (Setup setup : {Setup::kRbj, Setup::kWal, Setup::kXftl}) {
    double total_ms = 0, device_ms = 0, scan_ms = 0, read_ms = 0,
           write_ms = 0;
    uint64_t oob_reads = 0, meta_pages = 0, blocks = 0, tail_pages = 0,
             programmed = 0;
    for (int run = 0; run < runs; ++run) {
      HarnessConfig cfg;
      cfg.setup = setup;
      cfg.device_blocks = 256;
      cfg.seed = uint64_t(run + 1);
      Harness h(cfg);
      CHECK(h.Setup().ok());
      {
        auto* db = h.OpenDatabase("synthetic.db").value();
        SyntheticConfig wl;
        wl.num_tuples = 20000;
        wl.transactions = txns;
        wl.updates_per_transaction = 5;
        wl.seed = uint64_t(run + 1);
        CHECK(LoadPartsupp(db, wl).ok());
        CHECK(RunSyntheticUpdates(db, wl).ok());
        // Crash mid-transaction: a write transaction is open with ~10 pages
        // dirtied (the paper observed ~10 journal pages to undo).
        CHECK(db->Begin().ok());
        for (int u = 0; u < 10; ++u) {
          CHECK(db->Exec("UPDATE partsupp SET ps_supplycost = 1.0 WHERE "
                         "ps_partkey = " + std::to_string(100 + u * 700))
                    .ok());
        }
        // Push the dirty pages out so recovery has real work to undo.
        // (SQLite's steal would do this under cache pressure.)
      }
      // The cut drops the programs still buffered, so the pages recovery
      // finds are those on flash now minus the ones the cut drops.
      const flash::FlashDevice& dev = *h.ssd()->flash();
      const flash::FlashConfig& fc = dev.config();
      check::FsckOptions opt;
      opt.ftl = h.ssd()->ftl()->ftl_config();
      opt.transactional = h.ssd()->xftl() != nullptr;
      const uint64_t tail =
          check::CheckImage(dev, opt).counters.post_root_pages;
      const std::vector<uint64_t> heads =
          HeadsPerBank(dev, opt.ftl.meta_blocks);
      uint64_t meta = 0, pages = 0;
      for (flash::BlockNum b = 0; b < fc.num_blocks; ++b) {
        (b < opt.ftl.meta_blocks ? meta : pages) += dev.NextProgramPage(b);
      }
      const flash::FlashStats before = dev.stats();
      const SimNanos t0 = h.clock()->Now();
      CHECK(h.CrashAndRecover().ok());
      device_ms += NanosToMillis(h.clock()->Now() - t0);
      const flash::FlashStats boot = CounterDelta(dev.stats(), before);
      meta_pages += meta;
      blocks += std::accumulate(heads.begin(), heads.end(), uint64_t{0}) -
                meta;
      tail_pages += tail;
      programmed += meta + pages - boot.programs_dropped;
      oob_reads += boot.oob_reads;
      scan_ms += NanosToMillis(
          SimNanos(*std::max_element(heads.begin(), heads.end()) + tail) *
          fc.timings.read_page);
      read_ms += NanosToMillis(
          SimNanos(boot.page_reads) *
          (fc.timings.read_page + fc.timings.bus_per_page));
      write_ms += NanosToMillis(
          SimNanos(boot.page_programs) *
              (fc.timings.program_page + fc.timings.bus_per_page) +
          SimNanos(boot.block_erases) * fc.timings.erase_block);

      auto* db = h.OpenDatabase("synthetic.db").value();
      SimNanos restart = db->last_recovery_nanos();
      if (setup == Setup::kXftl && h.ssd()->xftl() != nullptr) {
        restart += h.ssd()->xftl()->xstats().last_recovery_nanos;
      }
      total_ms += NanosToMillis(restart);
      // Sanity: the database is consistent after restart.
      auto r = db->Exec("SELECT COUNT(*) FROM partsupp");
      CHECK(r.ok());
      CHECK_EQ(r->rows[0][0].AsInt(), 20000);
    }
    if (json) {
      bench::JsonObject()
          .Add("mode", SetupName(setup))
          .Add("runs", long(runs))
          .Add("txns", long(txns))
          .Add("restart_ms", total_ms / runs)
          .Add("paper_ms", paper_ms[i++])
          .Add("device_ms", device_ms / runs)
          .Add("oob_reads", oob_reads / uint64_t(runs))
          .Add("meta_pages", meta_pages / uint64_t(runs))
          .Add("blocks", blocks / uint64_t(runs))
          .Add("tail_pages", tail_pages / uint64_t(runs))
          .Add("programmed", programmed / uint64_t(runs))
          .Add("scan_ms", scan_ms / runs)
          .Add("read_ms", read_ms / runs)
          .Add("write_ms", write_ms / runs)
          .Print();
    } else {
      std::printf(
          "%-8s %13.2f %10.1f %11.1f %10llu %6llu %7llu %5llu %11llu %9.1f "
          "%8.1f %9.1f\n",
          SetupName(setup), total_ms / runs, paper_ms[i++], device_ms / runs,
          (unsigned long long)(oob_reads / uint64_t(runs)),
          (unsigned long long)(meta_pages / uint64_t(runs)),
          (unsigned long long)(blocks / uint64_t(runs)),
          (unsigned long long)(tail_pages / uint64_t(runs)),
          (unsigned long long)(programmed / uint64_t(runs)), scan_ms / runs,
          read_ms / runs, write_ms / runs);
    }
    std::fflush(stdout);
  }
  if (!json) {
    std::printf("\npaper: X-FTL restarts far faster because recovery only "
                "loads the X-L2P table and reflects committed entries; WAL "
                "is slowest because it replays up to a full 1000-page log\n");
    std::printf("device(ms) is the FTL boot the paper's accounting leaves "
                "out; it senses at most meta + blocks + tail OOBs of the "
                "programmed pages and pays about scan(ms) + read(ms) + "
                "write(ms)\n");
  }
  return 0;
}
