// Micro-benchmarks (google-benchmark) for the individual layers: raw flash
// operations, FTL write paths with GC, X-FTL transactional commands, B-tree
// operations and SQL statement execution. These measure *simulator* CPU
// cost (real time) and report simulated device time as a counter where
// relevant.
#include <benchmark/benchmark.h>

#include <memory>

#include "common/sim_clock.h"
#include "flash/flash_device.h"
#include "fs/ext_fs.h"
#include "sql/database.h"
#include "storage/sim_ssd.h"
#include "xftl/xftl.h"

using namespace xftl;

namespace {

flash::FlashConfig MicroFlash() {
  flash::FlashConfig cfg;
  cfg.page_size = 8192;
  cfg.pages_per_block = 128;
  cfg.num_blocks = 64;
  return cfg;
}

void BM_FlashProgramPage(benchmark::State& state) {
  SimClock clock;
  flash::FlashDevice dev(MicroFlash(), &clock);
  std::vector<uint8_t> page(8192, 0x5A);
  uint64_t ppn = 0;
  for (auto _ : state) {
    if (ppn >= dev.config().TotalPages()) {
      state.PauseTiming();
      for (uint32_t b = 0; b < dev.config().num_blocks; ++b) {
        CHECK(dev.EraseBlock(b).ok());
      }
      ppn = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(dev.ProgramPage(uint32_t(ppn++), page.data(), {}));
  }
  state.counters["sim_us_per_op"] =
      benchmark::Counter(double(clock.Now()) / 1000.0 / double(state.iterations()));
}
BENCHMARK(BM_FlashProgramPage);

void BM_FlashReadPage(benchmark::State& state) {
  SimClock clock;
  flash::FlashDevice dev(MicroFlash(), &clock);
  std::vector<uint8_t> page(8192, 0x5A);
  CHECK(dev.ProgramPage(0, page.data(), {}).ok());
  std::vector<uint8_t> out(8192);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dev.ReadPage(0, out.data()));
  }
}
BENCHMARK(BM_FlashReadPage);

void BM_FtlWriteWithGc(benchmark::State& state) {
  SimClock clock;
  flash::FlashDevice dev(MicroFlash(), &clock);
  ftl::FtlConfig cfg;
  cfg.num_logical_pages = 4096;  // ~57% utilization: steady GC
  ftl::PageFtl f(&dev, cfg);
  std::vector<uint8_t> page(8192, 0x5A);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.Write(rng.Uniform(4096), page.data()));
  }
  state.counters["gc_runs"] = double(f.stats().gc_runs);
}
BENCHMARK(BM_FtlWriteWithGc);

void BM_XftlTransaction(benchmark::State& state) {
  // One full transaction: 5 TxWrites + commit.
  SimClock clock;
  flash::FlashDevice dev(MicroFlash(), &clock);
  ftl::FtlConfig cfg;
  cfg.num_logical_pages = 4096;
  ftl::XFtl f(&dev, cfg, ftl::XftlConfig{});
  std::vector<uint8_t> page(8192, 0x5A);
  Rng rng(1);
  ftl::TxId tid = 1;
  for (auto _ : state) {
    for (int i = 0; i < 5; ++i) {
      CHECK(f.TxWrite(tid, rng.Uniform(4096), page.data()).ok());
    }
    CHECK(f.TxCommit(tid).ok());
    tid++;
  }
  state.counters["sim_us_per_txn"] =
      benchmark::Counter(double(clock.Now()) / 1000.0 / double(state.iterations()));
}
BENCHMARK(BM_XftlTransaction);

struct SqlEnv {
  SimClock clock;
  std::unique_ptr<storage::SimSsd> ssd;
  std::unique_ptr<fs::ExtFs> fs;
  std::unique_ptr<sql::Database> db;

  explicit SqlEnv(sql::SqlJournalMode mode) {
    storage::SsdSpec spec = storage::OpenSsdSpec(128);
    ssd = std::make_unique<storage::SimSsd>(spec, &clock);
    fs::FsOptions fs_opt;
    fs_opt.journal_mode = mode == sql::SqlJournalMode::kOff
                              ? fs::JournalMode::kOff
                              : fs::JournalMode::kOrdered;
    CHECK(fs::ExtFs::Mkfs(ssd->device(), fs_opt).ok());
    fs = std::move(fs::ExtFs::Mount(ssd->device(), fs_opt, &clock)).value();
    sql::DbOptions opt;
    opt.journal_mode = mode;
    db = std::move(sql::Database::Open(fs.get(), "bench.db", opt)).value();
    CHECK(db->Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)").ok());
  }
};

void BM_SqlInsertTxn(benchmark::State& state) {
  auto mode = sql::SqlJournalMode(state.range(0));
  SqlEnv env(mode);
  int64_t id = 0;
  for (auto _ : state) {
    ++id;
    CHECK(env.db
              ->Exec("INSERT INTO t VALUES (" + std::to_string(id) +
                     ", 'payload-" + std::to_string(id) + "')")
              .ok());
  }
  state.SetLabel(sql::SqlJournalModeName(mode));
  state.counters["sim_us_per_txn"] = benchmark::Counter(
      double(env.clock.Now()) / 1000.0 / double(state.iterations()));
}
BENCHMARK(BM_SqlInsertTxn)
    ->Arg(int(sql::SqlJournalMode::kDelete))
    ->Arg(int(sql::SqlJournalMode::kWal))
    ->Arg(int(sql::SqlJournalMode::kOff));

void BM_SqlPointSelect(benchmark::State& state) {
  SqlEnv env(sql::SqlJournalMode::kOff);
  for (int i = 1; i <= 1000; ++i) {
    CHECK(env.db
              ->Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", 'v')")
              .ok());
  }
  Rng rng(2);
  for (auto _ : state) {
    auto r = env.db->Exec("SELECT v FROM t WHERE id = " +
                          std::to_string(1 + rng.Uniform(1000)));
    CHECK(r.ok());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SqlPointSelect);

}  // namespace

BENCHMARK_MAIN();
