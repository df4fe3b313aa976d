// End-to-end NAND failure acceptance: run the full SQL stack (X-FTL setup)
// on a device whose media degrades under injected program/erase status
// failures, and verify the graceful-degradation contract:
//
//   * the failure surfaces to the SQL caller as ResourceExhausted (a clean
//     error, never a CHECK crash or a raw flash error);
//   * the device ends up read-only, and says so;
//   * aborting the failed transaction works (X-FTL aborts write nothing);
//   * every previously committed transaction remains readable, and the
//     surviving database is exactly the last committed state.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "flash/flash_device.h"
#include "ftl/ecc.h"
#include "sql/btree_check.h"
#include "sql/database.h"
#include "storage/sim_ssd.h"

namespace xftl::sql {
namespace {

storage::SsdSpec SmallSpec() {
  storage::SsdSpec spec = storage::OpenSsdSpec(64, 0.6);
  spec.flash.page_size = 1024;
  spec.flash.pages_per_block = 16;
  spec.flash.num_blocks = 256;
  spec.ftl.meta_blocks = 6;
  spec.ftl.min_free_blocks = 4;
  spec.ftl.num_logical_pages = 2600;
  spec.xftl.xl2p_capacity = 180;
  return spec;
}

class ReliabilityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReliabilityTest, SparesExhaustionDegradesToReadOnlySql) {
  const uint64_t fail_every = GetParam();
  SimClock clock;
  storage::SimSsd ssd(SmallSpec(), &clock);
  fs::FsOptions fs_opt;
  fs_opt.journal_mode = fs::JournalMode::kOff;
  ASSERT_TRUE(fs::ExtFs::Mkfs(ssd.device(), fs_opt).ok());
  auto fs = std::move(fs::ExtFs::Mount(ssd.device(), fs_opt, &clock)).value();
  DbOptions db_opt;
  db_opt.journal_mode = SqlJournalMode::kOff;  // X-FTL provides atomicity
  auto db = std::move(Database::Open(fs.get(), "rel.db", db_opt)).value();

  // Seed 50 rows on clean media.
  ASSERT_TRUE(db->Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)").ok());
  std::map<int64_t, int64_t> committed;
  ASSERT_TRUE(db->Begin().ok());
  for (int64_t id = 1; id <= 50; ++id) {
    ASSERT_TRUE(
        db->Exec("INSERT INTO t VALUES (" + std::to_string(id) + ", 0)").ok());
    committed[id] = 0;
  }
  ASSERT_TRUE(db->Commit().ok());

  // From here on every `fail_every`-th program reports a status failure;
  // retirement grinds through the spare pool until the FTL turns read-only.
  ssd.flash()->ScriptProgramFailEvery(fail_every);
  Rng rng(21);
  Status failure = Status::OK();
  for (int64_t txn = 1; txn <= 2000 && failure.ok(); ++txn) {
    std::map<int64_t, int64_t> staged;
    Status s = db->Begin();
    for (int u = 0; u < 3 && s.ok(); ++u) {
      int64_t id = 1 + int64_t(rng.Uniform(50));
      s = db->Exec("UPDATE t SET v = " + std::to_string(txn) +
                   " WHERE id = " + std::to_string(id))
              .status();
      if (s.ok()) staged[id] = txn;
    }
    if (s.ok()) s = db->Commit();
    if (s.ok()) {
      for (const auto& [id, v] : staged) committed[id] = v;
    } else {
      // The abort path must always work: X-FTL aborts write nothing.
      EXPECT_TRUE(db->Rollback().ok());
      failure = s;
    }
  }

  // The device must have degraded before the workload ran out, cleanly.
  ASSERT_FALSE(failure.ok()) << "device never degraded";
  EXPECT_EQ(failure.code(), StatusCode::kResourceExhausted)
      << failure.ToString();
  EXPECT_TRUE(ssd.ftl()->read_only());
  EXPECT_GT(ssd.flash()->stats().program_fails, 0u);

  // Everything committed before the failure is still there — exactly.
  auto rows = db->Exec("SELECT id, v FROM t ORDER BY id");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), committed.size());
  for (const Row& row : rows->rows) {
    int64_t id = row[0].AsInt();
    ASSERT_TRUE(committed.count(id));
    EXPECT_EQ(row[1].AsInt(), committed[id]) << "id " << id;
  }
  auto tree_report = CheckAllTrees(db->pager());
  ASSERT_TRUE(tree_report.ok()) << tree_report.status().ToString();

  // Further writes keep failing with the same clean error.
  EXPECT_EQ(db->Exec("UPDATE t SET v = -1 WHERE id = 1").status().code(),
            StatusCode::kResourceExhausted);
}

INSTANTIATE_TEST_SUITE_P(FailPeriods, ReliabilityTest,
                         ::testing::Values(2ull, 5ull, 11ull),
                         [](const auto& info) {
                           return "every" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Volatile write-buffer crash model (flash layer).
// ---------------------------------------------------------------------------

flash::FlashConfig TinyFlash() {
  flash::FlashConfig cfg;
  cfg.page_size = 512;
  cfg.pages_per_block = 8;
  cfg.num_blocks = 16;
  cfg.num_banks = 2;
  cfg.sector_size = 128;
  cfg.write_buffer_pages = 8;
  return cfg;
}

TEST(WriteBufferCrashTest, TornProgramSurfacesAsUncorrectableEccRead) {
  SimClock clock;
  flash::FlashDevice dev(TinyFlash(), &clock);
  std::vector<uint8_t> data(dev.config().page_size, 0x5a);
  flash::PageOob oob;
  oob.lpn = 7;
  oob.seq = 1;

  // Tear the very next program; persist_prob = 1 keeps every buffered
  // program, so the crash cannot sample the issuing page away.
  flash::CrashPlan plan;
  plan.crash_after_programs = 1;
  plan.seed = 1234;
  plan.persist_prob = 1.0;
  dev.ArmCrashPlan(plan);
  EXPECT_EQ(dev.ProgramPage(0, data.data(), oob).code(),
            StatusCode::kIoError);
  ASSERT_EQ(dev.PageStateOf(0), flash::FlashDevice::PageState::kTorn);
  dev.ClearFailure();

  // Raw reads keep the explicit corruption status for tests and tools…
  std::vector<uint8_t> out(dev.config().page_size);
  EXPECT_EQ(dev.ReadPage(0, out.data()).code(), StatusCode::kCorruption);

  // …but through the ECC path the torn page looks like a page with more raw
  // bit errors than any code corrects, at every retry level: the engine
  // retries, gives up, and reports a plain uncorrectable read — no magic
  // "torn" status a real controller would not have.
  ftl::FtlStats stats;
  ftl::EccEngine ecc(&clock, &stats);
  Status r = ecc.Read(&dev, 0, out.data());
  EXPECT_EQ(r.code(), StatusCode::kCorruption);
  EXPECT_GT(stats.ecc_read_retries, 0u);
  EXPECT_EQ(dev.stats().ecc_uncorrectable, 1u);
}

TEST(WriteBufferCrashTest, BufferedWritesMayPersistOutOfIssueOrder) {
  // Two buffered programs to blocks on different banks: some seeded crash
  // must drop the first-issued program while the later one persists. Within
  // a block, dropping must stay prefix-consistent (NAND programs a block's
  // pages in order).
  flash::FlashConfig cfg = TinyFlash();
  cfg.timings.program_page = Micros(100000);  // nothing drains on its own
  const uint32_t ppb = cfg.pages_per_block;
  bool reordered = false;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    SimClock clock;
    flash::FlashDevice dev(cfg, &clock);
    std::vector<uint8_t> data(cfg.page_size, 0x11);
    flash::PageOob oob;
    // A: block 0 (bank 0), then B: block 1 (bank 1), both still buffered.
    ASSERT_TRUE(dev.ProgramPage(0, data.data(), oob).ok());
    ASSERT_TRUE(dev.ProgramPage(ppb, data.data(), oob).ok());
    ASSERT_EQ(dev.BufferedPrograms(), 2u);
    flash::CrashPlan plan;
    plan.crash_after_programs = 1;
    plan.seed = seed;
    plan.persist_prob = 0.5;
    dev.ArmCrashPlan(plan);
    EXPECT_EQ(dev.ProgramPage(2 * ppb, data.data(), oob).code(),
              StatusCode::kIoError);
    bool a_lost = dev.PageStateOf(0) == flash::FlashDevice::PageState::kErased;
    bool b_kept =
        dev.PageStateOf(ppb) == flash::FlashDevice::PageState::kProgrammed;
    if (a_lost && b_kept) reordered = true;
  }
  EXPECT_TRUE(reordered) << "no seed persisted a later write without an "
                            "earlier one on another bank";

  // Same-block prefix consistency: page k+1 never survives without page k.
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    SimClock clock;
    flash::FlashDevice dev(cfg, &clock);
    std::vector<uint8_t> data(cfg.page_size, 0x22);
    flash::PageOob oob;
    ASSERT_TRUE(dev.ProgramPage(0, data.data(), oob).ok());
    ASSERT_TRUE(dev.ProgramPage(1, data.data(), oob).ok());
    flash::CrashPlan plan;
    plan.crash_after_programs = 1;
    plan.seed = seed;
    plan.persist_prob = 0.5;
    dev.ArmCrashPlan(plan);
    EXPECT_EQ(dev.ProgramPage(ppb, data.data(), oob).code(),
              StatusCode::kIoError);
    bool p0_lost =
        dev.PageStateOf(0) == flash::FlashDevice::PageState::kErased;
    bool p1_kept =
        dev.PageStateOf(1) != flash::FlashDevice::PageState::kErased;
    EXPECT_FALSE(p0_lost && p1_kept) << "seed " << seed;
  }
}

TEST(WriteBufferCrashTest, FlushBarrierMakesBufferedProgramsDurable) {
  flash::FlashConfig cfg = TinyFlash();
  cfg.timings.program_page = Micros(100000);
  SimClock clock;
  flash::FlashDevice dev(cfg, &clock);
  std::vector<uint8_t> data(cfg.page_size, 0x33);
  flash::PageOob oob;
  ASSERT_TRUE(dev.ProgramPage(0, data.data(), oob).ok());
  dev.SyncAll();  // flush barrier: page 0 is durable from here on
  EXPECT_EQ(dev.stats().buffer_flushes, 1u);
  EXPECT_EQ(dev.stats().programs_flushed, 1u);
  ASSERT_TRUE(dev.ProgramPage(1, data.data(), oob).ok());

  // Pull the plug with the harshest plan: everything buffered drops.
  flash::CrashPlan plan;
  plan.crash_after_programs = 1;
  plan.seed = 9;
  plan.persist_prob = 0.0;
  dev.ArmCrashPlan(plan);
  EXPECT_EQ(dev.ProgramPage(2, data.data(), oob).code(), StatusCode::kIoError);
  EXPECT_EQ(dev.PageStateOf(0), flash::FlashDevice::PageState::kProgrammed);
  EXPECT_EQ(dev.PageStateOf(1), flash::FlashDevice::PageState::kErased);
  EXPECT_EQ(dev.PageStateOf(2), flash::FlashDevice::PageState::kErased);
  EXPECT_GT(dev.stats().programs_dropped, 0u);
}

TEST(WriteBufferCrashTest, PowerCutDropsEverythingStillBuffered) {
  flash::FlashConfig cfg = TinyFlash();
  cfg.timings.program_page = Micros(100000);
  SimClock clock;
  flash::FlashDevice dev(cfg, &clock);
  std::vector<uint8_t> data(cfg.page_size, 0x44);
  flash::PageOob oob;
  ASSERT_TRUE(dev.ProgramPage(0, data.data(), oob).ok());
  ASSERT_TRUE(dev.ProgramPage(1, data.data(), oob).ok());
  dev.PowerCut();
  EXPECT_TRUE(dev.HasFailed());
  EXPECT_EQ(dev.PageStateOf(0), flash::FlashDevice::PageState::kErased);
  EXPECT_EQ(dev.PageStateOf(1), flash::FlashDevice::PageState::kErased);
  EXPECT_EQ(dev.stats().programs_dropped, 2u);
  // Reboot: the device works again, the dropped pages are simply gone.
  dev.ClearFailure();
  ASSERT_TRUE(dev.ProgramPage(0, data.data(), oob).ok());
}

}  // namespace
}  // namespace xftl::sql
