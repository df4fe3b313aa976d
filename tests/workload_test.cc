// Tests for the workload layer: harness assembly/aging/crash plumbing,
// synthetic partsupp workload, Android trace generation+replay, TPC-C
// correctness, and the FIO driver.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "workload/android.h"
#include "workload/fio.h"
#include "workload/harness.h"
#include "workload/synthetic.h"
#include "workload/tpcc.h"

namespace xftl::workload {
namespace {

HarnessConfig SmallConfig(Setup setup) {
  HarnessConfig cfg;
  cfg.setup = setup;
  cfg.device_blocks = 96;  // 96 MiB device keeps tests quick
  cfg.fs_cache_pages = 128;
  cfg.db_cache_pages = 64;
  return cfg;
}

class HarnessTest : public ::testing::TestWithParam<Setup> {};

TEST_P(HarnessTest, SetupOpensWorkingDatabase) {
  Harness h(SmallConfig(GetParam()));
  ASSERT_TRUE(h.Setup().ok());
  auto db = h.OpenDatabase("x.db");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(
      (*db)->Exec("CREATE TABLE t (a INT); INSERT INTO t VALUES (1)").ok());
  auto r = (*db)->Exec("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

TEST_P(HarnessTest, SnapshotCountsActivity) {
  Harness h(SmallConfig(GetParam()));
  ASSERT_TRUE(h.Setup().ok());
  auto db = h.OpenDatabase("x.db").value();
  ASSERT_TRUE(db->Exec("CREATE TABLE t (a INT)").ok());
  h.StartMeasurement();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db->Exec("INSERT INTO t VALUES (" + std::to_string(i) + ")")
                    .ok());
  }
  IoSnapshot s = h.Snapshot();
  EXPECT_GT(s.fsync_calls, 0u);
  EXPECT_GT(s.ftl.TotalPageWrites(), 0u);
  EXPECT_GT(s.elapsed, 0u);
}

TEST_P(HarnessTest, CrashAndRecoverKeepsCommittedData) {
  Harness h(SmallConfig(GetParam()));
  ASSERT_TRUE(h.Setup().ok());
  {
    auto db = h.OpenDatabase("x.db").value();
    ASSERT_TRUE(
        db->Exec("CREATE TABLE t (a INT); INSERT INTO t VALUES (42)").ok());
  }
  ASSERT_TRUE(h.fs()->SyncAll().ok());
  ASSERT_TRUE(h.CrashAndRecover().ok());
  auto db = h.OpenDatabase("x.db").value();
  auto r = db->Exec("SELECT a FROM t");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 42);
}

INSTANTIATE_TEST_SUITE_P(AllSetups, HarnessTest,
                         ::testing::Values(Setup::kRbj, Setup::kWal,
                                           Setup::kXftl),
                         [](const auto& info) {
                           return std::string(SetupName(info.param)) ==
                                          "X-FTL"
                                      ? std::string("XFTL")
                                      : std::string(SetupName(info.param));
                         });

// Over a striped array the snapshot is array-wide: each per-layer delta is
// the sum of the members' own deltas over the interval.
template <typename S>
void ExpectSameCounters(const S& got, const S& want) {
  for (size_t i = 0; i < S::kCounters.size(); ++i) {
    EXPECT_EQ(got.*S::kCounters[i], want.*S::kCounters[i]) << "field " << i;
  }
}

class HarnessArrayTest : public ::testing::TestWithParam<Setup> {};

TEST_P(HarnessArrayTest, SnapshotSumsMemberDeltas) {
  HarnessConfig cfg = SmallConfig(GetParam());
  cfg.num_devices = 2;
  cfg.stripe_pages = 4;
  Harness h(cfg);
  ASSERT_TRUE(h.Setup().ok());
  auto db = h.OpenDatabase("x.db").value();
  ASSERT_TRUE(db->Exec("CREATE TABLE t (a INT, b TEXT)").ok());
  std::vector<ftl::FtlStats> ftl0;
  std::vector<storage::SataStats> sata0;
  std::vector<flash::FlashStats> flash0;
  for (uint32_t i = 0; i < h.num_devices(); ++i) {
    ftl0.push_back(h.ssd(i)->ftl()->stats());
    sata0.push_back(h.ssd(i)->device()->stats());
    flash0.push_back(h.ssd(i)->flash()->stats());
  }
  h.StartMeasurement();
  // Rows wide enough that the table spans several stripes.
  const std::string pad(300, 'x');
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db->Exec("INSERT INTO t VALUES (" + std::to_string(i) +
                         ", '" + pad + "')")
                    .ok());
  }
  IoSnapshot s = h.Snapshot();
  ftl::FtlStats ftl;
  storage::SataStats sata;
  flash::FlashStats flash;
  for (uint32_t i = 0; i < h.num_devices(); ++i) {
    const ftl::FtlStats d = CounterDelta(h.ssd(i)->ftl()->stats(), ftl0[i]);
    EXPECT_GT(d.host_page_writes, 0u) << "member " << i;
    AddCounters(&ftl, d);
    AddCounters(&sata, CounterDelta(h.ssd(i)->device()->stats(), sata0[i]));
    AddCounters(&flash, CounterDelta(h.ssd(i)->flash()->stats(), flash0[i]));
  }
  ExpectSameCounters(s.ftl, ftl);
  ExpectSameCounters(s.sata, sata);
  ExpectSameCounters(s.flash, flash);
}

INSTANTIATE_TEST_SUITE_P(XftlAndWal, HarnessArrayTest,
                         ::testing::Values(Setup::kXftl, Setup::kWal),
                         [](const auto& info) {
                           return info.param == Setup::kXftl
                                      ? std::string("XFTL")
                                      : std::string(SetupName(info.param));
                         });

TEST(HarnessAgingTest, AgesToTargetValidity) {
  HarnessConfig cfg = SmallConfig(Setup::kXftl);
  cfg.gc_valid_target = 0.5;
  Harness h(cfg);
  ASSERT_TRUE(h.Setup().ok());
  EXPECT_NEAR(h.aged_validity(), 0.5, 0.15);
  // The stack still works on the aged device.
  auto db = h.OpenDatabase("aged.db").value();
  ASSERT_TRUE(db->Exec("CREATE TABLE t (a INT); INSERT INTO t VALUES (1)")
                  .ok());
}

// --- synthetic ---------------------------------------------------------------

TEST(SyntheticTest, LoadAndUpdateRoundTrip) {
  Harness h(SmallConfig(Setup::kXftl));
  ASSERT_TRUE(h.Setup().ok());
  auto db = h.OpenDatabase("syn.db").value();
  SyntheticConfig cfg;
  cfg.num_tuples = 500;
  cfg.transactions = 20;
  cfg.updates_per_transaction = 5;
  ASSERT_TRUE(LoadPartsupp(db, cfg).ok());
  auto count = db->Exec("SELECT COUNT(*) FROM partsupp");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 500);
  ASSERT_TRUE(RunSyntheticUpdates(db, cfg).ok());
  // Still 500 tuples, still readable.
  count = db->Exec("SELECT COUNT(*) FROM partsupp");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 500);
}

TEST(SyntheticTest, XftlFasterThanRbjAndWal) {
  // The headline of Figure 5 at miniature scale.
  auto run = [](::xftl::workload::Setup setup) {
    Harness h(SmallConfig(setup));
    CHECK(h.Setup().ok());
    auto db = h.OpenDatabase("syn.db").value();
    SyntheticConfig cfg;
    cfg.num_tuples = 400;
    cfg.transactions = 50;
    cfg.updates_per_transaction = 5;
    CHECK(LoadPartsupp(db, cfg).ok());
    h.StartMeasurement();
    CHECK(RunSyntheticUpdates(db, cfg).ok());
    return h.Snapshot().elapsed;
  };
  SimNanos rbj = run(Setup::kRbj);
  SimNanos wal = run(Setup::kWal);
  SimNanos xftl = run(Setup::kXftl);
  EXPECT_LT(xftl, wal);
  EXPECT_LT(wal, rbj);
}

// --- android -------------------------------------------------------------------

class AndroidTraceTest : public ::testing::TestWithParam<AndroidApp> {};

TEST_P(AndroidTraceTest, StatsMatchTable2Shape) {
  AppTrace trace = GenerateTrace(GetParam(), /*scale=*/0.02);
  auto stats = AnalyzeTrace(trace);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->num_queries, 0u);
  EXPECT_GT(stats->inserts, 0u);
  // Per-app shape assertions from Table 2.
  switch (GetParam()) {
    case AndroidApp::kRlBenchmark:
      EXPECT_EQ(stats->num_db_files, 1);
      EXPECT_GT(stats->inserts, stats->updates);  // insert-dominated
      EXPECT_EQ(stats->joins, 0u);
      break;
    case AndroidApp::kGmail:
      EXPECT_EQ(stats->num_db_files, 2);
      EXPECT_GT(stats->joins, 0u);
      EXPECT_GT(stats->inserts, stats->updates);
      break;
    case AndroidApp::kFacebook:
      EXPECT_EQ(stats->num_db_files, 11);
      break;
    case AndroidApp::kBrowser:
      EXPECT_EQ(stats->num_db_files, 6);
      EXPECT_GT(stats->joins, stats->selects / 2);  // join-heavy browsing
      break;
  }
  // Write-heavy traces: the paper reports read:write of roughly 3:7 / 4:6.
  uint64_t writes = stats->inserts + stats->updates + stats->deletes;
  EXPECT_GT(writes, stats->selects);
}

TEST_P(AndroidTraceTest, FullScaleCountsMatchTable2) {
  AppTrace trace = GenerateTrace(GetParam(), /*scale=*/1.0);
  auto stats = AnalyzeTrace(trace);
  ASSERT_TRUE(stats.ok());
  struct Expect {
    uint64_t selects, inserts, updates, deletes;
  };
  Expect want{};
  switch (GetParam()) {
    case AndroidApp::kRlBenchmark:
      want = {5200, 51002, 26000, 2};
      break;
    case AndroidApp::kGmail:
      want = {3540, 7288, 889, 2357};
      break;
    case AndroidApp::kFacebook:
      want = {1687, 2403, 430, 117};
      break;
    case AndroidApp::kBrowser:
      want = {1954, 1261, 1813, 1373};
      break;
  }
  EXPECT_EQ(stats->selects, want.selects);
  EXPECT_EQ(stats->inserts, want.inserts);
  EXPECT_EQ(stats->updates, want.updates);
  EXPECT_EQ(stats->deletes, want.deletes);
}

TEST_P(AndroidTraceTest, ReplaySucceedsOnXftl) {
  Harness h(SmallConfig(Setup::kXftl));
  ASSERT_TRUE(h.Setup().ok());
  AppTrace trace = GenerateTrace(GetParam(), /*scale=*/0.01);
  auto stats = ReplayTrace(&h, trace);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->avg_updated_pages_per_txn, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Apps, AndroidTraceTest,
                         ::testing::Values(AndroidApp::kRlBenchmark,
                                           AndroidApp::kGmail,
                                           AndroidApp::kFacebook,
                                           AndroidApp::kBrowser),
                         [](const auto& info) {
                           std::string name = AndroidAppName(info.param);
                           name.erase(std::remove(name.begin(), name.end(), ' '),
                                      name.end());
                           return name;
                         });

// --- tpcc ---------------------------------------------------------------------

class TpccTest : public ::testing::Test {
 protected:
  TpccTest() : harness_(SmallConfig(Setup::kXftl)) {
    CHECK(harness_.Setup().ok());
    db_ = harness_.OpenDatabase("tpcc.db").value();
    scale_.warehouses = 1;
    scale_.districts_per_warehouse = 2;
    scale_.customers_per_district = 10;
    scale_.items = 50;
    scale_.initial_orders_per_district = 10;
    tpcc_ = std::make_unique<Tpcc>(db_, harness_.clock(), scale_);
    CHECK(tpcc_->Load().ok());
  }

  int64_t ScalarInt(const std::string& sql) {
    auto r = db_->Exec(sql);
    CHECK(r.ok()) << sql << ": " << r.status().ToString();
    CHECK(!r->rows.empty());
    return r->rows[0][0].AsInt();
  }

  Harness harness_;
  sql::Database* db_ = nullptr;
  TpccScale scale_;
  std::unique_ptr<Tpcc> tpcc_;
};

TEST_F(TpccTest, LoadPopulatesAllTables) {
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM warehouse"), 1);
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM district"), 2);
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM customer"), 20);
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM item"), 50);
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM stock"), 50);
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM orders"), 20);
  EXPECT_GT(ScalarInt("SELECT COUNT(*) FROM new_order"), 0);
  EXPECT_GT(ScalarInt("SELECT COUNT(*) FROM order_line"), 50);
}

TEST_F(TpccTest, NewOrderAdvancesDistrictAndInsertsRows) {
  int64_t orders_before = ScalarInt("SELECT COUNT(*) FROM orders");
  int64_t next_before = ScalarInt(
      "SELECT SUM(d_next_o_id) FROM district");
  ASSERT_TRUE(tpcc_->NewOrder().ok());
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM orders"), orders_before + 1);
  EXPECT_EQ(ScalarInt("SELECT SUM(d_next_o_id) FROM district"),
            next_before + 1);
}

TEST_F(TpccTest, PaymentUpdatesBalancesAndHistory) {
  int64_t hist_before = ScalarInt("SELECT COUNT(*) FROM history");
  ASSERT_TRUE(tpcc_->Payment().ok());
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM history"), hist_before + 1);
  auto ytd = db_->Exec("SELECT SUM(w_ytd) FROM warehouse");
  ASSERT_TRUE(ytd.ok());
  EXPECT_GT(ytd->rows[0][0].AsReal(), 0.0);
}

TEST_F(TpccTest, DeliveryConsumesNewOrders) {
  int64_t before = ScalarInt("SELECT COUNT(*) FROM new_order");
  ASSERT_GT(before, 0);
  ASSERT_TRUE(tpcc_->Delivery().ok());
  EXPECT_LT(ScalarInt("SELECT COUNT(*) FROM new_order"), before);
}

TEST_F(TpccTest, OrderStatusAndStockLevelAreReadOnly) {
  int64_t orders = ScalarInt("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(tpcc_->OrderStatus().ok());
  ASSERT_TRUE(tpcc_->StockLevel().ok());
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM orders"), orders);
}

TEST_F(TpccTest, MixedRunCompletes) {
  auto result = tpcc_->Run(WriteIntensiveMix(), 25);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->transactions, 25u);
  EXPECT_GT(result->tpm(), 0.0);
}

TEST_F(TpccTest, MixMustSumTo100) {
  TpccMix bad{10, 10, 10, 10, 10};
  EXPECT_FALSE(tpcc_->Run(bad, 1).ok());
}

// --- fio -----------------------------------------------------------------------

TEST(FioTest, RunsAndReportsIops) {
  Harness h(SmallConfig(Setup::kXftl));
  ASSERT_TRUE(h.Setup().ok());
  FioConfig cfg;
  cfg.threads = 2;
  cfg.file_pages = 64;
  cfg.writes_per_fsync = 5;
  cfg.total_writes = 200;
  auto r = RunFio(h.fs(), cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->writes, 200u);
  EXPECT_GT(r->Iops(), 0.0);
}

TEST(FioTest, LessFrequentFsyncGivesHigherIops) {
  auto run = [](uint32_t per_fsync) {
    Harness h(SmallConfig(Setup::kRbj));  // ordered journaling
    CHECK(h.Setup().ok());
    FioConfig cfg;
    cfg.threads = 1;
    cfg.file_pages = 64;
    cfg.writes_per_fsync = per_fsync;
    cfg.total_writes = 300;
    auto r = RunFio(h.fs(), cfg);
    CHECK(r.ok());
    return r->Iops();
  };
  EXPECT_GT(run(20), run(1));
}

TEST(FioTest, XftlBeatsOrderedJournaling) {
  auto run = [](::xftl::workload::Setup setup) {
    Harness h(SmallConfig(setup));
    CHECK(h.Setup().ok());
    FioConfig cfg;
    cfg.threads = 1;
    cfg.file_pages = 64;
    cfg.writes_per_fsync = 5;
    cfg.total_writes = 300;
    auto r = RunFio(h.fs(), cfg);
    CHECK(r.ok());
    return r->Iops();
  };
  EXPECT_GT(run(Setup::kXftl), run(Setup::kRbj));
}

}  // namespace
}  // namespace xftl::workload
