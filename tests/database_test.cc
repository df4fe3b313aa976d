// End-to-end MiniSQLite tests: SQL execution (DDL, DML, queries, joins,
// aggregates, indexes), transactions under all three journal modes, and
// whole-stack crash recovery down to the flash.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/counters.h"
#include "common/sim_clock.h"
#include "sql/database.h"
#include "storage/sim_ssd.h"

namespace xftl::sql {
namespace {

storage::SsdSpec TestSpec() {
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

class DatabaseTest : public ::testing::TestWithParam<SqlJournalMode> {
 protected:
  DatabaseTest() : ssd_(TestSpec(), &clock_) {
    fs::FsOptions fs_opt = FsOpt();
    CHECK(fs::ExtFs::Mkfs(ssd_.device(), fs_opt).ok());
    MountAndOpen();
  }

  fs::FsOptions FsOpt() {
    fs::FsOptions fs_opt;
    fs_opt.journal_mode = GetParam() == SqlJournalMode::kOff
                              ? fs::JournalMode::kOff
                              : fs::JournalMode::kOrdered;
    fs_opt.inode_count = 64;
    fs_opt.journal_pages = 64;
    return fs_opt;
  }

  void MountAndOpen() {
    auto fs = fs::ExtFs::Mount(ssd_.device(), FsOpt(), &clock_);
    CHECK(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
    DbOptions opt;
    opt.journal_mode = GetParam();
    opt.cache_pages = 64;
    auto db = Database::Open(fs_.get(), "app.db", opt);
    CHECK(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  void Crash() {
    db_.reset();  // destructor rolls back any open transaction; we want a
                  // harder crash, so reopen below goes through recovery of
                  // whatever reached the device
    fs_.reset();
    CHECK(ssd_.PowerCycle().ok());
    MountAndOpen();
  }

  ResultSet Q(const std::string& sql) {
    auto r = db_->Exec(sql);
    CHECK(r.ok()) << sql << " -> " << r.status().ToString();
    return std::move(r).value();
  }

  int64_t ScalarInt(const std::string& sql) {
    ResultSet r = Q(sql);
    CHECK(!r.rows.empty()) << sql;
    return r.rows[0][0].AsInt();
  }

  SimClock clock_;
  storage::SimSsd ssd_;
  std::unique_ptr<fs::ExtFs> fs_;
  std::unique_ptr<Database> db_;
};

TEST_P(DatabaseTest, CreateInsertSelect) {
  Q("CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, age INT)");
  Q("INSERT INTO users VALUES (1, 'alice', 30), (2, 'bob', 25)");
  ResultSet r = Q("SELECT name, age FROM users WHERE id = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "bob");
  EXPECT_EQ(r.rows[0][1].AsInt(), 25);
}

TEST_P(DatabaseTest, AutoRowidAssigned) {
  Q("CREATE TABLE log (msg TEXT)");
  Q("INSERT INTO log VALUES ('a')");
  Q("INSERT INTO log VALUES ('b')");
  ResultSet r = Q("SELECT rowid, msg FROM log ORDER BY rowid");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[1][0].AsInt(), 2);
}

TEST_P(DatabaseTest, UpdateAndDelete) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)");
  Q("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  Q("UPDATE t SET v = v + 5 WHERE id >= 2");
  EXPECT_EQ(ScalarInt("SELECT v FROM t WHERE id = 1"), 10);
  EXPECT_EQ(ScalarInt("SELECT v FROM t WHERE id = 3"), 35);
  Q("DELETE FROM t WHERE v = 25");
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM t"), 2);
}

TEST_P(DatabaseTest, UniqueConstraintOnRowidAlias) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)");
  Q("INSERT INTO t VALUES (7, 1)");
  auto r = db_->Exec("INSERT INTO t VALUES (7, 2)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  // The failed auto-commit statement rolled back cleanly.
  EXPECT_EQ(ScalarInt("SELECT v FROM t WHERE id = 7"), 1);
}

TEST_P(DatabaseTest, ExplicitTransactionCommit) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)");
  Q("BEGIN");
  Q("INSERT INTO t VALUES (1, 100)");
  Q("INSERT INTO t VALUES (2, 200)");
  Q("COMMIT");
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM t"), 2);
}

TEST_P(DatabaseTest, ExplicitTransactionRollback) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)");
  Q("INSERT INTO t VALUES (1, 100)");
  Q("BEGIN");
  Q("UPDATE t SET v = 999 WHERE id = 1");
  Q("INSERT INTO t VALUES (2, 200)");
  EXPECT_EQ(ScalarInt("SELECT v FROM t WHERE id = 1"), 999);  // own writes
  Q("ROLLBACK");
  EXPECT_EQ(ScalarInt("SELECT v FROM t WHERE id = 1"), 100);
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM t"), 1);
}

TEST_P(DatabaseTest, SecondaryIndexUsedAndMaintained) {
  Q("CREATE TABLE items (id INTEGER PRIMARY KEY, cat TEXT, price INT)");
  Q("CREATE INDEX idx_cat ON items (cat)");
  for (int i = 1; i <= 50; ++i) {
    Q("INSERT INTO items VALUES (" + std::to_string(i) + ", 'cat" +
      std::to_string(i % 5) + "', " + std::to_string(i * 10) + ")");
  }
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM items WHERE cat = 'cat3'"), 10);
  Q("UPDATE items SET cat = 'cat9' WHERE id = 3");
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM items WHERE cat = 'cat3'"), 9);
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM items WHERE cat = 'cat9'"), 1);
  Q("DELETE FROM items WHERE cat = 'cat9'");
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM items WHERE cat = 'cat9'"), 0);
}

TEST_P(DatabaseTest, CompositeIndexPrefixLookup) {
  Q("CREATE TABLE stock (w INT, i INT, qty INT)");
  Q("CREATE INDEX idx_stock ON stock (w, i)");
  for (int w = 1; w <= 3; ++w) {
    for (int i = 1; i <= 20; ++i) {
      Q("INSERT INTO stock VALUES (" + std::to_string(w) + ", " +
        std::to_string(i) + ", " + std::to_string(w * 100 + i) + ")");
    }
  }
  EXPECT_EQ(ScalarInt("SELECT qty FROM stock WHERE w = 2 AND i = 7"), 207);
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM stock WHERE w = 2"), 20);
}

TEST_P(DatabaseTest, JoinWithIndexLookup) {
  Q("CREATE TABLE orders (oid INTEGER PRIMARY KEY, cust INT)");
  Q("CREATE TABLE customers (cid INTEGER PRIMARY KEY, name TEXT)");
  Q("INSERT INTO customers VALUES (1, 'ann'), (2, 'ben')");
  Q("INSERT INTO orders VALUES (10, 1), (11, 2), (12, 1)");
  ResultSet r = Q(
      "SELECT o.oid, c.name FROM orders o JOIN customers c ON o.cust = c.cid "
      "WHERE c.name = 'ann' ORDER BY o.oid");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 10);
  EXPECT_EQ(r.rows[1][0].AsInt(), 12);
}

TEST_P(DatabaseTest, Aggregates) {
  Q("CREATE TABLE n (v INT, g INT)");
  Q("INSERT INTO n VALUES (1, 1), (2, 1), (3, 2), (3, 2), (10, 3)");
  ResultSet r = Q(
      "SELECT COUNT(*), SUM(v), MIN(v), MAX(v), COUNT(DISTINCT v) FROM n");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
  EXPECT_EQ(r.rows[0][1].AsInt(), 19);
  EXPECT_EQ(r.rows[0][2].AsInt(), 1);
  EXPECT_EQ(r.rows[0][3].AsInt(), 10);
  EXPECT_EQ(r.rows[0][4].AsInt(), 4);
  EXPECT_DOUBLE_EQ(Q("SELECT AVG(v) FROM n").rows[0][0].AsReal(), 3.8);
}

TEST_P(DatabaseTest, OrderByAndLimit) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)");
  for (int i = 1; i <= 10; ++i) {
    Q("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
      std::to_string((i * 37) % 11) + ")");
  }
  ResultSet r = Q("SELECT id, v FROM t ORDER BY v DESC, id ASC LIMIT 3");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_GE(r.rows[0][1].AsInt(), r.rows[1][1].AsInt());
  EXPECT_GE(r.rows[1][1].AsInt(), r.rows[2][1].AsInt());
}

TEST_P(DatabaseTest, LikeAndExpressions) {
  Q("CREATE TABLE s (name TEXT)");
  Q("INSERT INTO s VALUES ('apple'), ('apricot'), ('banana')");
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM s WHERE name LIKE 'ap%'"), 2);
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM s WHERE name LIKE '%an%'"), 1);
  EXPECT_EQ(ScalarInt("SELECT 2 + 3 * 4"), 14);
  EXPECT_EQ(Q("SELECT 'a' || 'b'").rows[0][0].AsText(), "ab");
}

TEST_P(DatabaseTest, NullSemantics) {
  Q("CREATE TABLE t (v INT)");
  Q("INSERT INTO t VALUES (1), (NULL), (3)");
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM t"), 3);
  EXPECT_EQ(ScalarInt("SELECT COUNT(v) FROM t"), 2);  // NULLs not counted
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM t WHERE v = NULL"), 0);
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM t WHERE v IS NULL"), 1);
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM t WHERE v IS NOT NULL"), 2);
}

TEST_P(DatabaseTest, BlobStorage) {
  Q("CREATE TABLE imgs (id INTEGER PRIMARY KEY, data BLOB)");
  Q("INSERT INTO imgs VALUES (1, x'deadbeef')");
  ResultSet r = Q("SELECT data FROM imgs WHERE id = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(r.rows[0][0].type(), ValueType::kBlob);
  EXPECT_EQ(r.rows[0][0].blob(),
            (std::vector<uint8_t>{0xde, 0xad, 0xbe, 0xef}));
}

TEST_P(DatabaseTest, LargeRowsSpillToOverflow) {
  Q("CREATE TABLE big (id INTEGER PRIMARY KEY, body TEXT)");
  std::string body(4000, 'x');
  Q("INSERT INTO big VALUES (1, '" + body + "')");
  ResultSet r = Q("SELECT LENGTH(body) FROM big WHERE id = 1");
  EXPECT_EQ(r.rows[0][0].AsInt(), 4000);
}

TEST_P(DatabaseTest, DropTable) {
  Q("CREATE TABLE tmp (x INT)");
  Q("INSERT INTO tmp VALUES (1)");
  Q("DROP TABLE tmp");
  EXPECT_FALSE(db_->Exec("SELECT * FROM tmp").ok());
  // Name reusable.
  Q("CREATE TABLE tmp (y TEXT)");
  Q("INSERT INTO tmp VALUES ('hi')");
  EXPECT_EQ(Q("SELECT y FROM tmp").rows[0][0].AsText(), "hi");
}

TEST_P(DatabaseTest, SchemaSurvivesReopen) {
  Q("CREATE TABLE cfg (k TEXT, v TEXT)");
  Q("CREATE INDEX idx_k ON cfg (k)");
  Q("INSERT INTO cfg VALUES ('lang', 'c++')");
  db_.reset();
  DbOptions opt;
  opt.journal_mode = GetParam();
  auto db = Database::Open(fs_.get(), "app.db", opt);
  ASSERT_TRUE(db.ok());
  db_ = std::move(db).value();
  EXPECT_EQ(Q("SELECT v FROM cfg WHERE k = 'lang'").rows[0][0].AsText(),
            "c++");
}

TEST_P(DatabaseTest, CommittedTransactionsSurviveCrash) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)");
  for (int i = 1; i <= 20; ++i) {
    Q("INSERT INTO t VALUES (" + std::to_string(i) + ", 'row" +
      std::to_string(i) + "')");
  }
  // Make the final journal delete durable too (see PagerTest comment).
  ASSERT_TRUE(fs_->SyncAll().ok());
  Crash();
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM t"), 20);
  EXPECT_EQ(Q("SELECT v FROM t WHERE id = 7").rows[0][0].AsText(), "row7");
}

TEST_P(DatabaseTest, OpenTransactionRolledBackByCrash) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)");
  Q("INSERT INTO t VALUES (1, 100)");
  ASSERT_TRUE(fs_->SyncAll().ok());
  ASSERT_TRUE(db_->Begin().ok());
  Q("UPDATE t SET v = 999 WHERE id = 1");
  for (int i = 2; i <= 80; ++i) {  // enough to steal pages mid-transaction
    Q("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
      std::to_string(i) + ")");
  }
  Crash();  // no COMMIT
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM t"), 1);
  EXPECT_EQ(ScalarInt("SELECT v FROM t WHERE id = 1"), 100);
}

TEST_P(DatabaseTest, ManyTransactionsThenCrash) {
  Q("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INT)");
  for (int round = 0; round < 10; ++round) {
    Q("BEGIN");
    for (int i = 0; i < 5; ++i) {
      int key = round * 5 + i;
      Q("INSERT INTO kv VALUES (" + std::to_string(key) + ", " +
        std::to_string(key * 2) + ")");
    }
    Q("COMMIT");
  }
  ASSERT_TRUE(fs_->SyncAll().ok());
  Crash();
  EXPECT_EQ(ScalarInt("SELECT COUNT(*) FROM kv"), 50);
  EXPECT_EQ(ScalarInt("SELECT v FROM kv WHERE k = 33"), 66);
}

TEST_P(DatabaseTest, PragmaJournalMode) {
  ResultSet r = Q("PRAGMA journal_mode");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), SqlJournalModeName(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllModes, DatabaseTest,
                         ::testing::Values(SqlJournalMode::kDelete,
                                           SqlJournalMode::kWal,
                                           SqlJournalMode::kOff),
                         [](const auto& info) {
                           return std::string(SqlJournalModeName(info.param));
                         });

// Mode-specific I/O behaviour assertions backing the paper's claims.
class ModeIoTest : public ::testing::Test {
 protected:
  struct Env {
    SimClock clock;
    std::unique_ptr<storage::SimSsd> ssd;
    std::unique_ptr<fs::ExtFs> fs;
    std::unique_ptr<Database> db;
    // Counters as RunWorkload's inserts begin.
    PagerStats pager_base;
    ftl::FtlStats ftl_base;
    uint64_t fsync_base = 0;
  };

  static std::unique_ptr<Env> Make(SqlJournalMode mode) {
    auto env = std::make_unique<Env>();
    env->ssd = std::make_unique<storage::SimSsd>(TestSpec(), &env->clock);
    fs::FsOptions fs_opt;
    fs_opt.journal_mode = mode == SqlJournalMode::kOff
                              ? fs::JournalMode::kOff
                              : fs::JournalMode::kOrdered;
    CHECK(fs::ExtFs::Mkfs(env->ssd->device(), fs_opt).ok());
    env->fs =
        std::move(fs::ExtFs::Mount(env->ssd->device(), fs_opt, &env->clock))
            .value();
    DbOptions opt;
    opt.journal_mode = mode;
    env->db = std::move(Database::Open(env->fs.get(), "m.db", opt)).value();
    return env;
  }

  static void RunWorkload(Env* env) {
    CHECK(env->db->Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
              .ok());
    env->pager_base = env->db->pager()->stats();
    env->ftl_base = env->ssd->ftl()->stats();
    env->fsync_base = env->fs->stats().fsync_calls;
    for (int i = 1; i <= 30; ++i) {
      CHECK(env->db
                ->Exec("INSERT INTO t VALUES (" + std::to_string(i) +
                       ", 'value-" + std::to_string(i) + "')")
                .ok());
    }
  }
};

TEST_F(ModeIoTest, OffModeWritesFewerPagesThanJournalModes) {
  auto rbj = Make(SqlJournalMode::kDelete);
  auto wal = Make(SqlJournalMode::kWal);
  auto off = Make(SqlJournalMode::kOff);
  RunWorkload(rbj.get());
  RunWorkload(wal.get());
  RunWorkload(off.get());

  auto journal_writes = [](Env* e) {
    return e->db->pager()->stats().journal_page_writes -
           e->pager_base.journal_page_writes;
  };
  auto host_writes = [&](Env* e) {
    return e->db->pager()->stats().db_page_writes -
           e->pager_base.db_page_writes + journal_writes(e);
  };
  // Paper §4.3: X-FTL mode never writes a logical page more than once. At
  // the pager level WAL ties until a checkpoint doubles its writes, so the
  // strict comparison happens at the device level below.
  EXPECT_LE(host_writes(off.get()), host_writes(wal.get()));
  EXPECT_LT(host_writes(wal.get()), host_writes(rbj.get()));
  EXPECT_EQ(journal_writes(off.get()), 0u);

  // Device-level physical page programs (WAL frames straddle flash pages;
  // the journal modes also pay file-system journaling).
  auto device_writes = [](Env* e) {
    return CounterDelta(e->ssd->ftl()->stats(), e->ftl_base)
        .TotalPageWrites();
  };
  EXPECT_LT(device_writes(off.get()), device_writes(wal.get()));
  EXPECT_LT(device_writes(wal.get()), device_writes(rbj.get()));

  // fsync counts: rollback mode needs ~3 per txn, WAL 1, off-mode 1.
  auto fsyncs = [](Env* e) {
    return e->fs->stats().fsync_calls - e->fsync_base;
  };
  uint64_t rbj_fsyncs = fsyncs(rbj.get());
  uint64_t wal_fsyncs = fsyncs(wal.get());
  uint64_t off_fsyncs = fsyncs(off.get());
  EXPECT_GT(rbj_fsyncs, 2 * wal_fsyncs);
  EXPECT_LE(off_fsyncs, wal_fsyncs);
}

TEST_F(ModeIoTest, OffModeIsFastestEndToEnd) {
  auto rbj = Make(SqlJournalMode::kDelete);
  auto wal = Make(SqlJournalMode::kWal);
  auto off = Make(SqlJournalMode::kOff);
  auto timed = [](Env* e) {
    SimNanos start = e->clock.Now();
    RunWorkload(e);
    return e->clock.Now() - start;
  };
  SimNanos t_rbj = timed(rbj.get());
  SimNanos t_wal = timed(wal.get());
  SimNanos t_off = timed(off.get());
  // The paper's headline: X-FTL beats WAL beats rollback.
  EXPECT_LT(t_off, t_wal);
  EXPECT_LT(t_wal, t_rbj);
}

TEST_F(ModeIoTest, WalReadsConsultWalIndex) {
  auto wal = Make(SqlJournalMode::kWal);
  RunWorkload(wal.get());
  // Reopen so the page cache is cold, then read: pages still in the WAL must
  // be fetched from it.
  CHECK(wal->db->Close().ok());
  DbOptions opt;
  opt.journal_mode = SqlJournalMode::kWal;
  opt.cache_pages = 4;
  wal->db = std::move(Database::Open(wal->fs.get(), "m.db", opt)).value();
  auto r = wal->db->Exec("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 30);
}

}  // namespace
}  // namespace xftl::sql
