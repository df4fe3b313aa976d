// Tests for MiniSQLite's lower layers: Value, Record, tokenizer, parser,
// pager (journal modes incl. steal/force + recovery) and B+tree.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "common/coding.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "fs/ext_fs.h"
#include "sql/btree.h"
#include "sql/btree_check.h"
#include "sql/pager.h"
#include "sql/parser.h"
#include "sql/record.h"
#include "storage/sim_ssd.h"

namespace xftl::sql {
namespace {

// --- Value / Record ---------------------------------------------------------

TEST(ValueTest, TypeOrdering) {
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(5).Compare(Value::Text("a")), 0);
  EXPECT_LT(Value::Text("z").Compare(Value::Blob({0})), 0);
}

TEST(ValueTest, NumericComparisonAcrossIntReal) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Real(2.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Real(2.5)), 0);
  EXPECT_GT(Value::Real(3.1).Compare(Value::Int(3)), 0);
}

TEST(ValueTest, TextComparison) {
  EXPECT_LT(Value::Text("abc").Compare(Value::Text("abd")), 0);
  EXPECT_EQ(Value::Text("abc").Compare(Value::Text("abc")), 0);
}

TEST(ValueTest, Coercions) {
  EXPECT_EQ(Value::Text("42").AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Text("2.5").AsReal(), 2.5);
  EXPECT_EQ(Value::Real(7.9).AsInt(), 7);
  EXPECT_EQ(Value::Null().AsInt(), 0);
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_FALSE(Value::Int(0).Truthy());
  EXPECT_TRUE(Value::Int(1).Truthy());
  EXPECT_TRUE(Value::Text("x").Truthy());
}

TEST(RecordTest, RoundTripAllTypes) {
  Row row = {Value::Null(), Value::Int(-17), Value::Real(3.25),
             Value::Text("hello"), Value::Blob({1, 2, 3})};
  auto bytes = EncodeRecord(row);
  auto decoded = DecodeRecord(bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(row[i].Compare((*decoded)[i]), 0) << i;
  }
}

TEST(RecordTest, TruncationDetected) {
  Row row = {Value::Text("hello world")};
  auto bytes = EncodeRecord(row);
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(DecodeRecord(bytes).ok());
}

TEST(RecordTest, ComparisonIsLexicographic) {
  auto a = EncodeRecord({Value::Int(1), Value::Text("b")});
  auto b = EncodeRecord({Value::Int(1), Value::Text("c")});
  auto c = EncodeRecord({Value::Int(2)});
  EXPECT_LT(CompareEncodedRecords(a.data(), a.size(), b.data(), b.size()), 0);
  EXPECT_LT(CompareEncodedRecords(b.data(), b.size(), c.data(), c.size()), 0);
  // Prefix sorts first.
  auto p = EncodeRecord({Value::Int(1)});
  EXPECT_LT(CompareEncodedRecords(p.data(), p.size(), a.data(), a.size()), 0);
}

// --- parser -----------------------------------------------------------------

TEST(ParserTest, CreateTable) {
  auto stmt = ParseStatement(
      "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, score REAL)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto* create = std::get_if<CreateTableStmt>(&stmt.value());
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->name, "t");
  ASSERT_EQ(create->columns.size(), 3u);
  EXPECT_TRUE(create->columns[0].primary_key);
  EXPECT_EQ(create->columns[1].name, "name");
}

TEST(ParserTest, CompositePrimaryKey) {
  auto stmt = ParseStatement(
      "CREATE TABLE w (w_id INT, d_id INT, x TEXT, PRIMARY KEY (w_id, d_id))");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto* create = std::get_if<CreateTableStmt>(&stmt.value());
  ASSERT_NE(create, nullptr);
  EXPECT_TRUE(create->columns[0].primary_key);
  EXPECT_TRUE(create->columns[1].primary_key);
  EXPECT_FALSE(create->columns[2].primary_key);
}

TEST(ParserTest, InsertMultipleRows) {
  auto stmt = ParseStatement(
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'it''s')");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto* insert = std::get_if<InsertStmt>(&stmt.value());
  ASSERT_NE(insert, nullptr);
  EXPECT_EQ(insert->rows.size(), 2u);
  EXPECT_EQ(insert->rows[1][1]->literal.AsText(), "it's");
}

TEST(ParserTest, SelectWithJoinWhereOrderLimit) {
  auto stmt = ParseStatement(
      "SELECT a.x, b.y FROM t1 a JOIN t2 b ON a.id = b.id "
      "WHERE a.x > 5 AND b.y LIKE 'foo%' ORDER BY a.x DESC LIMIT 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto* select = std::get_if<SelectStmt>(&stmt.value());
  ASSERT_NE(select, nullptr);
  EXPECT_EQ(select->items.size(), 2u);
  EXPECT_EQ(select->joins.size(), 1u);
  EXPECT_EQ(select->order_by.size(), 1u);
  EXPECT_TRUE(select->order_by[0].descending);
  EXPECT_EQ(select->limit, 10);
}

TEST(ParserTest, Aggregates) {
  auto stmt = ParseStatement("SELECT COUNT(*), COUNT(DISTINCT x), SUM(y) FROM t");
  ASSERT_TRUE(stmt.ok());
  const auto* select = std::get_if<SelectStmt>(&stmt.value());
  ASSERT_NE(select, nullptr);
  EXPECT_EQ(select->items[1].expr->func, "COUNT");
  EXPECT_TRUE(select->items[1].expr->distinct);
}

TEST(ParserTest, UpdateDelete) {
  auto u = ParseStatement("UPDATE t SET a = a + 1, b = 'z' WHERE id = 3");
  ASSERT_TRUE(u.ok());
  EXPECT_NE(std::get_if<UpdateStmt>(&u.value()), nullptr);
  auto d = ParseStatement("DELETE FROM t WHERE id >= 10");
  ASSERT_TRUE(d.ok());
  EXPECT_NE(std::get_if<DeleteStmt>(&d.value()), nullptr);
}

TEST(ParserTest, TransactionControl) {
  EXPECT_TRUE(std::holds_alternative<BeginStmt>(
      ParseStatement("BEGIN TRANSACTION").value()));
  EXPECT_TRUE(std::holds_alternative<CommitStmt>(
      ParseStatement("COMMIT").value()));
  EXPECT_TRUE(std::holds_alternative<RollbackStmt>(
      ParseStatement("ROLLBACK").value()));
}

TEST(ParserTest, ScriptSplitsStatements) {
  auto script = ParseScript(
      "CREATE TABLE a (x INT); INSERT INTO a VALUES (1); SELECT * FROM a;");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script->size(), 3u);
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseStatement("FROB THE WIDGET").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t VALUES (1").ok());
}

// --- pager + btree fixtures ---------------------------------------------------

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

class PagerTest : public ::testing::TestWithParam<SqlJournalMode> {
 protected:
  PagerTest() : ssd_(TestSpec(), &clock_) {
    fs::FsOptions fs_opt;
    fs_opt.journal_mode = GetParam() == SqlJournalMode::kOff
                              ? fs::JournalMode::kOff
                              : fs::JournalMode::kOrdered;
    fs_opt.inode_count = 64;
    fs_opt.journal_pages = 64;
    CHECK(fs::ExtFs::Mkfs(ssd_.device(), fs_opt).ok());
    auto fs = fs::ExtFs::Mount(ssd_.device(), fs_opt, &clock_);
    CHECK(fs.ok());
    fs_ = std::move(fs).value();
  }

  PagerOptions Options() {
    PagerOptions opt;
    opt.journal_mode = GetParam();
    opt.cache_pages = 32;
    opt.wal_autocheckpoint = 1000;
    return opt;
  }

  std::unique_ptr<Pager> OpenPager() {
    auto pager = Pager::Open(fs_.get(), "test.db", Options());
    CHECK(pager.ok()) << pager.status().ToString();
    return std::move(pager).value();
  }

  SimClock clock_;
  storage::SimSsd ssd_;
  std::unique_ptr<fs::ExtFs> fs_;
};

TEST_P(PagerTest, AllocateWriteCommitRead) {
  auto pager = OpenPager();
  ASSERT_TRUE(pager->Begin().ok());
  auto ref = pager->Allocate();
  ASSERT_TRUE(ref.ok());
  Pgno pgno = ref->pgno();
  std::memcpy(ref->data(), "hello", 5);
  *ref = PageRef();
  ASSERT_TRUE(pager->Commit().ok());

  auto back = pager->Get(pgno);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::memcmp(back->data(), "hello", 5), 0);
}

TEST_P(PagerTest, RollbackRestoresPage) {
  auto pager = OpenPager();
  ASSERT_TRUE(pager->Begin().ok());
  auto ref = pager->Allocate();
  ASSERT_TRUE(ref.ok());
  Pgno pgno = ref->pgno();
  std::memcpy(ref->data(), "v1", 2);
  *ref = PageRef();
  ASSERT_TRUE(pager->Commit().ok());

  ASSERT_TRUE(pager->Begin().ok());
  {
    auto w = pager->Get(pgno);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->MarkDirty().ok());
    std::memcpy(w->data(), "v2", 2);
  }
  ASSERT_TRUE(pager->Rollback().ok());

  auto back = pager->Get(pgno);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::memcmp(back->data(), "v1", 2), 0);
}

TEST_P(PagerTest, StealThenRollbackRestoresPages) {
  // Dirty far more pages than the cache holds so evictions (steal) write
  // uncommitted pages, then roll back: every page must return to v1.
  auto pager = OpenPager();
  ASSERT_TRUE(pager->Begin().ok());
  std::vector<Pgno> pages;
  for (int i = 0; i < 100; ++i) {
    auto ref = pager->Allocate();
    ASSERT_TRUE(ref.ok());
    ref->data()[0] = 0x11;
    ref->data()[1] = uint8_t(i);
    pages.push_back(ref->pgno());
  }
  ASSERT_TRUE(pager->Commit().ok());

  ASSERT_TRUE(pager->Begin().ok());
  for (Pgno pgno : pages) {
    auto ref = pager->Get(pgno);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(ref->MarkDirty().ok());
    ref->data()[0] = 0x22;
  }
  EXPECT_GT(pager->stats().cache_steals, 0u);  // steal happened
  ASSERT_TRUE(pager->Rollback().ok());

  for (size_t i = 0; i < pages.size(); ++i) {
    auto ref = pager->Get(pages[i]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], 0x11) << "page " << pages[i];
    EXPECT_EQ(ref->data()[1], uint8_t(i));
  }
}

TEST_P(PagerTest, StealRedirtyThenRollbackRestoresPages) {
  // A page stolen, read back and dirtied again in the same transaction: in
  // delete mode it is not journaled a second time (that record would hold
  // the stolen version), and rollback restores the transaction-start one.
  auto pager = OpenPager();
  ASSERT_TRUE(pager->Begin().ok());
  std::vector<Pgno> pages;
  for (int i = 0; i < 100; ++i) {
    auto ref = pager->Allocate();
    ASSERT_TRUE(ref.ok());
    ref->data()[0] = 0x11;
    pages.push_back(ref->pgno());
  }
  ASSERT_TRUE(pager->Commit().ok());

  ASSERT_TRUE(pager->Begin().ok());
  for (uint8_t pass : {0x22, 0x33}) {
    for (Pgno pgno : pages) {
      auto ref = pager->Get(pgno);
      ASSERT_TRUE(ref.ok());
      ASSERT_TRUE(ref->MarkDirty().ok());
      ref->data()[0] = pass;
    }
  }
  EXPECT_GT(pager->stats().cache_steals, 0u);
  if (GetParam() == SqlJournalMode::kDelete) {
    // Each page's original is journaled once per transaction, however
    // often it is stolen and dirtied again.
    EXPECT_EQ(pager->stats().journal_page_writes, 340u);
    EXPECT_EQ(pager->stats().cache_steals, 237u);
  }
  ASSERT_TRUE(pager->Rollback().ok());

  for (Pgno pgno : pages) {
    auto ref = pager->Get(pgno);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], 0x11) << "page " << pgno;
  }
}

TEST_P(PagerTest, CommittedDataSurvivesCrash) {
  {
    auto pager = OpenPager();
    ASSERT_TRUE(pager->Begin().ok());
    auto ref = pager->Allocate();
    ASSERT_TRUE(ref.ok());
    std::memcpy(ref->data(), "durable", 7);
    EXPECT_EQ(ref->pgno(), 2u);
    *ref = PageRef();
    ASSERT_TRUE(pager->Commit().ok());
    // In delete mode the journal unlink is the commit point and its
    // metadata must become durable for the transaction to survive a crash -
    // exactly like SQLite on ext4, where a crash immediately after commit
    // can roll the last transaction back. Quiesce the file system first.
    ASSERT_TRUE(fs_->SyncAll().ok());
    // Crash without Close.
  }
  ASSERT_TRUE(ssd_.PowerCycle().ok());
  fs::FsOptions fs_opt;
  fs_opt.journal_mode = GetParam() == SqlJournalMode::kOff
                            ? fs::JournalMode::kOff
                            : fs::JournalMode::kOrdered;
  auto fs = fs::ExtFs::Mount(ssd_.device(), fs_opt, &clock_);
  ASSERT_TRUE(fs.ok());
  fs_ = std::move(fs).value();
  auto pager = OpenPager();
  auto ref = pager->Get(2);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(std::memcmp(ref->data(), "durable", 7), 0);
}

TEST_P(PagerTest, UncommittedTxnRolledBackByCrash) {
  {
    auto pager = OpenPager();
    ASSERT_TRUE(pager->Begin().ok());
    auto ref = pager->Allocate();
    ASSERT_TRUE(ref.ok());
    std::memcpy(ref->data(), "v1", 2);
    *ref = PageRef();
    ASSERT_TRUE(pager->Commit().ok());

    ASSERT_TRUE(pager->Begin().ok());
    for (int i = 0; i < 100; ++i) {  // force steal so the DB file is touched
      auto w = pager->Allocate();
      ASSERT_TRUE(w.ok());
      w->data()[0] = 0x5A;
    }
    auto w = pager->Get(2);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->MarkDirty().ok());
    std::memcpy(w->data(), "v2", 2);
    // Crash mid-transaction.
  }
  ASSERT_TRUE(ssd_.PowerCycle().ok());
  fs::FsOptions fs_opt;
  fs_opt.journal_mode = GetParam() == SqlJournalMode::kOff
                            ? fs::JournalMode::kOff
                            : fs::JournalMode::kOrdered;
  auto fs = fs::ExtFs::Mount(ssd_.device(), fs_opt, &clock_);
  ASSERT_TRUE(fs.ok());
  fs_ = std::move(fs).value();
  auto pager = OpenPager();  // runs hot-journal / WAL / device recovery
  auto ref = pager->Get(2);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(std::memcmp(ref->data(), "v1", 2), 0);
}

TEST_P(PagerTest, FreedPagesAreReused) {
  auto pager = OpenPager();
  ASSERT_TRUE(pager->Begin().ok());
  auto a = pager->Allocate();
  ASSERT_TRUE(a.ok());
  Pgno pgno = a->pgno();
  *a = PageRef();
  ASSERT_TRUE(pager->Free(pgno).ok());
  auto b = pager->Allocate();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->pgno(), pgno);
  *b = PageRef();
  ASSERT_TRUE(pager->Commit().ok());
}

TEST_P(PagerTest, HeaderFieldsPersist) {
  auto pager = OpenPager();
  ASSERT_TRUE(pager->Begin().ok());
  ASSERT_TRUE(pager->SetHeaderField(2, 0xCAFE).ok());
  ASSERT_TRUE(pager->Commit().ok());
  ASSERT_TRUE(pager->Close().ok());
  pager = OpenPager();
  EXPECT_EQ(pager->GetHeaderField(2).value(), 0xCAFEu);
}

INSTANTIATE_TEST_SUITE_P(AllModes, PagerTest,
                         ::testing::Values(SqlJournalMode::kDelete,
                                           SqlJournalMode::kWal,
                                           SqlJournalMode::kOff),
                         [](const auto& info) {
                           return std::string(SqlJournalModeName(info.param));
                         });

// Mode-specific I/O shape checks (the paper's Figure 1).
TEST(PagerModeTest, DeleteModeCreatesAndDeletesJournalPerTxn) {
  SimClock clock;
  storage::SimSsd ssd(TestSpec(), &clock);
  fs::FsOptions fs_opt;
  CHECK(fs::ExtFs::Mkfs(ssd.device(), fs_opt).ok());
  auto fs = fs::ExtFs::Mount(ssd.device(), fs_opt, &clock).value();
  PagerOptions opt;
  opt.journal_mode = SqlJournalMode::kDelete;
  auto pager = Pager::Open(fs.get(), "t.db", opt).value();
  for (int txn = 0; txn < 3; ++txn) {
    ASSERT_TRUE(pager->Begin().ok());
    auto ref = txn == 0 ? pager->Allocate() : pager->Get(2);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(ref->MarkDirty().ok());
    ref->data()[0] = uint8_t(txn);
    *ref = PageRef();
    ASSERT_TRUE(pager->Commit().ok());
  }
  // One journal create+delete per transaction that touched existing pages.
  EXPECT_EQ(pager->stats().journal_creates, 3u);
  EXPECT_EQ(pager->stats().journal_deletes, 3u);
  EXPECT_FALSE(fs->Exists("t.db-journal").value());
}

TEST(PagerModeTest, WalAccumulatesFramesAndCheckpoints) {
  SimClock clock;
  storage::SimSsd ssd(TestSpec(), &clock);
  fs::FsOptions fs_opt;
  CHECK(fs::ExtFs::Mkfs(ssd.device(), fs_opt).ok());
  auto fs = fs::ExtFs::Mount(ssd.device(), fs_opt, &clock).value();
  PagerOptions opt;
  opt.journal_mode = SqlJournalMode::kWal;
  opt.wal_autocheckpoint = 20;
  auto pager = Pager::Open(fs.get(), "t.db", opt).value();

  ASSERT_TRUE(pager->Begin().ok());
  auto first = pager->Allocate();
  ASSERT_TRUE(first.ok());
  Pgno pgno = first->pgno();
  *first = PageRef();
  ASSERT_TRUE(pager->Commit().ok());
  EXPECT_TRUE(fs->Exists("t.db-wal").value());
  EXPECT_GT(pager->wal_frames(), 0u);

  // Enough commits to cross the autocheckpoint threshold.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(pager->Begin().ok());
    auto ref = pager->Get(pgno);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(ref->MarkDirty().ok());
    ref->data()[0] = uint8_t(i);
    *ref = PageRef();
    ASSERT_TRUE(pager->Commit().ok());
  }
  EXPECT_GT(pager->stats().checkpoints, 0u);
}

// --- btree ---------------------------------------------------------------------

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : ssd_(TestSpec(), &clock_) {
    fs::FsOptions fs_opt;
    CHECK(fs::ExtFs::Mkfs(ssd_.device(), fs_opt).ok());
    auto fs = fs::ExtFs::Mount(ssd_.device(), fs_opt, &clock_);
    CHECK(fs.ok());
    fs_ = std::move(fs).value();
    pager_ = OpenPager("bt.db", 64);
    CHECK(pager_->Begin().ok());
  }

  ~BTreeTest() override {
    if (pager_->in_transaction()) CHECK(pager_->Commit().ok());
  }

  std::unique_ptr<Pager> OpenPager(const std::string& path,
                                   uint32_t cache_pages) {
    PagerOptions opt;
    opt.cache_pages = cache_pages;
    auto pager = Pager::Open(fs_.get(), path, opt);
    CHECK(pager.ok());
    return std::move(pager).value();
  }

  std::vector<uint8_t> Payload(int64_t tag, size_t size = 32) {
    return EncodeRecord({Value::Int(tag), Value::Text(std::string(size, 'p'))});
  }

  // Random inserts, replaces and deletes against a model; see the tests.
  void TableModelCheck(Pager* pager);
  void IndexModelCheck(Pager* pager);
  void CheckCellOverrunIsCorruption(bool seek_first);

  SimClock clock_;
  storage::SimSsd ssd_;
  std::unique_ptr<fs::ExtFs> fs_;
  std::unique_ptr<Pager> pager_;
};

TEST_F(BTreeTest, InsertAndScanInOrder) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  // Insert shuffled keys.
  Rng rng(1);
  std::vector<int64_t> keys;
  for (int64_t k = 1; k <= 500; ++k) keys.push_back(k);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(i)]);
  }
  for (int64_t k : keys) {
    ASSERT_TRUE(tree.Insert(k, Payload(k)).ok()) << k;
  }
  // Scan returns them sorted.
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  int64_t expect = 1;
  while (cursor.valid()) {
    EXPECT_EQ(cursor.rowid(), expect);
    auto payload = cursor.Payload();
    ASSERT_TRUE(payload.ok());
    auto row = DecodeRecord(*payload);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[0].AsInt(), expect);
    expect++;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(expect, 501);
  EXPECT_EQ(tree.MaxRowid().value(), 500);
}

TEST_F(BTreeTest, SeekGEFindsExactAndNext) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  for (int64_t k = 10; k <= 1000; k += 10) {
    ASSERT_TRUE(tree.Insert(k, Payload(k)).ok());
  }
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.SeekGE(500).ok());
  ASSERT_TRUE(cursor.valid());
  EXPECT_EQ(cursor.rowid(), 500);
  ASSERT_TRUE(cursor.SeekGE(501).ok());
  ASSERT_TRUE(cursor.valid());
  EXPECT_EQ(cursor.rowid(), 510);
  ASSERT_TRUE(cursor.SeekGE(1001).ok());
  EXPECT_FALSE(cursor.valid());
}

TEST_F(BTreeTest, ReplaceKeepsSingleEntry) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  ASSERT_TRUE(tree.Insert(7, Payload(1)).ok());
  ASSERT_TRUE(tree.Insert(7, Payload(2)).ok());
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  ASSERT_TRUE(cursor.valid());
  auto row = DecodeRecord(cursor.Payload().value());
  EXPECT_EQ((*row)[0].AsInt(), 2);
  ASSERT_TRUE(cursor.Next().ok());
  EXPECT_FALSE(cursor.valid());
}

TEST_F(BTreeTest, DeleteAndNotFound) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  for (int64_t k = 1; k <= 200; ++k) {
    ASSERT_TRUE(tree.Insert(k, Payload(k)).ok());
  }
  for (int64_t k = 2; k <= 200; k += 2) {
    ASSERT_TRUE(tree.Delete(k).ok());
  }
  EXPECT_TRUE(tree.Delete(2).IsNotFound());
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  int64_t expect = 1;
  while (cursor.valid()) {
    EXPECT_EQ(cursor.rowid(), expect);
    expect += 2;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(expect, 201);
}

TEST_F(BTreeTest, DeleteEverything) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  for (int64_t k = 1; k <= 300; ++k) {
    ASSERT_TRUE(tree.Insert(k, Payload(k)).ok());
  }
  for (int64_t k = 1; k <= 300; ++k) {
    ASSERT_TRUE(tree.Delete(k).ok()) << k;
  }
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  EXPECT_FALSE(cursor.valid());
  // Tree still usable.
  ASSERT_TRUE(tree.Insert(42, Payload(42)).ok());
  EXPECT_EQ(tree.MaxRowid().value(), 42);
}

TEST_F(BTreeTest, LargePayloadUsesOverflowPages) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  // Payload far larger than a 1 KiB page.
  std::string big(5000, 'x');
  for (size_t i = 0; i < big.size(); ++i) big[i] = char('a' + i % 26);
  auto payload = EncodeRecord({Value::Text(big)});
  ASSERT_TRUE(tree.Insert(1, payload).ok());

  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  ASSERT_TRUE(cursor.valid());
  auto got = cursor.Payload();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, payload);
  // Delete releases the overflow chain back to the freelist.
  ASSERT_TRUE(tree.Delete(1).ok());
}

TEST_F(BTreeTest, IndexTreeOrdersByRecordKey) {
  auto root = BTree::Create(pager_.get(), true);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, true);
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    Row key = {Value::Text("k" + std::to_string(rng.Uniform(100))),
               Value::Int(i)};
    ASSERT_TRUE(tree.InsertKey(EncodeRecord(key)).ok());
  }
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  std::vector<uint8_t> prev;
  int count = 0;
  while (cursor.valid()) {
    auto key = cursor.Payload().value();
    if (!prev.empty()) {
      EXPECT_LE(CompareEncodedRecords(prev.data(), prev.size(), key.data(),
                                      key.size()),
                0);
    }
    prev = key;
    count++;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(count, 300);
}

TEST_F(BTreeTest, IndexPrefixSeek) {
  auto root = BTree::Create(pager_.get(), true);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, true);
  for (int w = 1; w <= 5; ++w) {
    for (int d = 1; d <= 10; ++d) {
      Row key = {Value::Int(w), Value::Int(d), Value::Int(w * 100 + d)};
      ASSERT_TRUE(tree.InsertKey(EncodeRecord(key)).ok());
    }
  }
  // Seek to prefix (3,*): the first match is (3,1).
  auto prefix = EncodeRecord({Value::Int(3)});
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.SeekGEKey(prefix).ok());
  ASSERT_TRUE(cursor.valid());
  auto row = DecodeRecord(cursor.Payload().value()).value();
  EXPECT_EQ(row[0].AsInt(), 3);
  EXPECT_EQ(row[1].AsInt(), 1);
}

// Compares a full scan of a table tree with the model, then checks the
// tree's structure (which includes the zeroed page tails in-place edits must
// keep).
void ExpectTableMatches(BTree* tree, Pager* pager,
                        const std::map<int64_t, std::vector<uint8_t>>& model) {
  auto cursor = tree->NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  auto it = model.begin();
  while (cursor.valid()) {
    ASSERT_NE(it, model.end());
    EXPECT_EQ(cursor.rowid(), it->first);
    EXPECT_EQ(cursor.Payload().value(), it->second) << it->first;
    ++it;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(it, model.end());
  auto report = CheckBTree(pager, tree->root(), /*is_index=*/false);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->cells, model.size());
}

// Seeks `tree` to the first rowid >= `key` and compares with the model.
void ExpectSeekMatches(BTree* tree,
                       const std::map<int64_t, std::vector<uint8_t>>& model,
                       int64_t key) {
  auto cursor = tree->NewCursor();
  ASSERT_TRUE(cursor.SeekGE(key).ok());
  auto it = model.lower_bound(key);
  ASSERT_EQ(cursor.valid(), it != model.end()) << "seek " << key;
  if (it == model.end()) return;
  EXPECT_EQ(cursor.rowid(), it->first) << "seek " << key;
  EXPECT_EQ(cursor.Payload().value(), it->second) << "seek " << key;
}

// After every operation a seek to a present and to an absent key must land
// where the model says, and every 100 operations the transaction commits or,
// one time in four, rolls back (the model with it) before a full scan and
// CheckBTree. The seeks are what find a cell index left stale by an edit, a
// split, an unlink, an eviction or a rollback.
void BTreeTest::TableModelCheck(Pager* pager) {
  auto root = BTree::Create(pager, false);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(pager->Commit().ok());
  ASSERT_TRUE(pager->Begin().ok());
  BTree tree(pager, *root, false);
  // Payloads run from a few bytes to a few overflow pages, so replaces grow,
  // shrink, spill to overflow pages and free chains.
  std::map<int64_t, std::vector<uint8_t>> model;
  std::map<int64_t, std::vector<uint8_t>> committed;
  Rng rng(7);
  for (int op = 0; op < 3000; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    int64_t k = int64_t(rng.Uniform(400));
    if (rng.Uniform(3) < 2) {
      size_t size = rng.Uniform(4) == 0 ? 200 + rng.Uniform(2500)
                                        : rng.Uniform(120);
      std::vector<uint8_t> payload = Payload(op, size);
      Status s = tree.Insert(k, payload);
      ASSERT_TRUE(s.ok()) << s.ToString() << " op " << op;
      model[k] = std::move(payload);
    } else {
      Status s = tree.Delete(k);
      if (model.erase(k) != 0) {
        ASSERT_TRUE(s.ok()) << s.ToString();
      } else {
        ASSERT_TRUE(s.IsNotFound()) << s.ToString();
      }
    }
    if (!model.empty()) {
      auto present = std::next(model.begin(), rng.Uniform(model.size()));
      ASSERT_NO_FATAL_FAILURE(ExpectSeekMatches(&tree, model, present->first));
    }
    int64_t absent = int64_t(rng.Uniform(401));  // keys are below 400
    while (model.count(absent) != 0) absent++;
    ASSERT_NO_FATAL_FAILURE(ExpectSeekMatches(&tree, model, absent));
    if (op % 100 == 99) {
      // End the transaction so the rollback journal stays small and pages
      // reload.
      if (rng.Uniform(4) == 0) {
        ASSERT_TRUE(pager->Rollback().ok());
        model = committed;
      } else {
        ASSERT_TRUE(pager->Commit().ok());
        committed = model;
      }
      ASSERT_TRUE(pager->Begin().ok());
      ASSERT_NO_FATAL_FAILURE(ExpectTableMatches(&tree, pager, model));
    }
  }
  EXPECT_EQ(tree.MaxRowid().value(), model.empty() ? 0 : model.rbegin()->first);
  auto report = CheckBTree(pager, *root, /*is_index=*/false);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->depth, 1u);
  EXPECT_GT(report->overflow_pages, 0u);
  EXPECT_GT(pager->stats().rollbacks, 0u);
}

TEST_F(BTreeTest, RandomisedModelCheck) {
  TableModelCheck(pager_.get());
}

// The same with a cache so small that pages are stolen mid-transaction and
// read back, and rollbacks replay the journal.
TEST_F(BTreeTest, RandomisedModelCheckEvictingCache) {
  auto pager = OpenPager("bt_small.db", 6);
  ASSERT_TRUE(pager->Begin().ok());
  TableModelCheck(pager.get());
  EXPECT_GT(pager->stats().cache_steals, 0u);
  ASSERT_TRUE(pager->Commit().ok());
}

// Orders encoded keys by their decoded Values, independently of
// CompareEncodedRecords.
struct DecodedKeyLess {
  bool operator()(const std::vector<uint8_t>& a,
                  const std::vector<uint8_t>& b) const {
    Row x = DecodeRecord(a).value();
    Row y = DecodeRecord(b).value();
    for (size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
      int c = x[i].Compare(y[i]);
      if (c != 0) return c < 0;
    }
    return x.size() < y.size();
  }
};

// A random index key over every value type: small ints and reals that can
// equal them, short texts with shared prefixes and a few long ones, blobs
// with bytes on both sides of 0x80, and a second column that is sometimes
// absent (a shorter record sorts first on ties).
std::vector<uint8_t> RandomIndexKey(Rng* rng) {
  Row key;
  switch (rng->Uniform(5)) {
    case 0:
      key.push_back(Value::Null());
      break;
    case 1:
      key.push_back(Value::Int(int64_t(rng->Uniform(30)) - 10));
      break;
    case 2:
      key.push_back(Value::Real((double(rng->Uniform(60)) - 20) / 2));
      break;
    case 3: {
      std::string text(rng->Uniform(8) == 0 ? 100 + rng->Uniform(100)
                                            : rng->Uniform(6),
                       'a');
      for (char& c : text) c = char('a' + rng->Uniform(2));
      key.push_back(Value::Text(text));
      break;
    }
    default: {
      static constexpr uint8_t kBytes[] = {0x00, 0x7f, 0x80, 0xff};
      std::vector<uint8_t> blob(rng->Uniform(5));
      for (uint8_t& b : blob) b = kBytes[rng->Uniform(4)];
      key.push_back(Value::Blob(blob));
      break;
    }
  }
  if (rng->Uniform(4) != 0) {
    key.push_back(Value::Int(int64_t(rng->Uniform(20))));
  }
  return EncodeRecord(key);
}

using IndexModel = std::set<std::vector<uint8_t>, DecodedKeyLess>;

// Seeks `tree` to the first key >= `key` and compares with the model.
void ExpectKeySeekMatches(BTree* tree, const IndexModel& model,
                          const std::vector<uint8_t>& key) {
  auto cursor = tree->NewCursor();
  ASSERT_TRUE(cursor.SeekGEKey(key).ok());
  auto it = model.lower_bound(key);
  ASSERT_EQ(cursor.valid(), it != model.end());
  if (it == model.end()) return;
  EXPECT_EQ(cursor.Payload().value(), *it);
}

// As TableModelCheck, on an index tree.
void BTreeTest::IndexModelCheck(Pager* pager) {
  auto root = BTree::Create(pager, true);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(pager->Commit().ok());
  ASSERT_TRUE(pager->Begin().ok());
  BTree tree(pager, *root, true);
  IndexModel model;
  IndexModel committed;
  Rng rng(11);
  for (int op = 0; op < 3000; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    std::vector<uint8_t> key = RandomIndexKey(&rng);
    int action = int(rng.Uniform(3));
    if (action == 2 && !model.empty() && rng.Uniform(2) == 0) {
      key = *std::next(model.begin(), rng.Uniform(model.size()));
    }
    if (action < 2) {
      // An equal key (say 3 against 3.0) is replaced by the new bytes.
      ASSERT_TRUE(tree.InsertKey(key).ok());
      model.erase(key);
      model.insert(key);
    } else {
      Status s = tree.DeleteKey(key);
      if (model.erase(key) != 0) {
        ASSERT_TRUE(s.ok()) << s.ToString();
      } else {
        ASSERT_TRUE(s.IsNotFound()) << s.ToString();
      }
    }
    if (!model.empty()) {
      ASSERT_NO_FATAL_FAILURE(ExpectKeySeekMatches(
          &tree, model, *std::next(model.begin(), rng.Uniform(model.size()))));
    }
    std::vector<uint8_t> absent = RandomIndexKey(&rng);
    while (model.count(absent) != 0) absent = RandomIndexKey(&rng);
    ASSERT_NO_FATAL_FAILURE(ExpectKeySeekMatches(&tree, model, absent));
    if (op % 100 != 99) continue;
    if (rng.Uniform(4) == 0) {
      ASSERT_TRUE(pager->Rollback().ok());
      model = committed;
    } else {
      ASSERT_TRUE(pager->Commit().ok());
      committed = model;
    }
    ASSERT_TRUE(pager->Begin().ok());
    auto cursor = tree.NewCursor();
    ASSERT_TRUE(cursor.First().ok());
    auto it = model.begin();
    while (cursor.valid()) {
      ASSERT_NE(it, model.end());
      EXPECT_EQ(cursor.Payload().value(), *it);
      ++it;
      ASSERT_TRUE(cursor.Next().ok());
    }
    EXPECT_EQ(it, model.end());
    auto report = CheckBTree(pager, *root, /*is_index=*/true);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->cells, model.size());
  }
  auto report = CheckBTree(pager, *root, /*is_index=*/true);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->depth, 1u);
  EXPECT_GT(pager->stats().rollbacks, 0u);
}

TEST_F(BTreeTest, RandomisedIndexModelCheck) {
  IndexModelCheck(pager_.get());
}

TEST_F(BTreeTest, RandomisedIndexModelCheckEvictingCache) {
  auto pager = OpenPager("bt_small_index.db", 6);
  ASSERT_TRUE(pager->Begin().ok());
  IndexModelCheck(pager.get());
  EXPECT_GT(pager->stats().cache_steals, 0u);
  ASSERT_TRUE(pager->Commit().ok());
}

TEST_F(BTreeTest, CheckerDetectsCorruption) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  for (int64_t k = 1; k <= 400; ++k) {
    ASSERT_TRUE(tree.Insert(k, Payload(k)).ok());
  }
  auto clean = CheckBTree(pager_.get(), *root, false);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_GT(clean->depth, 1u);  // large enough to have interior pages
  EXPECT_EQ(clean->cells, 400u);

  // Flip a rowid inside the root so ordering breaks; the checker must see
  // it. (Writing garbage over the cell area.)
  auto ref = pager_->Get(*root);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(ref->MarkDirty().ok());
  std::memset(ref->data() + 9, 0xEE, 24);
  *ref = PageRef();
  auto corrupt = CheckBTree(pager_.get(), *root, false);
  EXPECT_FALSE(corrupt.ok());
}

// Pokes the root leaf of a five-row table so that its cells run past the
// page end, two ways. With `seek_first`, a seek has indexed the page's cells
// before each poke, so the poke's MarkDirty must drop that index.
void BTreeTest::CheckCellOverrunIsCorruption(bool seek_first) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  for (int64_t k = 1; k <= 5; ++k) {
    ASSERT_TRUE(tree.Insert(k, Payload(k)).ok());
  }
  auto poke16 = [&](size_t off, uint16_t v) {
    auto ref = pager_->Get(*root);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(ref->MarkDirty().ok());
    EncodeFixed16(ref->data() + off, v);
  };
  auto corrupt16 = [&](size_t off, uint16_t v) {
    if (seek_first) {
      auto cursor = tree.NewCursor();
      ASSERT_TRUE(cursor.SeekGE(3).ok());
      ASSERT_TRUE(pager_->Get(*root)->cell_index()->built());
    }
    poke16(off, v);
  };
  // Every entry point must refuse the page rather than read past its end.
  auto expect_corruption = [&](const std::string& what) {
    auto cursor = tree.NewCursor();
    EXPECT_TRUE(cursor.First().IsCorruption()) << what;
    EXPECT_TRUE(cursor.SeekGE(3).IsCorruption()) << what;
    EXPECT_TRUE(tree.Insert(6, Payload(6)).IsCorruption()) << what;
    EXPECT_TRUE(tree.Delete(2).IsCorruption()) << what;
    EXPECT_TRUE(tree.MaxRowid().status().IsCorruption()) << what;
  };
  // A cell count far past the cells the leaf holds.
  ASSERT_NO_FATAL_FAILURE(corrupt16(1, 255));
  expect_corruption("cell count");
  ASSERT_NO_FATAL_FAILURE(poke16(1, 5));
  // The last cell's local length, so that no later cell's header is what
  // runs out. A cell is rowid(8) payload_total(4) local_size(2) overflow(4)
  // and the local bytes.
  const size_t cell_size = 8 + 10 + Payload(1).size();
  ASSERT_NO_FATAL_FAILURE(corrupt16(9 + 4 * cell_size + 8 + 4, 0xffff));
  expect_corruption("local length");
}

TEST_F(BTreeTest, CellsPastPageEndAreCorruption) {
  CheckCellOverrunIsCorruption(/*seek_first=*/false);
}

TEST_F(BTreeTest, CellsPastPageEndAfterSeekAreCorruption) {
  CheckCellOverrunIsCorruption(/*seek_first=*/true);
}

TEST_F(BTreeTest, OverflowPastPageEndIsCorruption) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  ASSERT_TRUE(tree.Insert(1, Payload(1, 3000)).ok());
  // The leaf's one cell: rowid(8) payload_total(4) local_size(2) overflow(4).
  auto leaf = pager_->Get(*root);
  ASSERT_TRUE(leaf.ok());
  Pgno first = DecodeFixed32(leaf->data() + 9 + 8 + 6);
  *leaf = PageRef();
  ASSERT_NE(first, kNoPgno);
  // An overflow page's length field: type(1) pad(3) next(4) len(4).
  auto ovfl = pager_->Get(first);
  ASSERT_TRUE(ovfl.ok());
  ASSERT_TRUE(ovfl->MarkDirty().ok());
  EncodeFixed32(ovfl->data() + 8, 0xffffffffu);
  *ovfl = PageRef();
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  EXPECT_TRUE(cursor.Payload().status().IsCorruption());
}

TEST_F(BTreeTest, DropReleasesPages) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  {
    BTree tree(pager_.get(), *root, false);
    for (int64_t k = 1; k <= 500; ++k) {
      ASSERT_TRUE(tree.Insert(k, Payload(k, 100)).ok());
    }
  }
  Pgno before = pager_->page_count();
  ASSERT_TRUE(BTree::Drop(pager_.get(), *root).ok());
  // Freed pages go to the freelist; new allocations reuse them instead of
  // growing the file.
  for (int i = 0; i < 20; ++i) {
    auto ref = pager_->Allocate();
    ASSERT_TRUE(ref.ok());
  }
  EXPECT_EQ(pager_->page_count(), before);
}

}  // namespace
}  // namespace xftl::sql
