// Edge-case tests for the SQL layer: expression semantics, NULL handling,
// rowid-alias updates, DDL inside transactions, index consistency after
// mixed DML, and scalar functions.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/sim_clock.h"
#include "sql/database.h"
#include "storage/sim_ssd.h"

namespace xftl::sql {
namespace {

class SqlEdgeTest : public ::testing::Test {
 protected:
  SqlEdgeTest() {
    storage::SsdSpec spec = storage::OpenSsdSpec(64, 0.6);
    spec.flash.page_size = 1024;
    spec.flash.pages_per_block = 16;
    spec.flash.num_blocks = 256;
    spec.ftl.meta_blocks = 6;
    spec.ftl.min_free_blocks = 4;
    spec.ftl.num_logical_pages = 2600;
    spec.xftl.xl2p_capacity = 180;
    ssd_ = std::make_unique<storage::SimSsd>(spec, &clock_);
    fs::FsOptions fs_opt;
    fs_opt.journal_mode = fs::JournalMode::kOff;
    CHECK(fs::ExtFs::Mkfs(ssd_->device(), fs_opt).ok());
    fs_ = std::move(fs::ExtFs::Mount(ssd_->device(), fs_opt, &clock_)).value();
    DbOptions opt;
    opt.journal_mode = SqlJournalMode::kOff;
    db_ = std::move(Database::Open(fs_.get(), "edge.db", opt)).value();
  }

  ResultSet Q(const std::string& sql) {
    auto r = db_->Exec(sql);
    CHECK(r.ok()) << sql << " -> " << r.status().ToString();
    return std::move(r).value();
  }
  Value Scalar(const std::string& sql) {
    ResultSet r = Q(sql);
    CHECK(!r.rows.empty()) << sql;
    return r.rows[0][0];
  }

  SimClock clock_;
  std::unique_ptr<storage::SimSsd> ssd_;
  std::unique_ptr<fs::ExtFs> fs_;
  std::unique_ptr<Database> db_;
};

TEST_F(SqlEdgeTest, ExpressionArithmetic) {
  EXPECT_EQ(Scalar("SELECT 2 + 3 * 4 - 1").AsInt(), 13);
  EXPECT_EQ(Scalar("SELECT (2 + 3) * 4").AsInt(), 20);
  EXPECT_EQ(Scalar("SELECT -5 + 2").AsInt(), -3);
  EXPECT_EQ(Scalar("SELECT 7 % 3").AsInt(), 1);
  EXPECT_DOUBLE_EQ(Scalar("SELECT 7.0 / 2").AsReal(), 3.5);
  EXPECT_EQ(Scalar("SELECT 7 / 2").AsInt(), 3);  // integer division
  EXPECT_TRUE(Scalar("SELECT 1 / 0").is_null());  // SQLite: NULL
}

TEST_F(SqlEdgeTest, ComparisonAndLogic) {
  EXPECT_EQ(Scalar("SELECT 1 < 2").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT 'a' < 'b'").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT NOT 0").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT 1 AND 0").AsInt(), 0);
  EXPECT_EQ(Scalar("SELECT 0 OR 2").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT 1 != 2").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT 3 >= 3").AsInt(), 1);
}

TEST_F(SqlEdgeTest, NullPropagation) {
  EXPECT_TRUE(Scalar("SELECT NULL + 1").is_null());
  EXPECT_TRUE(Scalar("SELECT NULL = NULL").is_null());
  EXPECT_EQ(Scalar("SELECT NULL IS NULL").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT 5 IS NOT NULL").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT COALESCE(NULL, NULL, 3)").AsInt(), 3);
  EXPECT_EQ(Scalar("SELECT IFNULL(NULL, 'x')").AsText(), "x");
}

TEST_F(SqlEdgeTest, ScalarFunctions) {
  EXPECT_EQ(Scalar("SELECT LENGTH('hello')").AsInt(), 5);
  EXPECT_EQ(Scalar("SELECT UPPER('MiXeD')").AsText(), "MIXED");
  EXPECT_EQ(Scalar("SELECT LOWER('MiXeD')").AsText(), "mixed");
  EXPECT_EQ(Scalar("SELECT ABS(-42)").AsInt(), 42);
  EXPECT_EQ(Scalar("SELECT SUBSTR('abcdef', 2, 3)").AsText(), "bcd");
  EXPECT_EQ(Scalar("SELECT SUBSTR('abcdef', 4)").AsText(), "def");
  EXPECT_EQ(Scalar("SELECT MIN(3, 1, 2)").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT MAX(3, 1, 2)").AsInt(), 3);
}

TEST_F(SqlEdgeTest, LikePatterns) {
  EXPECT_EQ(Scalar("SELECT 'hello' LIKE 'h%'").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT 'hello' LIKE 'H_LLO'").AsInt(), 1);  // case-insens.
  EXPECT_EQ(Scalar("SELECT 'hello' LIKE '%zzz%'").AsInt(), 0);
  EXPECT_EQ(Scalar("SELECT '' LIKE '%'").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT 'abc' LIKE 'abc'").AsInt(), 1);
}

TEST_F(SqlEdgeTest, AggregatesOverEmptyTable) {
  Q("CREATE TABLE e (v INT)");
  ResultSet r = Q("SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM e");
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
  EXPECT_TRUE(r.rows[0][3].is_null());
  EXPECT_TRUE(r.rows[0][4].is_null());
}

TEST_F(SqlEdgeTest, UpdateRowidAliasMovesRow) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)");
  Q("INSERT INTO t VALUES (1, 'one'), (2, 'two')");
  Q("UPDATE t SET id = 10 WHERE id = 1");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t").AsInt(), 2);
  EXPECT_EQ(Scalar("SELECT v FROM t WHERE id = 10").AsText(), "one");
  EXPECT_EQ(Q("SELECT v FROM t WHERE id = 1").rows.size(), 0u);
  // The rowid actually moved (ORDER BY rowid reflects it).
  ResultSet r = Q("SELECT id FROM t ORDER BY rowid");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[1][0].AsInt(), 10);
}

TEST_F(SqlEdgeTest, InsertColumnSubsetFillsNulls) {
  Q("CREATE TABLE t (a INT, b TEXT, c REAL)");
  Q("INSERT INTO t (b) VALUES ('only-b')");
  ResultSet r = Q("SELECT a, b, c FROM t");
  EXPECT_TRUE(r.rows[0][0].is_null());
  EXPECT_EQ(r.rows[0][1].AsText(), "only-b");
  EXPECT_TRUE(r.rows[0][2].is_null());
}

TEST_F(SqlEdgeTest, StringEscaping) {
  Q("CREATE TABLE s (v TEXT)");
  Q("INSERT INTO s VALUES ('it''s a ''test''')");
  EXPECT_EQ(Scalar("SELECT v FROM s").AsText(), "it's a 'test'");
}

TEST_F(SqlEdgeTest, LimitZeroAndBeyond) {
  Q("CREATE TABLE t (v INT)");
  Q("INSERT INTO t VALUES (1), (2), (3)");
  EXPECT_EQ(Q("SELECT v FROM t LIMIT 0").rows.size(), 0u);
  EXPECT_EQ(Q("SELECT v FROM t LIMIT 99").rows.size(), 3u);
}

TEST_F(SqlEdgeTest, OrderByMultipleKeysAndExpressions) {
  Q("CREATE TABLE t (a INT, b INT)");
  Q("INSERT INTO t VALUES (1, 3), (1, 1), (2, 2), (2, 0)");
  ResultSet r = Q("SELECT a, b FROM t ORDER BY a ASC, b DESC");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][1].AsInt(), 3);
  EXPECT_EQ(r.rows[1][1].AsInt(), 1);
  EXPECT_EQ(r.rows[2][1].AsInt(), 2);
  EXPECT_EQ(r.rows[3][1].AsInt(), 0);
  // Expression order key.
  ResultSet e = Q("SELECT a, b FROM t ORDER BY a * 10 + b");
  EXPECT_EQ(e.rows[0][1].AsInt(), 1);
}

TEST_F(SqlEdgeTest, CommaJoinWithWhere) {
  Q("CREATE TABLE x (id INTEGER PRIMARY KEY, v TEXT)");
  Q("CREATE TABLE y (id INTEGER PRIMARY KEY, xref INT)");
  Q("INSERT INTO x VALUES (1, 'a'), (2, 'b')");
  Q("INSERT INTO y VALUES (10, 1), (11, 2), (12, 1)");
  ResultSet r = Q(
      "SELECT y.id, x.v FROM y, x WHERE y.xref = x.id AND x.v = 'a' "
      "ORDER BY y.id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 10);
  EXPECT_EQ(r.rows[1][0].AsInt(), 12);
}

TEST_F(SqlEdgeTest, DropIndexFallsBackToScanWithSameResults) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, k INT)");
  Q("CREATE INDEX idx_k ON t (k)");
  for (int i = 1; i <= 40; ++i) {
    Q("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
      std::to_string(i % 4) + ")");
  }
  int64_t with_index = Scalar("SELECT COUNT(*) FROM t WHERE k = 2").AsInt();
  Q("DROP INDEX idx_k");
  int64_t without = Scalar("SELECT COUNT(*) FROM t WHERE k = 2").AsInt();
  EXPECT_EQ(with_index, without);
  EXPECT_EQ(with_index, 10);
}

TEST_F(SqlEdgeTest, DdlInsideTransactionRollsBack) {
  Q("BEGIN");
  Q("CREATE TABLE ephemeral (v INT)");
  Q("INSERT INTO ephemeral VALUES (1)");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM ephemeral").AsInt(), 1);
  Q("ROLLBACK");
  EXPECT_FALSE(db_->Exec("SELECT * FROM ephemeral").ok());
  // And can be created again cleanly afterwards.
  Q("CREATE TABLE ephemeral (v TEXT)");
  Q("INSERT INTO ephemeral VALUES ('yes')");
  EXPECT_EQ(Scalar("SELECT v FROM ephemeral").AsText(), "yes");
}

TEST_F(SqlEdgeTest, SelectDistinctStarAndQualifiedStar) {
  Q("CREATE TABLE a (x INT)");
  Q("CREATE TABLE b (y INT)");
  Q("INSERT INTO a VALUES (1)");
  Q("INSERT INTO b VALUES (2)");
  ResultSet r = Q("SELECT a.*, b.* FROM a JOIN b ON 1 = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(r.rows[0].size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
}

TEST_F(SqlEdgeTest, RowsAffectedCounts) {
  Q("CREATE TABLE t (v INT)");
  ResultSet ins = Q("INSERT INTO t VALUES (1), (2), (3)");
  EXPECT_EQ(ins.rows_affected, 3u);
  ResultSet upd = Q("UPDATE t SET v = v + 1 WHERE v >= 2");
  EXPECT_EQ(upd.rows_affected, 2u);
  ResultSet del = Q("DELETE FROM t");
  EXPECT_EQ(del.rows_affected, 3u);
}

TEST_F(SqlEdgeTest, IndexConsistencyUnderMixedDml) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, k INT, v TEXT)");
  Q("CREATE INDEX idx ON t (k)");
  Rng rng(5);
  std::map<int64_t, int64_t> model;  // id -> k
  int64_t next_id = 0;
  for (int op = 0; op < 400; ++op) {
    int action = int(rng.Uniform(3));
    if (action == 0 || model.empty()) {
      int64_t id = ++next_id;
      int64_t k = int64_t(rng.Uniform(10));
      Q("INSERT INTO t VALUES (" + std::to_string(id) + ", " +
        std::to_string(k) + ", 'v')");
      model[id] = k;
    } else if (action == 1) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      int64_t k = int64_t(rng.Uniform(10));
      Q("UPDATE t SET k = " + std::to_string(k) + " WHERE id = " +
        std::to_string(it->first));
      it->second = k;
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      Q("DELETE FROM t WHERE id = " + std::to_string(it->first));
      model.erase(it);
    }
  }
  // Index-driven counts must match the model for every key.
  for (int64_t k = 0; k < 10; ++k) {
    int64_t want = 0;
    for (const auto& [id, mk] : model) want += mk == k;
    EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE k = " +
                     std::to_string(k))
                  .AsInt(),
              want)
        << "k=" << k;
  }
}

TEST_F(SqlEdgeTest, GroupByBasic) {
  Q("CREATE TABLE sales (region TEXT, amount INT)");
  Q("INSERT INTO sales VALUES ('east', 10), ('west', 20), ('east', 5), "
    "('west', 1), ('north', 7)");
  ResultSet r = Q(
      "SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region "
      "ORDER BY region");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsText(), "east");
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
  EXPECT_EQ(r.rows[0][2].AsInt(), 15);
  EXPECT_EQ(r.rows[1][0].AsText(), "north");
  EXPECT_EQ(r.rows[1][2].AsInt(), 7);
  EXPECT_EQ(r.rows[2][0].AsText(), "west");
  EXPECT_EQ(r.rows[2][2].AsInt(), 21);
}

TEST_F(SqlEdgeTest, GroupByHaving) {
  Q("CREATE TABLE t (k INT, v INT)");
  Q("INSERT INTO t VALUES (1, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6)");
  ResultSet r = Q(
      "SELECT k, COUNT(*) FROM t GROUP BY k HAVING COUNT(*) >= 2 "
      "ORDER BY k");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[1][0].AsInt(), 3);
  EXPECT_EQ(r.rows[1][1].AsInt(), 3);
}

TEST_F(SqlEdgeTest, GroupByCompositeKeyAndExpression) {
  Q("CREATE TABLE t (a INT, b INT, v INT)");
  Q("INSERT INTO t VALUES (1, 1, 10), (1, 2, 20), (1, 1, 30), (2, 1, 40)");
  ResultSet r = Q(
      "SELECT a, b, SUM(v) + 1 FROM t GROUP BY a, b ORDER BY a, b");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][2].AsInt(), 41);  // (1,1): 10+30+1
  EXPECT_EQ(r.rows[1][2].AsInt(), 21);  // (1,2)
  EXPECT_EQ(r.rows[2][2].AsInt(), 41);  // (2,1)
}

TEST_F(SqlEdgeTest, GroupByOrderByAggregate) {
  Q("CREATE TABLE t (k TEXT, v INT)");
  Q("INSERT INTO t VALUES ('a', 1), ('b', 10), ('a', 2), ('c', 5)");
  ResultSet r = Q("SELECT k FROM t GROUP BY k ORDER BY SUM(v) DESC");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsText(), "b");   // 10
  EXPECT_EQ(r.rows[1][0].AsText(), "c");   // 5
  EXPECT_EQ(r.rows[2][0].AsText(), "a");   // 3
}

TEST_F(SqlEdgeTest, InAndBetween) {
  Q("CREATE TABLE t (v INT)");
  Q("INSERT INTO t VALUES (1), (2), (3), (4), (5), (6)");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE v IN (2, 4, 9)").AsInt(), 2);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE v NOT IN (2, 4)").AsInt(), 4);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE v BETWEEN 2 AND 4").AsInt(),
            3);
  EXPECT_EQ(
      Scalar("SELECT COUNT(*) FROM t WHERE v NOT BETWEEN 2 AND 4").AsInt(),
      3);
  EXPECT_EQ(Scalar("SELECT 'b' IN ('a', 'b')").AsInt(), 1);
}

TEST_F(SqlEdgeTest, GroupedJoin) {
  Q("CREATE TABLE orders (id INTEGER PRIMARY KEY, cust INT)");
  Q("CREATE TABLE lines (oid INT, amount INT)");
  Q("INSERT INTO orders VALUES (1, 7), (2, 7), (3, 9)");
  Q("INSERT INTO lines VALUES (1, 10), (1, 20), (2, 5), (3, 100)");
  ResultSet r = Q(
      "SELECT o.cust, SUM(l.amount) FROM orders o JOIN lines l "
      "ON l.oid = o.id GROUP BY o.cust ORDER BY o.cust");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 7);
  EXPECT_EQ(r.rows[0][1].AsInt(), 35);
  EXPECT_EQ(r.rows[1][0].AsInt(), 9);
  EXPECT_EQ(r.rows[1][1].AsInt(), 100);
}

TEST_F(SqlEdgeTest, ConcatAndTextCoercion) {
  EXPECT_EQ(Scalar("SELECT 'n=' || 42").AsText(), "n=42");
  EXPECT_EQ(Scalar("SELECT LENGTH(1000)").AsInt(), 4);
}

// --- name resolution -------------------------------------------------------
// The executor binds every name once per statement, by these rules.

TEST_F(SqlEdgeTest, UnqualifiedNameIsTheFirstSourceWithIt) {
  Q("CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT, only_p INT)");
  Q("CREATE TABLE q (id INTEGER PRIMARY KEY, v TEXT, only_q INT)");
  Q("INSERT INTO p VALUES (1, 'p1', 11)");
  Q("INSERT INTO q VALUES (1, 'q1', 21)");
  ResultSet r = Q("SELECT v, only_q, only_p FROM p JOIN q ON p.id = q.id");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "p1");
  EXPECT_EQ(r.rows[0][1].AsInt(), 21);
  EXPECT_EQ(r.rows[0][2].AsInt(), 11);
  EXPECT_EQ(Q("SELECT v FROM q JOIN p ON p.id = q.id").rows[0][0].AsText(),
            "q1");
}

TEST_F(SqlEdgeTest, UnqualifiedNameBindsOnlyTheSourceItNames) {
  // `v` is q's: an index on p's v must not narrow p's scan.
  Q("CREATE TABLE q (id INTEGER PRIMARY KEY, v TEXT)");
  Q("CREATE TABLE p (id INTEGER PRIMARY KEY, v TEXT)");
  Q("CREATE INDEX idx_pv ON p (v)");
  Q("INSERT INTO q VALUES (1, 'x'), (2, 'y')");
  Q("INSERT INTO p VALUES (1, 'x'), (2, 'y')");
  ResultSet r = Q("SELECT q.id, p.id FROM q, p WHERE v = 'x' ORDER BY p.id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[0][1].AsInt(), 1);
  EXPECT_EQ(r.rows[1][0].AsInt(), 1);
  EXPECT_EQ(r.rows[1][1].AsInt(), 2);
}

TEST_F(SqlEdgeTest, SelfJoinAliases) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)");
  Q("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  ResultSet r = Q(
      "SELECT a.v, b.v FROM t a JOIN t b ON b.id = a.id + 1 ORDER BY a.id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsText(), "a");
  EXPECT_EQ(r.rows[0][1].AsText(), "b");
  EXPECT_EQ(r.rows[1][0].AsText(), "b");
  EXPECT_EQ(r.rows[1][1].AsText(), "c");
  // a is scanned; b is one rowid lookup per a row, two of which hit.
  EXPECT_EQ(r.rows_scanned, 5u);
}

TEST_F(SqlEdgeTest, RowidAndIntegerPrimaryKeyAlias) {
  Q("CREATE TABLE r (k INTEGER PRIMARY KEY, v TEXT)");
  Q("INSERT INTO r VALUES (5, 'five'), (7, 'seven')");
  ResultSet r = Q("SELECT rowid, k, ROWID, r.rowid, r.k FROM r WHERE k = 7");
  ASSERT_EQ(r.rows.size(), 1u);
  for (const Value& v : r.rows[0]) EXPECT_EQ(v.AsInt(), 7);
  EXPECT_EQ(r.rows_scanned, 1u);  // a rowid lookup, not a scan
  r = Q("SELECT v FROM r WHERE rowid = 5");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "five");
  EXPECT_EQ(r.rows_scanned, 1u);

  Q("CREATE TABLE n (v TEXT)");
  Q("INSERT INTO n VALUES ('a'), ('b')");
  r = Q("SELECT rowid, v FROM n WHERE rowid = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[0][1].AsText(), "b");
}

TEST_F(SqlEdgeTest, UnknownColumnFailsOnlyWhenEvaluated) {
  Q("CREATE TABLE e (x INT)");
  // No row, so nothing reads the name.
  EXPECT_TRUE(Q("SELECT nosuch FROM e").rows.empty());
  EXPECT_TRUE(Q("SELECT x FROM e WHERE e.nosuch = 1").rows.empty());
  Q("INSERT INTO e VALUES (1)");
  Status s = db_->Exec("SELECT nosuch FROM e").status();
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such column: nosuch");
  s = db_->Exec("SELECT x FROM e WHERE e.nosuch = 1").status();
  EXPECT_EQ(s.message(), "no such column: e.nosuch");
  s = db_->Exec("SELECT zz.x FROM e").status();
  EXPECT_EQ(s.message(), "no such column: zz.x");
  s = db_->Exec("UPDATE e SET x = nosuch + 1").status();
  EXPECT_EQ(s.message(), "no such column: nosuch");
}

TEST_F(SqlEdgeTest, OnValueNamingALaterSourceIsNoBinding) {
  // For a, `b.id = a.x` offers a.x = b.id, but b has no row yet when a is
  // scanned: a must be scanned whole, not looked up by idx_ax.
  Q("CREATE TABLE a (id INTEGER PRIMARY KEY, x INT)");
  Q("CREATE TABLE b (id INTEGER PRIMARY KEY, y INT)");
  Q("CREATE INDEX idx_ax ON a (x)");
  Q("INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)");
  Q("INSERT INTO b VALUES (10, 100), (20, 200), (40, 400)");
  ResultSet r =
      Q("SELECT a.id, b.y FROM a JOIN b ON b.id = a.x ORDER BY a.id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[0][1].AsInt(), 100);
  EXPECT_EQ(r.rows[1][0].AsInt(), 2);
  EXPECT_EQ(r.rows[1][1].AsInt(), 200);
  // Three rows of a, then one rowid lookup of b per row, two of which hit.
  EXPECT_EQ(r.rows_scanned, 5u);
}

// --- BEGIN modifiers ---------------------------------------------------------

TEST_F(SqlEdgeTest, BeginReadonlyRejectsWrites) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)");
  Q("INSERT INTO t VALUES (1, 10), (2, 20)");

  Q("BEGIN READONLY");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t").AsInt(), 2);
  Status s = db_->Exec("INSERT INTO t VALUES (3, 30)").status();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("read-only transaction"), std::string::npos);
  // The rejected write must not have poisoned the read transaction.
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t").AsInt(), 2);
  Q("COMMIT");

  // Writes work again once the read transaction ends.
  Q("INSERT INTO t VALUES (3, 30)");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t").AsInt(), 3);
}

TEST_F(SqlEdgeTest, BeginUnknownModifierIsParseError) {
  Status s = db_->Exec("BEGIN BOGUS").status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("unknown BEGIN modifier 'BOGUS'"),
            std::string::npos);
  // The failed parse must not have opened a transaction.
  Q("BEGIN");
  Q("COMMIT");
  // Known modifiers all still parse.
  Q("BEGIN DEFERRED");
  Q("COMMIT");
  Q("BEGIN TRANSACTION");
  Q("COMMIT");
}

}  // namespace
}  // namespace xftl::sql
