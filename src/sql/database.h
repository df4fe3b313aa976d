// Database: the MiniSQLite top-level handle - parse+execute SQL with
// SQLite-style auto-commit, explicit transactions, schema catalog, and the
// three journal modes of the paper.
#ifndef XFTL_SQL_DATABASE_H_
#define XFTL_SQL_DATABASE_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "fs/ext_fs.h"
#include "sql/executor.h"
#include "sql/pager.h"
#include "sql/parser.h"
#include "sql/schema.h"

namespace xftl::sql {

struct DbOptions {
  SqlJournalMode journal_mode = SqlJournalMode::kDelete;
  uint32_t cache_pages = 256;
  uint32_t wal_autocheckpoint = 1000;
  // Read-only connection onto another connection's live database file (see
  // PagerOptions::read_only): only BEGIN READONLY transactions run.
  bool read_only = false;
  // Host CPU-time model: parsing/planning cost per statement, charged to the
  // simulation clock with kCpuPerRow (database.cc) per row visited.
  // Calibrated so cache-resident read workloads land near SQLite's
  // throughput on the paper's host (Intel i7-860).
  SimNanos cpu_per_statement = Micros(45);
};

class Database {
 public:
  // Opens (creating if needed) the database at `path` inside `fs`, running
  // mode-appropriate crash recovery.
  static StatusOr<std::unique_ptr<Database>> Open(fs::ExtFs* fs,
                                                  const std::string& path,
                                                  const DbOptions& options);
  ~Database() { (void)Close(); }

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Status Close();

  // Crash simulation: drops all in-memory state without rolling back or
  // flushing anything, as if the process were killed. The on-device state is
  // whatever has reached the device so far.
  void Abandon() { pager_.reset(); }

  // Executes a SQL script (one or more ';'-separated statements). Write
  // statements outside an explicit transaction auto-commit. Returns the
  // result of the last statement.
  StatusOr<ResultSet> Exec(const std::string& sql);

  // Convenience: run a query and return its rows.
  StatusOr<ResultSet> Query(const std::string& sql) { return Exec(sql); }

  Status Begin();
  // BEGIN READONLY: a pinned-snapshot read transaction (see
  // Pager::BeginReadOnly). The schema is reloaded through the snapshot so
  // the reader sees the catalog as of the pin.
  Status BeginReadOnly();
  Status Commit();
  Status Rollback();
  bool in_transaction() const { return pager_->in_transaction(); }
  bool in_read_transaction() const { return pager_->in_read_transaction(); }

  // Forces a WAL checkpoint (no-op in other modes).
  Status Checkpoint() { return pager_->Checkpoint(); }

  Pager* pager() { return pager_.get(); }
  Schema* schema() { return &schema_->value; }
  SqlJournalMode journal_mode() const { return options_.journal_mode; }
  // Host-side recovery time spent when this database was opened (Table 5).
  SimNanos last_recovery_nanos() const {
    return pager_->stats().last_recovery_nanos;
  }

 private:
  struct SchemaHolder {
    explicit SchemaHolder(Pager* pager) : value(pager) {}
    Schema value;
  };

  Database(std::unique_ptr<Pager> pager, const DbOptions& options)
      : options_(options), pager_(std::move(pager)) {
    schema_ = std::make_unique<SchemaHolder>(pager_.get());
  }

  StatusOr<ResultSet> ExecOne(const Statement& stmt);
  StatusOr<ResultSet> RunPragma(const PragmaStmt& stmt);
  static bool IsWriteStatement(const Statement& stmt);

  const DbOptions options_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<SchemaHolder> schema_;
};

}  // namespace xftl::sql

#endif  // XFTL_SQL_DATABASE_H_
