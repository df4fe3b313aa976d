#include "sql/database.h"

namespace xftl::sql {

StatusOr<std::unique_ptr<Database>> Database::Open(fs::ExtFs* fs,
                                                   const std::string& path,
                                                   const DbOptions& options) {
  PagerOptions pager_options;
  pager_options.journal_mode = options.journal_mode;
  pager_options.cache_pages = options.cache_pages;
  pager_options.wal_autocheckpoint = options.wal_autocheckpoint;
  pager_options.read_only = options.read_only;
  XFTL_ASSIGN_OR_RETURN(auto pager, Pager::Open(fs, path, pager_options));
  auto db = std::unique_ptr<Database>(
      new Database(std::move(pager), options));

  // Bootstrap the master table on a fresh database.
  XFTL_ASSIGN_OR_RETURN(uint32_t master, db->pager_->GetHeaderField(0));
  if (master == 0 && !options.read_only) {
    XFTL_RETURN_IF_ERROR(db->pager_->Begin());
    Status s = db->schema_->value.EnsureMaster();
    if (!s.ok()) {
      (void)db->pager_->Rollback();
      return s;
    }
    XFTL_RETURN_IF_ERROR(db->pager_->Commit());
  }
  XFTL_RETURN_IF_ERROR(db->schema_->value.Load());
  return db;
}

Status Database::Close() {
  if (pager_ == nullptr) return Status::OK();
  if (pager_->in_transaction()) {
    XFTL_RETURN_IF_ERROR(pager_->Rollback());
  }
  Status s = pager_->Close();
  pager_ = nullptr;
  return s;
}

Status Database::Begin() { return pager_->Begin(); }

Status Database::BeginReadOnly() {
  XFTL_RETURN_IF_ERROR(pager_->BeginReadOnly());
  // The catalog may have moved since this connection last loaded it (a
  // writer connection's commits); reload it through the snapshot so table
  // roots match the pages the reader will see.
  Status s = schema_->value.Load();
  if (!s.ok()) {
    (void)pager_->Rollback();
    return s;
  }
  return Status::OK();
}

Status Database::Commit() {
  const bool was_read = pager_->in_read_transaction();
  XFTL_RETURN_IF_ERROR(pager_->Commit());
  // Leaving a read transaction: drop the snapshot's catalog for the live one.
  if (was_read) return schema_->value.Load();
  return Status::OK();
}

Status Database::Rollback() {
  XFTL_RETURN_IF_ERROR(pager_->Rollback());
  // Dropped dirty pages may include catalog pages; reload.
  return schema_->value.Load();
}

bool Database::IsWriteStatement(const Statement& stmt) {
  return std::holds_alternative<CreateTableStmt>(stmt) ||
         std::holds_alternative<CreateIndexStmt>(stmt) ||
         std::holds_alternative<DropStmt>(stmt) ||
         std::holds_alternative<InsertStmt>(stmt) ||
         std::holds_alternative<UpdateStmt>(stmt) ||
         std::holds_alternative<DeleteStmt>(stmt);
}

StatusOr<ResultSet> Database::ExecOne(const Statement& stmt) {
  if (const auto* begin = std::get_if<BeginStmt>(&stmt)) {
    XFTL_RETURN_IF_ERROR(begin->read_only ? BeginReadOnly() : Begin());
    return ResultSet{};
  }
  if (std::holds_alternative<CommitStmt>(stmt)) {
    XFTL_RETURN_IF_ERROR(Commit());
    return ResultSet{};
  }
  if (std::holds_alternative<RollbackStmt>(stmt)) {
    XFTL_RETURN_IF_ERROR(Rollback());
    return ResultSet{};
  }
  if (const auto* pragma = std::get_if<PragmaStmt>(&stmt)) {
    return RunPragma(*pragma);
  }

  if (pager_->in_read_transaction() && IsWriteStatement(stmt)) {
    return Status::FailedPrecondition(
        "cannot write inside a read-only transaction");
  }
  bool autocommit = !pager_->in_transaction() && IsWriteStatement(stmt);
  if (autocommit) XFTL_RETURN_IF_ERROR(pager_->Begin());
  auto result = ExecuteStatement(pager_.get(), &schema_->value, stmt);
  // Host CPU time for parse/plan/row processing.
  SimNanos cpu = options_.cpu_per_statement;
  if (result.ok()) cpu += result.value().rows_scanned * options_.cpu_per_row;
  pager_->fs()->clock()->Advance(cpu);
  if (autocommit) {
    if (result.ok()) {
      XFTL_RETURN_IF_ERROR(pager_->Commit());
    } else {
      (void)Rollback();
    }
  }
  return result;
}

StatusOr<ResultSet> Database::Exec(const std::string& sql) {
  XFTL_ASSIGN_OR_RETURN(auto statements, ParseScript(sql));
  ResultSet last;
  for (const Statement& stmt : statements) {
    XFTL_ASSIGN_OR_RETURN(last, ExecOne(stmt));
  }
  return last;
}

StatusOr<ResultSet> Database::RunPragma(const PragmaStmt& stmt) {
  ResultSet result;
  if (stmt.name == "journal_mode") {
    // The journal mode is fixed at open time (it is the experimental knob of
    // this reproduction); the pragma reports it.
    result.columns = {"journal_mode"};
    result.rows.push_back({Value::Text(SqlJournalModeName(options_.journal_mode))});
    return result;
  }
  if (stmt.name == "wal_checkpoint") {
    XFTL_RETURN_IF_ERROR(pager_->Checkpoint());
    return result;
  }
  if (stmt.name == "page_count") {
    result.columns = {"page_count"};
    result.rows.push_back({Value::Int(pager_->page_count())});
    return result;
  }
  if (stmt.name == "page_size") {
    result.columns = {"page_size"};
    result.rows.push_back({Value::Int(pager_->page_size())});
    return result;
  }
  // Unknown pragmas are accepted and ignored, like SQLite.
  return result;
}

}  // namespace xftl::sql
