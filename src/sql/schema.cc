#include "sql/schema.h"

#include <algorithm>
#include <cctype>

#include "sql/parser.h"
#include "sql/record.h"

namespace xftl::sql {

namespace {
constexpr int kMasterRootField = 0;  // pager header slot
}  // namespace

int TableInfo::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name.size() == name.size() &&
        std::equal(name.begin(), name.end(), columns[i].name.begin(),
                   [](char a, char b) {
                     return std::tolower(a) == std::tolower(b);
                   })) {
      return int(i);
    }
  }
  return -1;
}

std::string Schema::Lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](char c) { return char(std::tolower(c)); });
  return out;
}

StatusOr<Pgno> Schema::MasterRoot() {
  XFTL_ASSIGN_OR_RETURN(uint32_t root, pager_->GetHeaderField(kMasterRootField));
  if (root == 0) return Status::FailedPrecondition("no master table");
  return Pgno(root);
}

Status Schema::EnsureMaster() {
  XFTL_ASSIGN_OR_RETURN(uint32_t root, pager_->GetHeaderField(kMasterRootField));
  if (root != 0) return Status::OK();
  XFTL_ASSIGN_OR_RETURN(Pgno master, BTree::Create(pager_, /*is_index=*/false));
  return pager_->SetHeaderField(kMasterRootField, master);
}

Status Schema::Load() {
  tables_.clear();
  indexes_.clear();
  auto root_or = MasterRoot();
  if (!root_or.ok()) return Status::OK();  // empty database
  BTree master(pager_, root_or.value(), /*is_index=*/false);
  auto cursor = master.NewCursor();
  XFTL_RETURN_IF_ERROR(cursor.First());
  struct PendingIndex {
    std::string name, table, columns;
    Pgno root;
  };
  std::vector<PendingIndex> pending;
  while (cursor.valid()) {
    XFTL_ASSIGN_OR_RETURN(auto payload, cursor.Payload());
    XFTL_ASSIGN_OR_RETURN(Row row, DecodeRecord(payload));
    if (row.size() != 5) return Status::Corruption("bad master row");
    const std::string type = row[0].AsText();
    if (type == "table") {
      XFTL_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(row[4].AsText()));
      auto* create = std::get_if<CreateTableStmt>(&stmt);
      if (create == nullptr) return Status::Corruption("bad master sql");
      TableInfo info;
      info.name = row[1].AsText();
      info.root = Pgno(row[3].AsInt());
      info.columns = std::move(create->columns);
      int pk_count = 0, pk_idx = -1;
      for (size_t i = 0; i < info.columns.size(); ++i) {
        if (info.columns[i].primary_key) {
          pk_count++;
          pk_idx = int(i);
        }
      }
      if (pk_count == 1 &&
          Lower(info.columns[pk_idx].type).find("int") != std::string::npos) {
        info.rowid_alias = pk_idx;
      }
      tables_[Lower(info.name)] = std::move(info);
    } else if (type == "index") {
      pending.push_back({row[1].AsText(), row[2].AsText(), row[4].AsText(),
                         Pgno(row[3].AsInt())});
    }
    XFTL_RETURN_IF_ERROR(cursor.Next());
  }
  for (const auto& p : pending) {
    auto it = tables_.find(Lower(p.table));
    if (it == tables_.end()) return Status::Corruption("index without table");
    IndexInfo idx;
    idx.name = p.name;
    idx.table = it->second.name;
    idx.root = p.root;
    // The stored "sql" for an index is the comma-joined column list.
    std::string col;
    for (char c : p.columns + ",") {
      if (c == ',') {
        int pos = it->second.ColumnIndex(col);
        if (pos < 0) return Status::Corruption("index on unknown column");
        idx.columns.push_back(pos);
        col.clear();
      } else {
        col += c;
      }
    }
    indexes_[Lower(idx.name)] = std::move(idx);
  }
  for (const auto& [name, idx] : indexes_) {
    tables_.at(Lower(idx.table)).indexes.push_back(&idx);
  }
  return Status::OK();
}

const TableInfo* Schema::FindTable(const std::string& name) const {
  auto it = tables_.find(Lower(name));
  return it == tables_.end() ? nullptr : &it->second;
}

const IndexInfo* Schema::FindIndex(const std::string& name) const {
  auto it = indexes_.find(Lower(name));
  return it == indexes_.end() ? nullptr : &it->second;
}

std::vector<std::string> Schema::TableNames() const {
  std::vector<std::string> out;
  for (const auto& [key, info] : tables_) out.push_back(info.name);
  return out;
}

Status Schema::InsertMasterRow(const std::string& type,
                               const std::string& name,
                               const std::string& tbl_name, Pgno root,
                               const std::string& sql) {
  XFTL_ASSIGN_OR_RETURN(Pgno master_root, MasterRoot());
  BTree master(pager_, master_root, /*is_index=*/false);
  XFTL_ASSIGN_OR_RETURN(int64_t max_rowid, master.MaxRowid());
  Row row = {Value::Text(type), Value::Text(name), Value::Text(tbl_name),
             Value::Int(root), Value::Text(sql)};
  return master.Insert(max_rowid + 1, EncodeRecord(row));
}

Status Schema::DeleteMasterRowsFor(const std::string& name) {
  XFTL_ASSIGN_OR_RETURN(Pgno master_root, MasterRoot());
  BTree master(pager_, master_root, /*is_index=*/false);
  std::string lower = Lower(name);
  std::vector<int64_t> victims;
  auto cursor = master.NewCursor();
  XFTL_RETURN_IF_ERROR(cursor.First());
  while (cursor.valid()) {
    XFTL_ASSIGN_OR_RETURN(auto payload, cursor.Payload());
    XFTL_ASSIGN_OR_RETURN(Row row, DecodeRecord(payload));
    if (Lower(row[1].AsText()) == lower) victims.push_back(cursor.rowid());
    XFTL_RETURN_IF_ERROR(cursor.Next());
  }
  for (int64_t rowid : victims) XFTL_RETURN_IF_ERROR(master.Delete(rowid));
  return Status::OK();
}

Status Schema::CreateTable(const CreateTableStmt& stmt) {
  if (FindTable(stmt.name) != nullptr) {
    if (stmt.if_not_exists) return Status::OK();
    return Status::AlreadyExists("table " + stmt.name);
  }
  if (stmt.columns.empty()) {
    return Status::InvalidArgument("table needs at least one column");
  }
  XFTL_RETURN_IF_ERROR(EnsureMaster());
  XFTL_ASSIGN_OR_RETURN(Pgno root, BTree::Create(pager_, /*is_index=*/false));
  // Canonical CREATE text, reparsed at load time.
  std::string sql = "CREATE TABLE " + stmt.name + " (";
  for (size_t i = 0; i < stmt.columns.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += stmt.columns[i].name;
    if (!stmt.columns[i].type.empty()) sql += " " + stmt.columns[i].type;
    if (stmt.columns[i].primary_key) sql += " PRIMARY KEY";
  }
  sql += ")";
  XFTL_RETURN_IF_ERROR(
      InsertMasterRow("table", stmt.name, stmt.name, root, sql));
  return Load();
}

Status Schema::CreateIndex(const CreateIndexStmt& stmt,
                           uint64_t* backfilled_rows) {
  if (FindIndex(stmt.name) != nullptr) {
    if (stmt.if_not_exists) return Status::OK();
    return Status::AlreadyExists("index " + stmt.name);
  }
  const TableInfo* table = FindTable(stmt.table);
  if (table == nullptr) return Status::NotFound("table " + stmt.table);
  std::vector<int> positions;
  std::string cols;
  for (const std::string& col : stmt.columns) {
    int pos = table->ColumnIndex(col);
    if (pos < 0) return Status::NotFound("column " + col);
    positions.push_back(pos);
    if (!cols.empty()) cols += ",";
    cols += table->columns[pos].name;
  }
  XFTL_RETURN_IF_ERROR(EnsureMaster());
  XFTL_ASSIGN_OR_RETURN(Pgno root, BTree::Create(pager_, /*is_index=*/true));
  XFTL_RETURN_IF_ERROR(
      InsertMasterRow("index", stmt.name, table->name, root, cols));

  // Backfill from the existing rows.
  BTree data(pager_, table->root, /*is_index=*/false);
  BTree index(pager_, root, /*is_index=*/true);
  uint64_t count = 0;
  auto cursor = data.NewCursor();
  XFTL_RETURN_IF_ERROR(cursor.First());
  while (cursor.valid()) {
    XFTL_ASSIGN_OR_RETURN(auto payload, cursor.Payload());
    XFTL_ASSIGN_OR_RETURN(Row row, DecodeRecord(payload));
    Row key;
    for (int pos : positions) {
      key.push_back(pos < int(row.size()) ? row[pos] : Value::Null());
    }
    key.push_back(Value::Int(cursor.rowid()));
    XFTL_RETURN_IF_ERROR(index.InsertKey(EncodeRecord(key)));
    count++;
    XFTL_RETURN_IF_ERROR(cursor.Next());
  }
  if (backfilled_rows != nullptr) *backfilled_rows = count;
  return Load();
}

Status Schema::DropTable(const std::string& name) {
  const TableInfo* table = FindTable(name);
  if (table == nullptr) return Status::NotFound("table " + name);
  // Drop dependent indexes first.
  for (const IndexInfo* idx : table->indexes) {
    XFTL_RETURN_IF_ERROR(BTree::Drop(pager_, idx->root));
    XFTL_RETURN_IF_ERROR(DeleteMasterRowsFor(idx->name));
  }
  XFTL_RETURN_IF_ERROR(BTree::Drop(pager_, table->root));
  XFTL_RETURN_IF_ERROR(DeleteMasterRowsFor(name));
  return Load();
}

Status Schema::DropIndex(const std::string& name) {
  const IndexInfo* idx = FindIndex(name);
  if (idx == nullptr) return Status::NotFound("index " + name);
  XFTL_RETURN_IF_ERROR(BTree::Drop(pager_, idx->root));
  XFTL_RETURN_IF_ERROR(DeleteMasterRowsFor(name));
  return Load();
}

}  // namespace xftl::sql
