// Schema catalog: a master table (like sqlite_master) rooted at a page
// recorded in the pager's header, holding one row per table and index:
// (type, name, tbl_name, rootpage, sql). The in-memory catalog is rebuilt
// from it at open and after DDL.
#ifndef XFTL_SQL_SCHEMA_H_
#define XFTL_SQL_SCHEMA_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/btree.h"
#include "sql/pager.h"

namespace xftl::sql {

struct IndexInfo {
  std::string name;
  std::string table;
  Pgno root = kNoPgno;
  std::vector<int> columns;  // positions in the table's column list
};

struct TableInfo {
  std::string name;
  Pgno root = kNoPgno;
  std::vector<ColumnDef> columns;
  // Index of the INTEGER PRIMARY KEY column aliasing the rowid, or -1.
  int rowid_alias = -1;
  // The table's indexes, in the catalog's (lower-cased name) order.
  std::vector<const IndexInfo*> indexes;

  int ColumnIndex(const std::string& name) const;
};

class Schema {
 public:
  explicit Schema(Pager* pager) : pager_(pager) {}
  // TableInfo::indexes points into this catalog's own index map.
  Schema(const Schema&) = delete;
  Schema& operator=(const Schema&) = delete;

  // Creates the master table on first open (requires an open transaction
  // when it does create one).
  Status EnsureMaster();
  // (Re)loads the catalog from the master table.
  Status Load();

  const TableInfo* FindTable(const std::string& name) const;
  const IndexInfo* FindIndex(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  // DDL; all require an open transaction.
  Status CreateTable(const CreateTableStmt& stmt);
  Status CreateIndex(const CreateIndexStmt& stmt,
                     uint64_t* backfilled_rows = nullptr);
  Status DropTable(const std::string& name);
  Status DropIndex(const std::string& name);

 private:
  static std::string Lower(const std::string& s);
  StatusOr<Pgno> MasterRoot();
  Status InsertMasterRow(const std::string& type, const std::string& name,
                         const std::string& tbl_name, Pgno root,
                         const std::string& sql);
  Status DeleteMasterRowsFor(const std::string& name);

  Pager* const pager_;
  std::map<std::string, TableInfo> tables_;   // key: lower-cased name
  std::map<std::string, IndexInfo> indexes_;  // key: lower-cased name
};

}  // namespace xftl::sql

#endif  // XFTL_SQL_SCHEMA_H_
