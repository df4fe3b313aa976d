// Structural integrity checker for B+trees: uniform leaf depth, in-order
// keys, separator invariants, acyclicity, intact overflow chains, and zero
// bytes in each page's header pad and after its last cell. Used
// by tests after heavy churn and crash recovery, and available to
// applications as a consistency check (like SQLite's integrity_check
// pragma).
#ifndef XFTL_SQL_BTREE_CHECK_H_
#define XFTL_SQL_BTREE_CHECK_H_

#include <cstdint>

#include "common/status.h"
#include "sql/pager.h"

namespace xftl::sql {

struct BTreeCheckReport {
  uint32_t depth = 0;
  uint64_t pages = 0;
  uint64_t cells = 0;          // leaf entries
  uint64_t overflow_pages = 0;
};

// Verifies the tree rooted at `root`; returns Corruption with a description
// of the first violated invariant.
StatusOr<BTreeCheckReport> CheckBTree(Pager* pager, Pgno root, bool is_index);

// Runs CheckBTree over every table and index in the database's catalog
// (including the master table itself).
StatusOr<BTreeCheckReport> CheckAllTrees(Pager* pager);

}  // namespace xftl::sql

#endif  // XFTL_SQL_BTREE_CHECK_H_
