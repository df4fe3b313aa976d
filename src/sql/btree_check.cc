#include "sql/btree_check.h"

#include <optional>
#include <set>
#include <vector>

#include "common/coding.h"
#include "sql/btree.h"
#include "sql/record.h"

namespace xftl::sql {

namespace {

// Independent decode of the on-page format (deliberately not sharing code
// with btree.cc, so the checker can catch encoder bugs).
constexpr uint8_t kTableLeaf = 1;
constexpr uint8_t kTableInterior = 2;
constexpr uint8_t kIndexLeaf = 3;
constexpr uint8_t kIndexInterior = 4;
constexpr uint8_t kOverflow = 5;
constexpr size_t kPageHeader = 9;
constexpr size_t kOverflowHeader = 12;

struct RawCell {
  int64_t rowid = 0;
  Pgno child = kNoPgno;
  uint32_t total = 0;
  Pgno overflow = kNoPgno;
  std::vector<uint8_t> local;
};

struct RawPage {
  bool leaf = false;
  Pgno right_child = kNoPgno;
  std::vector<RawCell> cells;
};

Status Corrupt(Pgno pgno, const std::string& what) {
  return Status::Corruption("btree page " + std::to_string(pgno) + ": " +
                            what);
}

StatusOr<RawPage> DecodePage(Pager* pager, Pgno pgno, bool is_index) {
  XFTL_ASSIGN_OR_RETURN(PageRef ref, pager->Get(pgno));
  const uint8_t* p = ref.data();
  const uint32_t page_size = pager->page_size();
  RawPage out;
  uint8_t type = p[0];
  if (is_index && type != kIndexLeaf && type != kIndexInterior) {
    return Corrupt(pgno, "bad index page type " + std::to_string(type));
  }
  if (!is_index && type != kTableLeaf && type != kTableInterior) {
    return Corrupt(pgno, "bad table page type " + std::to_string(type));
  }
  out.leaf = type == kTableLeaf || type == kIndexLeaf;
  uint16_t ncells = DecodeFixed16(p + 1);
  out.right_child = DecodeFixed32(p + 3);
  size_t off = kPageHeader;
  for (uint16_t i = 0; i < ncells; ++i) {
    RawCell cell;
    if (!out.leaf) {
      if (off + 4 > page_size) return Corrupt(pgno, "truncated cell");
      cell.child = DecodeFixed32(p + off);
      off += 4;
    }
    if (!is_index) {
      if (off + 8 > page_size) return Corrupt(pgno, "truncated cell");
      cell.rowid = int64_t(DecodeFixed64(p + off));
      off += 8;
    }
    if (is_index || out.leaf) {
      if (off + 10 > page_size) return Corrupt(pgno, "truncated cell");
      cell.total = DecodeFixed32(p + off);
      uint16_t local = DecodeFixed16(p + off + 4);
      cell.overflow = DecodeFixed32(p + off + 6);
      off += 10;
      if (off + local > page_size) return Corrupt(pgno, "payload overrun");
      cell.local.assign(p + off, p + off + local);
      off += local;
      if (cell.overflow == kNoPgno && cell.local.size() != cell.total) {
        return Corrupt(pgno, "local payload size mismatch");
      }
      if (cell.overflow != kNoPgno && cell.local.size() >= cell.total) {
        return Corrupt(pgno, "overflow chain but payload fits");
      }
    }
    out.cells.push_back(std::move(cell));
  }
  // The form every writer leaves: zero header pad and zero bytes after the
  // last cell.
  if (p[7] != 0 || p[8] != 0) return Corrupt(pgno, "header pad not zero");
  for (size_t i = off; i < page_size; ++i) {
    if (p[i] != 0) return Corrupt(pgno, "bytes after the last cell not zero");
  }
  return out;
}

class Checker {
 public:
  Checker(Pager* pager, bool is_index) : pager_(pager), is_index_(is_index) {}

  StatusOr<BTreeCheckReport> Run(Pgno root) {
    XFTL_ASSIGN_OR_RETURN(int depth, Walk(root, nullptr, nullptr, 0));
    report_.depth = uint32_t(depth);
    return report_;
  }

 private:
  // Compares two keys (rowid for table trees, encoded records for indexes).
  int CompareKeys(const RawCell& a, const RawCell& b) const {
    if (is_index_) {
      return CompareEncodedRecords(a.local.data(), a.local.size(),
                                   b.local.data(), b.local.size());
    }
    return a.rowid < b.rowid ? -1 : (a.rowid > b.rowid ? 1 : 0);
  }

  Status CheckOverflowChain(Pgno pgno, const RawCell& cell) {
    uint32_t remaining = cell.total - uint32_t(cell.local.size());
    Pgno p = cell.overflow;
    int hops = 0;
    while (p != kNoPgno) {
      if (++hops > 100000) return Corrupt(pgno, "overflow cycle");
      if (!visited_.insert(p).second) {
        return Corrupt(p, "overflow page referenced twice");
      }
      XFTL_ASSIGN_OR_RETURN(PageRef ref, pager_->Get(p));
      if (ref.data()[0] != kOverflow) {
        return Corrupt(p, "expected overflow page");
      }
      uint32_t len = DecodeFixed32(ref.data() + 8);
      if (len > pager_->page_size() - kOverflowHeader || len > remaining) {
        return Corrupt(p, "overflow length out of range");
      }
      remaining -= len;
      report_.overflow_pages++;
      p = DecodeFixed32(ref.data() + 4);
    }
    if (remaining != 0) return Corrupt(pgno, "overflow chain short");
    return Status::OK();
  }

  // Verifies the subtree; `lo`/`hi` bound its keys (exclusive low,
  // inclusive high), null = unbounded. Returns the subtree height.
  StatusOr<int> Walk(Pgno pgno, const RawCell* lo, const RawCell* hi,
                     int depth) {
    if (depth > 64) return Corrupt(pgno, "depth exceeds sanity bound");
    if (!visited_.insert(pgno).second) {
      return Corrupt(pgno, "page referenced twice (cycle)");
    }
    report_.pages++;
    XFTL_ASSIGN_OR_RETURN(RawPage page, DecodePage(pager_, pgno, is_index_));

    // Key ordering within the page and against the subtree bounds.
    for (size_t i = 0; i < page.cells.size(); ++i) {
      if (i > 0 && CompareKeys(page.cells[i - 1], page.cells[i]) >= 0) {
        return Corrupt(pgno, "keys out of order");
      }
      if (lo != nullptr && CompareKeys(page.cells[i], *lo) <= 0) {
        return Corrupt(pgno, "key below subtree bound");
      }
      if (hi != nullptr && CompareKeys(page.cells[i], *hi) > 0) {
        return Corrupt(pgno, "key above subtree bound");
      }
    }

    if (page.leaf) {
      report_.cells += page.cells.size();
      for (const RawCell& cell : page.cells) {
        if (cell.overflow != kNoPgno) {
          XFTL_RETURN_IF_ERROR(CheckOverflowChain(pgno, cell));
        }
      }
      return 1;
    }

    if (page.right_child == kNoPgno) {
      return Corrupt(pgno, "interior page without right child");
    }
    int height = -1;
    const RawCell* child_lo = lo;
    for (const RawCell& cell : page.cells) {
      XFTL_ASSIGN_OR_RETURN(int h, Walk(cell.child, child_lo, &cell,
                                        depth + 1));
      if (height >= 0 && h != height) {
        return Corrupt(pgno, "uneven leaf depth");
      }
      height = h;
      child_lo = &cell;
    }
    XFTL_ASSIGN_OR_RETURN(int h, Walk(page.right_child, child_lo, hi,
                                      depth + 1));
    if (height >= 0 && h != height) {
      return Corrupt(pgno, "uneven leaf depth");
    }
    return h + 1;
  }

  Pager* const pager_;
  const bool is_index_;
  std::set<Pgno> visited_;
  BTreeCheckReport report_;
};

}  // namespace

StatusOr<BTreeCheckReport> CheckBTree(Pager* pager, Pgno root, bool is_index) {
  Checker checker(pager, is_index);
  return checker.Run(root);
}

StatusOr<BTreeCheckReport> CheckAllTrees(Pager* pager) {
  BTreeCheckReport total;
  auto add = [&total](const BTreeCheckReport& r) {
    total.pages += r.pages;
    total.cells += r.cells;
    total.overflow_pages += r.overflow_pages;
    total.depth = std::max(total.depth, r.depth);
  };
  XFTL_ASSIGN_OR_RETURN(uint32_t master, pager->GetHeaderField(0));
  if (master == 0) return total;  // empty database
  XFTL_ASSIGN_OR_RETURN(auto mreport,
                        CheckBTree(pager, Pgno(master), /*is_index=*/false));
  add(mreport);

  BTree master_tree(pager, Pgno(master), /*is_index=*/false);
  auto cursor = master_tree.NewCursor();
  XFTL_RETURN_IF_ERROR(cursor.First());
  while (cursor.valid()) {
    XFTL_ASSIGN_OR_RETURN(auto payload, cursor.Payload());
    XFTL_ASSIGN_OR_RETURN(Row row, DecodeRecord(payload));
    if (row.size() == 5) {
      bool is_index = row[0].AsText() == "index";
      XFTL_ASSIGN_OR_RETURN(
          auto report, CheckBTree(pager, Pgno(row[3].AsInt()), is_index));
      add(report);
    }
    XFTL_RETURN_IF_ERROR(cursor.Next());
  }
  return total;
}

}  // namespace xftl::sql
