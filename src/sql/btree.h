// B+tree on pager pages, in the spirit of SQLite's btree layer.
//
// Two flavours share the implementation:
//  * table trees: rowid (int64) -> record payload, payload may spill into a
//    chain of overflow pages;
//  * index trees: the encoded key record IS the payload; keys must fit a
//    page's local-payload budget (our upper layers guarantee that).
//
// Interior pages hold separator cells {child, key}: the child subtree
// contains keys <= separator; the right_child pointer covers everything
// greater. The root page number never changes (a root split pushes its
// contents down), so catalog entries stay valid.
//
// Deletion is lazy: empty pages are unlinked and freed, but underfull pages
// are not rebalanced (a correct and common B+tree variant; SQLite's
// balance-on-delete is an optimization we do not reproduce).
//
// Cells are read where they lie in the pinned page: cursor steps, seeks and
// key compares copy nothing, and a leaf insert, replace or delete that fits
// shifts the page's cells in place. A page's cell list is decoded into owned
// Cells only when its shape changes: splits, the separator insert after a
// child split, and unlinking an emptied child.
//
// The page format has no cell-offset array, so a seek, insert or delete
// finds its slot through the frame's CellIndex (sql/pager.h): one
// bounds-checked walk of every cell on the first visit to a cached frame,
// then a binary search on every visit. The pager drops the index in
// MarkDirty, which every edit of a page goes through.
#ifndef XFTL_SQL_BTREE_H_
#define XFTL_SQL_BTREE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "sql/pager.h"
#include "sql/record.h"

namespace xftl::sql {

class BTree {
  // A key to locate: a rowid (table trees) or an encoded record (index
  // trees). Declared first so that Cursor can take one.
  struct Probe {
    int64_t rowid = 0;
    const std::vector<uint8_t>* key = nullptr;
  };

 public:
  // Allocates an empty leaf as the tree root.
  static StatusOr<Pgno> Create(Pager* pager, bool is_index);
  // Frees every page of the tree (including overflow chains).
  static Status Drop(Pager* pager, Pgno root);

  BTree(Pager* pager, Pgno root, bool is_index)
      : pager_(pager), root_(root), is_index_(is_index) {}

  Pgno root() const { return root_; }

  // --- table trees ----------------------------------------------------------
  // Inserts or replaces the record for `rowid`.
  Status Insert(int64_t rowid, const std::vector<uint8_t>& payload);
  Status Delete(int64_t rowid);  // NotFound if absent
  // Largest rowid in the tree (0 when empty).
  StatusOr<int64_t> MaxRowid();

  // --- index trees -----------------------------------------------------------
  Status InsertKey(const std::vector<uint8_t>& key);
  Status DeleteKey(const std::vector<uint8_t>& key);

  // --- cursor ----------------------------------------------------------------
  // Cursors are invalidated by any write to the tree.
  class Cursor {
   public:
    explicit Cursor(BTree* tree) : tree_(tree) {}

    Status First();
    // Positions at the first entry with rowid >= target (table trees).
    Status SeekGE(int64_t rowid);
    // Positions at the first entry with key >= target (index trees).
    Status SeekGEKey(const std::vector<uint8_t>& key);
    Status Next();
    bool valid() const { return valid_; }

    int64_t rowid() const;
    // Full payload, overflow chain included.
    StatusOr<std::vector<uint8_t>> Payload();

   private:
    friend class BTree;
    struct Frame {
      Pgno pgno = 0;
      int index = 0;   // cell index; == ncells means "in right_child"
      size_t off = 0;  // byte offset of that cell (the cells' end in
                       // right_child)
    };
    // Descends from `pgno` to the first entry >= probe, or to the leftmost
    // entry when `probe` is null, pushing one frame per level.
    Status Descend(Pgno pgno, const Probe* probe);
    Status AdvanceFromLeafEnd();

    BTree* tree_;
    std::vector<Frame> stack_;
    bool valid_ = false;
  };

  Cursor NewCursor() { return Cursor(this); }

 private:
  friend class Cursor;

  // An owned cell, for the paths that rebuild a page's whole cell list.
  struct Cell {
    int64_t rowid = 0;              // table trees
    Pgno child = kNoPgno;           // interior cells
    uint32_t payload_total = 0;     // full payload length
    Pgno overflow = kNoPgno;        // first overflow page
    std::vector<uint8_t> local;     // local payload part
  };

  // A cell where it lies in a pinned page.
  struct CellView {
    int64_t rowid = 0;
    Pgno child = kNoPgno;
    uint32_t payload_total = 0;
    Pgno overflow = kNoPgno;
    const uint8_t* local = nullptr;
    uint16_t local_size = 0;
    size_t next = 0;  // byte offset of the following cell
  };

  struct PageHeader {
    bool leaf = false;
    uint16_t ncells = 0;
    Pgno right_child = kNoPgno;
  };

  // Where a probe falls in a page: the first cell whose key is >= the probe.
  struct Slot {
    int pos = 0;     // cell index; == ncells when every key is smaller
    size_t off = 0;  // byte offset of that cell
    int cmp = 1;     // probe vs that cell's key
    CellView cell;   // that cell (unset when pos == ncells)
    size_t end = 0;  // byte offset one past the last cell
  };

  struct SplitResult {
    Cell separator;  // cell pointing at the left page
    Pgno right;      // page that takes the upper half
  };

  uint32_t MaxLocal() const;
  // Key comparison between a probe and a cell (rowid or encoded record).
  int CompareToCell(const Probe& probe, const CellView& cell) const;

  // Page format: the only parser (ReadHeader, ViewCell) and the only cell
  // encoder (EncodeCell).
  StatusOr<PageHeader> ReadHeader(const uint8_t* page) const;
  size_t CellSize(bool leaf, size_t local_size) const;
  // Views the cell at `off`; false when it runs past the page end.
  bool ViewCell(const uint8_t* page, bool leaf, size_t off,
                CellView* cell) const;
  // Writes `cell` at `dst` and returns its size.
  size_t EncodeCell(uint8_t* dst, bool leaf, const Cell& cell) const;
  // The frame's cell index, built with a bounds-checked walk of every cell
  // if the frame has none yet; a snapshot ref's goes into *scratch.
  StatusOr<const CellIndex*> IndexCells(PageRef* ref, const PageHeader& header,
                                        CellIndex* scratch) const;
  // Bisects the page's cell index for the probe's slot (slot 0 when `probe`
  // is null).
  StatusOr<Slot> Locate(PageRef* ref, const PageHeader& header,
                        const Probe* probe) const;

  // Whole cell lists, for splits and unlinks only.
  StatusOr<std::vector<Cell>> ReadCells(const uint8_t* page, bool* leaf,
                                        Pgno* right_child) const;
  // Fails with ResourceExhausted when the cells do not fit.
  Status WriteCells(uint8_t* page, bool leaf, Pgno right_child,
                    const std::vector<Cell>& cells) const;

  // Builds a leaf cell, spilling payload to overflow pages as needed.
  StatusOr<Cell> MakeLeafCell(int64_t rowid,
                              const std::vector<uint8_t>& payload);
  Status FreeOverflowChain(Pgno first);
  // Appends the overflow chain from `first` to `out` (the local part).
  StatusOr<std::vector<uint8_t>> AssemblePayload(std::vector<uint8_t> out,
                                                 uint32_t payload_total,
                                                 Pgno first);

  // Inserts a leaf cell from the root, splitting the root when it overflows.
  Status InsertCell(Cell cell);
  // Recursive insert; returns a split description when `pgno` split.
  StatusOr<std::optional<SplitResult>> InsertInto(Pgno pgno, Cell cell);
  // Recursive delete; sets *emptied when `pgno` became empty and was freed.
  Status DeleteFrom(Pgno pgno, const Probe& probe, bool* emptied);

  Pager* const pager_;
  const Pgno root_;
  const bool is_index_;
};

}  // namespace xftl::sql

#endif  // XFTL_SQL_BTREE_H_
