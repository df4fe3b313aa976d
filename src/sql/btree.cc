#include "sql/btree.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"

namespace xftl::sql {

namespace {
// Page types.
constexpr uint8_t kTableLeaf = 1;
constexpr uint8_t kTableInterior = 2;
constexpr uint8_t kIndexLeaf = 3;
constexpr uint8_t kIndexInterior = 4;
constexpr uint8_t kOverflow = 5;

constexpr size_t kPageHeader = 9;  // type(1) ncells(2) right_child(4) pad(2)
constexpr size_t kOverflowHeader = 12;  // type(1) pad(3) next(4) len(4)

bool IsLeafType(uint8_t t) { return t == kTableLeaf || t == kIndexLeaf; }

Status CellOverrun() {
  return Status::Corruption("btree cell runs past the page end");
}

}  // namespace

uint32_t BTree::MaxLocal() const { return pager_->page_size() / 4; }

// ---------------------------------------------------------------------------
// page format
// ---------------------------------------------------------------------------

StatusOr<BTree::PageHeader> BTree::ReadHeader(const uint8_t* page) const {
  uint8_t type = page[0];
  if ((is_index_ && type != kIndexLeaf && type != kIndexInterior) ||
      (!is_index_ && type != kTableLeaf && type != kTableInterior)) {
    return Status::Corruption("unexpected btree page type " +
                              std::to_string(type));
  }
  PageHeader header;
  header.leaf = IsLeafType(type);
  header.ncells = DecodeFixed16(page + 1);
  header.right_child = DecodeFixed32(page + 3);
  return header;
}

// A cell is child(4, interior pages) rowid(8, table trees) and, on leaves
// and in index trees, payload_total(4) local_size(2) overflow(4) local bytes.
size_t BTree::CellSize(bool leaf, size_t local_size) const {
  size_t size = 0;
  if (!leaf) size += 4;
  if (!is_index_) size += 8;
  if (is_index_ || leaf) size += 10 + local_size;
  return size;
}

// Inline: this is the step of every page walk.
inline bool BTree::ViewCell(const uint8_t* page, bool leaf, size_t off,
                            CellView* cell) const {
  const size_t page_size = pager_->page_size();
  if (off + CellSize(leaf, 0) > page_size) return false;
  *cell = CellView();
  if (!leaf) {
    cell->child = DecodeFixed32(page + off);
    off += 4;
  }
  if (!is_index_) {
    cell->rowid = int64_t(DecodeFixed64(page + off));
    off += 8;
  }
  if (is_index_ || leaf) {
    cell->payload_total = DecodeFixed32(page + off);
    cell->local_size = DecodeFixed16(page + off + 4);
    cell->overflow = DecodeFixed32(page + off + 6);
    off += 10;
    if (off + cell->local_size > page_size) return false;
    cell->local = page + off;
    off += cell->local_size;
  }
  cell->next = off;
  return true;
}

size_t BTree::EncodeCell(uint8_t* dst, bool leaf, const Cell& cell) const {
  size_t off = 0;
  if (!leaf) {
    EncodeFixed32(dst + off, cell.child);
    off += 4;
  }
  if (!is_index_) {
    EncodeFixed64(dst + off, uint64_t(cell.rowid));
    off += 8;
  }
  if (is_index_ || leaf) {
    EncodeFixed32(dst + off, cell.payload_total);
    EncodeFixed16(dst + off + 4, uint16_t(cell.local.size()));
    EncodeFixed32(dst + off + 6, cell.overflow);
    off += 10;
    std::memcpy(dst + off, cell.local.data(), cell.local.size());
    off += cell.local.size();
  }
  return off;
}

int BTree::CompareToCell(const Probe& probe, const CellView& cell) const {
  if (is_index_) {
    DCHECK(probe.key != nullptr);
    return CompareEncodedRecords(probe.key->data(), probe.key->size(),
                                 cell.local, cell.local_size);
  }
  return probe.rowid < cell.rowid ? -1 : (probe.rowid > cell.rowid ? 1 : 0);
}

StatusOr<const CellIndex*> BTree::IndexCells(PageRef* ref,
                                             const PageHeader& header,
                                             CellIndex* scratch) const {
  CellIndex* index = ref->cell_index();
  if (index == nullptr) index = scratch;
  if (index->built()) {
    DCHECK_EQ(index->offsets.size(), header.ncells) << "stale cell index";
    return index;
  }
  // Cells start before the page end, so a 64 KiB page keeps them in range.
  DCHECK_LE(pager_->page_size(), 65536u);
  index->offsets.resize(header.ncells);
  size_t off = kPageHeader;
  for (uint16_t i = 0; i < header.ncells; ++i) {
    CellView cell;
    if (!ViewCell(ref->data(), header.leaf, off, &cell)) {
      index->Clear();
      return CellOverrun();
    }
    index->offsets[i] = uint16_t(off);
    off = cell.next;
  }
  index->end = uint32_t(off);
  return index;
}

StatusOr<BTree::Slot> BTree::Locate(PageRef* ref, const PageHeader& header,
                                    const Probe* probe) const {
  CellIndex scratch;
  XFTL_ASSIGN_OR_RETURN(const CellIndex* cells,
                        IndexCells(ref, header, &scratch));
  // Bisect for the first cell whose key is >= the probe; without a probe
  // that is cell 0.
  Slot slot;
  int lo = 0;
  int hi = header.ncells;
  while (lo < hi) {
    const int mid = probe == nullptr ? lo : lo + (hi - lo) / 2;
    CellView cell;
    // IndexCells bounds-checked every cell.
    (void)ViewCell(ref->data(), header.leaf, cells->offsets[mid], &cell);
    const int cmp = probe == nullptr ? -1 : CompareToCell(*probe, cell);
    if (cmp <= 0) {
      hi = mid;
      slot.cmp = cmp;
      slot.cell = cell;
    } else {
      lo = mid + 1;
    }
  }
  slot.pos = hi;
  slot.end = cells->end;
  slot.off = hi < header.ncells ? cells->offsets[hi] : cells->end;
  return slot;
}

StatusOr<std::vector<BTree::Cell>> BTree::ReadCells(const uint8_t* page,
                                                    bool* leaf,
                                                    Pgno* right_child) const {
  XFTL_ASSIGN_OR_RETURN(PageHeader header, ReadHeader(page));
  *leaf = header.leaf;
  *right_child = header.right_child;
  std::vector<Cell> cells;
  cells.reserve(header.ncells);
  size_t off = kPageHeader;
  for (uint16_t i = 0; i < header.ncells; ++i) {
    CellView v;
    if (!ViewCell(page, header.leaf, off, &v)) return CellOverrun();
    off = v.next;
    cells.push_back({v.rowid, v.child, v.payload_total, v.overflow,
                     std::vector<uint8_t>(v.local, v.local + v.local_size)});
  }
  return cells;
}

Status BTree::WriteCells(uint8_t* page, bool leaf, Pgno right_child,
                         const std::vector<Cell>& cells) const {
  const uint32_t page_size = pager_->page_size();
  size_t end = kPageHeader;
  for (const Cell& c : cells) end += CellSize(leaf, c.local.size());
  if (end > page_size) {
    return Status::ResourceExhausted("btree page overflow");
  }
  std::memset(page, 0, page_size);
  page[0] = leaf ? (is_index_ ? kIndexLeaf : kTableLeaf)
                 : (is_index_ ? kIndexInterior : kTableInterior);
  EncodeFixed16(page + 1, uint16_t(cells.size()));
  EncodeFixed32(page + 3, right_child);
  size_t off = kPageHeader;
  for (const Cell& c : cells) off += EncodeCell(page + off, leaf, c);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// create / drop
// ---------------------------------------------------------------------------

StatusOr<Pgno> BTree::Create(Pager* pager, bool is_index) {
  XFTL_ASSIGN_OR_RETURN(PageRef ref, pager->Allocate());
  ref.data()[0] = is_index ? kIndexLeaf : kTableLeaf;
  EncodeFixed16(ref.data() + 1, 0);
  EncodeFixed32(ref.data() + 3, kNoPgno);
  return ref.pgno();
}

Status BTree::Drop(Pager* pager, Pgno root) {
  XFTL_ASSIGN_OR_RETURN(PageRef ref, pager->Get(root));
  uint8_t type = ref.data()[0];
  BTree tree(pager, root, type == kIndexLeaf || type == kIndexInterior);
  XFTL_ASSIGN_OR_RETURN(PageHeader header, tree.ReadHeader(ref.data()));

  // Collect child pages and overflow heads before freeing this page.
  std::vector<Pgno> children;
  std::vector<Pgno> overflows;
  size_t off = kPageHeader;
  for (uint16_t i = 0; i < header.ncells; ++i) {
    CellView cell;
    if (!tree.ViewCell(ref.data(), header.leaf, off, &cell)) {
      return CellOverrun();
    }
    off = cell.next;
    if (!header.leaf) children.push_back(cell.child);
    if (cell.overflow != kNoPgno) overflows.push_back(cell.overflow);
  }
  if (!header.leaf && header.right_child != kNoPgno) {
    children.push_back(header.right_child);
  }
  ref = PageRef();  // release the pin before recursing

  for (Pgno child : children) XFTL_RETURN_IF_ERROR(Drop(pager, child));
  for (Pgno ovfl : overflows) {
    XFTL_RETURN_IF_ERROR(tree.FreeOverflowChain(ovfl));
  }
  return pager->Free(root);
}

// ---------------------------------------------------------------------------
// overflow chains
// ---------------------------------------------------------------------------

StatusOr<BTree::Cell> BTree::MakeLeafCell(int64_t rowid,
                                          const std::vector<uint8_t>& payload) {
  Cell cell;
  cell.rowid = rowid;
  cell.payload_total = uint32_t(payload.size());
  uint32_t max_local = MaxLocal();
  if (payload.size() <= max_local) {
    cell.local = payload;
    return cell;
  }
  cell.local.assign(payload.begin(), payload.begin() + max_local);
  const uint32_t chunk_cap = pager_->page_size() - kOverflowHeader;
  size_t pos = max_local;
  Pgno prev = kNoPgno;
  while (pos < payload.size()) {
    size_t n = std::min<size_t>(chunk_cap, payload.size() - pos);
    XFTL_ASSIGN_OR_RETURN(PageRef ref, pager_->Allocate());
    ref.data()[0] = kOverflow;
    EncodeFixed32(ref.data() + 4, kNoPgno);
    EncodeFixed32(ref.data() + 8, uint32_t(n));
    std::memcpy(ref.data() + kOverflowHeader, payload.data() + pos, n);
    if (prev == kNoPgno) {
      cell.overflow = ref.pgno();
    } else {
      XFTL_ASSIGN_OR_RETURN(PageRef pref, pager_->Get(prev));
      XFTL_RETURN_IF_ERROR(pref.MarkDirty());
      EncodeFixed32(pref.data() + 4, ref.pgno());
    }
    prev = ref.pgno();
    pos += n;
  }
  return cell;
}

Status BTree::FreeOverflowChain(Pgno first) {
  Pgno p = first;
  while (p != kNoPgno) {
    XFTL_ASSIGN_OR_RETURN(PageRef ref, pager_->Get(p));
    Pgno next = DecodeFixed32(ref.data() + 4);
    ref = PageRef();
    XFTL_RETURN_IF_ERROR(pager_->Free(p));
    p = next;
  }
  return Status::OK();
}

StatusOr<std::vector<uint8_t>> BTree::AssemblePayload(
    std::vector<uint8_t> out, uint32_t payload_total, Pgno first) {
  Pgno p = first;
  while (p != kNoPgno && out.size() < payload_total) {
    XFTL_ASSIGN_OR_RETURN(PageRef ref, pager_->Get(p));
    if (ref.data()[0] != kOverflow) {
      return Status::Corruption("bad overflow page");
    }
    uint32_t len = DecodeFixed32(ref.data() + 8);
    if (len > pager_->page_size() - kOverflowHeader) {
      return Status::Corruption("overflow page runs past its end");
    }
    out.insert(out.end(), ref.data() + kOverflowHeader,
               ref.data() + kOverflowHeader + len);
    p = DecodeFixed32(ref.data() + 4);
  }
  if (out.size() != payload_total) {
    return Status::Corruption("truncated overflow chain");
  }
  return out;
}

// ---------------------------------------------------------------------------
// insert
// ---------------------------------------------------------------------------

Status BTree::Insert(int64_t rowid, const std::vector<uint8_t>& payload) {
  CHECK(!is_index_);
  XFTL_ASSIGN_OR_RETURN(Cell cell, MakeLeafCell(rowid, payload));
  return InsertCell(std::move(cell));
}

Status BTree::InsertKey(const std::vector<uint8_t>& key) {
  CHECK(is_index_);
  if (key.size() > MaxLocal()) {
    return Status::InvalidArgument("index key exceeds local payload budget");
  }
  Cell cell;
  cell.payload_total = uint32_t(key.size());
  cell.local = key;
  return InsertCell(std::move(cell));
}

Status BTree::InsertCell(Cell cell) {
  XFTL_ASSIGN_OR_RETURN(auto split, InsertInto(root_, std::move(cell)));
  if (!split.has_value()) return Status::OK();

  // Root split: move the lower half (currently in the root page) to a fresh
  // page, then turn the root into an interior node over {left, right}.
  XFTL_ASSIGN_OR_RETURN(PageRef root_ref, pager_->Get(root_));
  bool leaf;
  Pgno rc;
  XFTL_ASSIGN_OR_RETURN(auto cells, ReadCells(root_ref.data(), &leaf, &rc));
  XFTL_ASSIGN_OR_RETURN(PageRef left, pager_->Allocate());
  XFTL_RETURN_IF_ERROR(WriteCells(left.data(), leaf, rc, cells));
  Cell sep = std::move(split->separator);
  sep.child = left.pgno();
  XFTL_RETURN_IF_ERROR(root_ref.MarkDirty());
  XFTL_RETURN_IF_ERROR(
      WriteCells(root_ref.data(), /*leaf=*/false, split->right, {sep}));
  return Status::OK();
}

StatusOr<std::optional<BTree::SplitResult>> BTree::InsertInto(Pgno pgno,
                                                              Cell cell) {
  XFTL_ASSIGN_OR_RETURN(PageRef ref, pager_->Get(pgno));
  XFTL_ASSIGN_OR_RETURN(PageHeader header, ReadHeader(ref.data()));
  const Probe probe{cell.rowid, &cell.local};
  XFTL_ASSIGN_OR_RETURN(Slot slot, Locate(&ref, header, &probe));

  if (header.leaf) {
    // An equal key is replaced; otherwise the cell goes before the slot.
    const bool replace = slot.cmp == 0;
    const size_t old_size = replace ? slot.cell.next - slot.off : 0;
    if (replace && slot.cell.overflow != kNoPgno) {
      XFTL_RETURN_IF_ERROR(FreeOverflowChain(slot.cell.overflow));
    }
    XFTL_RETURN_IF_ERROR(ref.MarkDirty());
    const size_t new_size = CellSize(true, cell.local.size());
    const size_t end = slot.end - old_size + new_size;
    if (end <= pager_->page_size()) {
      // Edit in place: shift the later cells, write the new one into the
      // gap, and zero whatever a shrinking replace freed, which leaves the
      // bytes WriteCells would write.
      uint8_t* page = ref.data();
      std::memmove(page + slot.off + new_size, page + slot.off + old_size,
                   slot.end - slot.off - old_size);
      EncodeCell(page + slot.off, /*leaf=*/true, cell);
      if (end < slot.end) std::memset(page + end, 0, slot.end - end);
      if (!replace) EncodeFixed16(page + 1, uint16_t(header.ncells + 1));
      return std::optional<SplitResult>{};
    }

    // Split the leaf: lower half stays, upper half moves right.
    bool leaf;
    Pgno rc;
    XFTL_ASSIGN_OR_RETURN(auto cells, ReadCells(ref.data(), &leaf, &rc));
    if (replace) {
      cells[slot.pos] = std::move(cell);
    } else {
      cells.insert(cells.begin() + slot.pos, std::move(cell));
    }
    size_t mid = cells.size() / 2;
    std::vector<Cell> left_cells(cells.begin(), cells.begin() + mid);
    std::vector<Cell> right_cells(cells.begin() + mid, cells.end());
    XFTL_ASSIGN_OR_RETURN(PageRef right, pager_->Allocate());
    XFTL_RETURN_IF_ERROR(WriteCells(right.data(), true, kNoPgno, right_cells));
    XFTL_RETURN_IF_ERROR(WriteCells(ref.data(), true, kNoPgno, left_cells));

    SplitResult split;
    split.right = right.pgno();
    split.separator.child = pgno;
    if (is_index_) {
      split.separator.local = left_cells.back().local;
      split.separator.payload_total = uint32_t(split.separator.local.size());
    } else {
      split.separator.rowid = left_cells.back().rowid;
    }
    return std::optional<SplitResult>{std::move(split)};
  }

  // Interior: route to the child covering the key.
  const size_t pos = slot.pos;
  const Pgno child = pos < header.ncells ? slot.cell.child : header.right_child;
  ref = PageRef();  // release pin during recursion
  XFTL_ASSIGN_OR_RETURN(auto sub, InsertInto(child, std::move(cell)));
  if (!sub.has_value()) return std::optional<SplitResult>{};

  // The child split into child (lower) and sub->right (upper): insert the
  // new separator and redirect the old route to the upper half.
  XFTL_ASSIGN_OR_RETURN(ref, pager_->Get(pgno));
  bool leaf;
  Pgno rc;
  XFTL_ASSIGN_OR_RETURN(auto cells, ReadCells(ref.data(), &leaf, &rc));
  Cell sep = std::move(sub->separator);
  sep.child = child;
  if (pos < cells.size()) {
    cells[pos].child = sub->right;
  } else {
    rc = sub->right;
  }
  cells.insert(cells.begin() + pos, std::move(sep));
  XFTL_RETURN_IF_ERROR(ref.MarkDirty());
  Status s = WriteCells(ref.data(), false, rc, cells);
  if (s.ok()) return std::optional<SplitResult>{};
  if (s.code() != StatusCode::kResourceExhausted) return s;

  // Split the interior node: promote the middle cell.
  size_t mid = cells.size() / 2;
  Cell promoted = cells[mid];
  std::vector<Cell> left_cells(cells.begin(), cells.begin() + mid);
  std::vector<Cell> right_cells(cells.begin() + mid + 1, cells.end());
  XFTL_ASSIGN_OR_RETURN(PageRef right, pager_->Allocate());
  XFTL_RETURN_IF_ERROR(WriteCells(right.data(), false, rc, right_cells));
  XFTL_RETURN_IF_ERROR(WriteCells(ref.data(), false, promoted.child,
                                  left_cells));
  SplitResult split;
  split.right = right.pgno();
  split.separator = std::move(promoted);
  split.separator.child = pgno;
  return std::optional<SplitResult>{std::move(split)};
}

// ---------------------------------------------------------------------------
// delete
// ---------------------------------------------------------------------------

Status BTree::Delete(int64_t rowid) {
  CHECK(!is_index_);
  bool emptied = false;
  return DeleteFrom(root_, Probe{rowid, nullptr}, &emptied);
}

Status BTree::DeleteKey(const std::vector<uint8_t>& key) {
  CHECK(is_index_);
  bool emptied = false;
  return DeleteFrom(root_, Probe{0, &key}, &emptied);
}

Status BTree::DeleteFrom(Pgno pgno, const Probe& probe, bool* emptied) {
  *emptied = false;
  XFTL_ASSIGN_OR_RETURN(PageRef ref, pager_->Get(pgno));
  XFTL_ASSIGN_OR_RETURN(PageHeader header, ReadHeader(ref.data()));
  XFTL_ASSIGN_OR_RETURN(Slot slot, Locate(&ref, header, &probe));

  if (header.leaf) {
    if (slot.cmp != 0) return Status::NotFound("btree entry not found");
    if (slot.cell.overflow != kNoPgno) {
      XFTL_RETURN_IF_ERROR(FreeOverflowChain(slot.cell.overflow));
    }
    XFTL_RETURN_IF_ERROR(ref.MarkDirty());
    // Close the gap in place and zero the bytes it frees at the end.
    const size_t size = slot.cell.next - slot.off;
    uint8_t* page = ref.data();
    std::memmove(page + slot.off, page + slot.off + size,
                 slot.end - slot.off - size);
    std::memset(page + slot.end - size, 0, size);
    EncodeFixed16(page + 1, uint16_t(header.ncells - 1));
    *emptied = header.ncells == 1 && pgno != root_;
    return Status::OK();
  }

  const size_t pos = slot.pos;
  const Pgno child = pos < header.ncells ? slot.cell.child : header.right_child;
  ref = PageRef();
  bool child_emptied = false;
  XFTL_RETURN_IF_ERROR(DeleteFrom(child, probe, &child_emptied));
  if (!child_emptied) return Status::OK();

  // Unlink the emptied child.
  XFTL_RETURN_IF_ERROR(pager_->Free(child));
  XFTL_ASSIGN_OR_RETURN(ref, pager_->Get(pgno));
  bool leaf;
  Pgno rc;
  XFTL_ASSIGN_OR_RETURN(auto cells, ReadCells(ref.data(), &leaf, &rc));
  if (pos < cells.size()) {
    cells.erase(cells.begin() + pos);
  } else if (!cells.empty()) {
    rc = cells.back().child;
    cells.pop_back();
  } else {
    // Interior node whose only subtree vanished: it is empty itself.
    XFTL_RETURN_IF_ERROR(ref.MarkDirty());
    if (pgno == root_) {
      // Empty tree again: turn the root back into an empty leaf.
      XFTL_RETURN_IF_ERROR(WriteCells(ref.data(), true, kNoPgno, {}));
    } else {
      *emptied = true;
    }
    return Status::OK();
  }
  XFTL_RETURN_IF_ERROR(ref.MarkDirty());

  if (cells.empty() && pgno == root_) {
    // Collapse: the root routes everything to rc; pull rc's content up so
    // the root page number stays stable.
    XFTL_ASSIGN_OR_RETURN(PageRef child_ref, pager_->Get(rc));
    std::memcpy(ref.data(), child_ref.data(), pager_->page_size());
    child_ref = PageRef();
    return pager_->Free(rc);
  }
  return WriteCells(ref.data(), false, rc, cells);
}

// ---------------------------------------------------------------------------
// queries
// ---------------------------------------------------------------------------

StatusOr<int64_t> BTree::MaxRowid() {
  CHECK(!is_index_);
  Pgno pgno = root_;
  while (true) {
    XFTL_ASSIGN_OR_RETURN(PageRef ref, pager_->Get(pgno));
    XFTL_ASSIGN_OR_RETURN(PageHeader header, ReadHeader(ref.data()));
    CellIndex scratch;
    XFTL_ASSIGN_OR_RETURN(const CellIndex* cells,
                          IndexCells(&ref, header, &scratch));
    CellView last;
    if (header.ncells > 0) {
      (void)ViewCell(ref.data(), header.leaf, cells->offsets.back(), &last);
    }
    if (header.leaf) return last.rowid;  // 0 when the leaf is empty
    pgno = header.right_child != kNoPgno ? header.right_child : last.child;
  }
}

// ---------------------------------------------------------------------------
// cursor
// ---------------------------------------------------------------------------

Status BTree::Cursor::Descend(Pgno pgno, const Probe* probe) {
  while (true) {
    XFTL_ASSIGN_OR_RETURN(PageRef ref, tree_->pager_->Get(pgno));
    XFTL_ASSIGN_OR_RETURN(PageHeader header, tree_->ReadHeader(ref.data()));
    XFTL_ASSIGN_OR_RETURN(Slot slot, tree_->Locate(&ref, header, probe));
    stack_.push_back({pgno, slot.pos, slot.off});
    if (header.leaf) {
      if (slot.pos < header.ncells) {
        valid_ = true;
        return Status::OK();
      }
      return AdvanceFromLeafEnd();
    }
    pgno = slot.pos < header.ncells ? slot.cell.child : header.right_child;
  }
}

Status BTree::Cursor::First() {
  stack_.clear();
  valid_ = false;
  return Descend(tree_->root_, nullptr);
}

Status BTree::Cursor::SeekGE(int64_t rowid) {
  CHECK(!tree_->is_index_);
  stack_.clear();
  valid_ = false;
  const Probe probe{rowid, nullptr};
  return Descend(tree_->root_, &probe);
}

Status BTree::Cursor::SeekGEKey(const std::vector<uint8_t>& key) {
  CHECK(tree_->is_index_);
  stack_.clear();
  valid_ = false;
  const Probe probe{0, &key};
  return Descend(tree_->root_, &probe);
}

Status BTree::Cursor::AdvanceFromLeafEnd() {
  // The leaf frame is exhausted; climb until an interior frame has a next
  // child, then descend its leftmost path.
  stack_.pop_back();
  while (!stack_.empty()) {
    Frame& f = stack_.back();
    XFTL_ASSIGN_OR_RETURN(PageRef ref, tree_->pager_->Get(f.pgno));
    XFTL_ASSIGN_OR_RETURN(PageHeader header, tree_->ReadHeader(ref.data()));
    CellView cell;
    if (f.index < header.ncells) {  // step past the exhausted subtree's cell
      if (!tree_->ViewCell(ref.data(), header.leaf, f.off, &cell)) {
        return CellOverrun();
      }
      f.off = cell.next;
    }
    f.index++;
    if (f.index <= header.ncells) {
      Pgno child = header.right_child;
      if (f.index < header.ncells) {
        if (!tree_->ViewCell(ref.data(), header.leaf, f.off, &cell)) {
          return CellOverrun();
        }
        child = cell.child;
      }
      return Descend(child, nullptr);
    }
    stack_.pop_back();
  }
  valid_ = false;
  return Status::OK();
}

Status BTree::Cursor::Next() {
  CHECK(valid_);
  Frame& f = stack_.back();
  XFTL_ASSIGN_OR_RETURN(PageRef ref, tree_->pager_->Get(f.pgno));
  XFTL_ASSIGN_OR_RETURN(PageHeader header, tree_->ReadHeader(ref.data()));
  CellView cell;
  if (!tree_->ViewCell(ref.data(), header.leaf, f.off, &cell)) {
    return CellOverrun();
  }
  f.off = cell.next;
  f.index++;
  if (f.index < header.ncells) return Status::OK();
  valid_ = false;
  return AdvanceFromLeafEnd();
}

int64_t BTree::Cursor::rowid() const {
  CHECK(valid_);
  const Frame& f = stack_.back();
  auto ref = tree_->pager_->Get(f.pgno);
  CHECK(ref.ok());
  auto header = tree_->ReadHeader(ref->data());
  CHECK(header.ok());
  CellView cell;
  CHECK(tree_->ViewCell(ref->data(), header->leaf, f.off, &cell));
  return cell.rowid;
}

StatusOr<std::vector<uint8_t>> BTree::Cursor::Payload() {
  CHECK(valid_);
  const Frame& f = stack_.back();
  XFTL_ASSIGN_OR_RETURN(PageRef ref, tree_->pager_->Get(f.pgno));
  XFTL_ASSIGN_OR_RETURN(PageHeader header, tree_->ReadHeader(ref.data()));
  CellView cell;
  if (!tree_->ViewCell(ref.data(), header.leaf, f.off, &cell)) {
    return CellOverrun();
  }
  // Copy the local part out before the pin goes; the chain follows.
  std::vector<uint8_t> out;
  out.reserve(cell.payload_total);
  out.assign(cell.local, cell.local + cell.local_size);
  ref = PageRef();
  return tree_->AssemblePayload(std::move(out), cell.payload_total,
                                cell.overflow);
}

}  // namespace xftl::sql
