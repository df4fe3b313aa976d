#include "fs/ext_fs.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <span>

namespace xftl::fs {

namespace {
constexpr uint32_t kPtrSize = 4;

// A committed or checkpointed page is clean, unpinned and out of any device
// transaction.
void MarkClean(std::span<BufferCache::Entry* const> entries) {
  for (BufferCache::Entry* e : entries) {
    e->dirty = false;
    e->pinned = false;
    e->tid = 0;
  }
}
}  // namespace

const char* JournalModeName(JournalMode mode) {
  switch (mode) {
    case JournalMode::kOrdered:
      return "ordered";
    case JournalMode::kFull:
      return "full";
    case JournalMode::kOff:
      return "off";
  }
  return "?";
}

ExtFs::ExtFs(storage::TxBlockDevice* dev, const FsOptions& options,
             SimClock* clock)
    : dev_(dev), options_(options), clock_(clock) {
  cache_ = std::make_unique<BufferCache>(
      dev_, options_.cache_pages,
      [this](uint64_t page, const uint8_t* data, storage::TxId tid) {
        return WritebackForEviction(page, data, tid);
      });
}

Status ExtFs::WritebackForEviction(uint64_t page, const uint8_t* data,
                                   storage::TxId tid) {
  // The steal path: a dirty, unpinned page leaves the cache before its
  // transaction commits. On X-FTL it carries the transaction id and remains
  // rollbackable; on a journaling mode it is ordinary data and may be
  // written in place.
  stats_.data_page_writes++;
  if (options_.journal_mode == JournalMode::kOff && tid != 0) {
    return dev_->TxWrite(tid, page, data);
  }
  return dev_->Write(page, data);
}

// ---------------------------------------------------------------------------
// mkfs / mount
// ---------------------------------------------------------------------------

Status ExtFs::Mkfs(storage::TxBlockDevice* dev, const FsOptions& options) {
  const uint32_t page_size = dev->page_size();
  const uint64_t num_pages = dev->num_pages();
  CHECK_GE(page_size, 512u);

  Superblock sb;
  sb.page_size = page_size;
  sb.num_pages = num_pages;
  sb.inode_count = options.inode_count;
  sb.inode_start = 1;
  sb.inode_pages =
      (options.inode_count * kInodeSize + page_size - 1) / page_size;
  sb.bitmap_start = sb.inode_start + sb.inode_pages;
  sb.bitmap_pages =
      uint32_t((num_pages + uint64_t(page_size) * 8 - 1) / (uint64_t(page_size) * 8));
  sb.journal_start = sb.bitmap_start + sb.bitmap_pages;
  sb.journal_pages = options.journal_pages;
  sb.data_start = sb.journal_start + sb.journal_pages;
  if (sb.data_start + 16 >= num_pages) {
    return Status::InvalidArgument("device too small for file system layout");
  }

  std::vector<uint8_t> buf(page_size, 0);
  sb.EncodeTo(buf.data());
  XFTL_RETURN_IF_ERROR(dev->Write(0, buf.data()));

  // Inode table: all free except the root directory.
  for (uint32_t p = 0; p < sb.inode_pages; ++p) {
    std::memset(buf.data(), 0, page_size);
    if (p == 0) {
      Inode root;
      root.mode = InodeMode::kDir;
      root.nlink = 1;
      root.EncodeTo(buf.data());
    }
    XFTL_RETURN_IF_ERROR(dev->Write(sb.inode_start + p, buf.data()));
  }

  // Bitmap: metadata region marked allocated.
  for (uint32_t p = 0; p < sb.bitmap_pages; ++p) {
    std::memset(buf.data(), 0, page_size);
    uint64_t first_bit = uint64_t(p) * page_size * 8;
    for (uint64_t bit = 0; bit < uint64_t(page_size) * 8; ++bit) {
      uint64_t page = first_bit + bit;
      if (page >= num_pages) break;
      if (page < sb.data_start) buf[bit / 8] |= uint8_t(1u << (bit % 8));
    }
    XFTL_RETURN_IF_ERROR(dev->Write(sb.bitmap_start + p, buf.data()));
  }
  // Invalidate any stale journal descriptor from a previous file system.
  std::memset(buf.data(), 0, page_size);
  XFTL_RETURN_IF_ERROR(dev->Write(sb.journal_start, buf.data()));
  return dev->FlushBarrier();
}

StatusOr<std::unique_ptr<ExtFs>> ExtFs::Mount(storage::TxBlockDevice* dev,
                                              const FsOptions& options,
                                              SimClock* clock) {
  if (options.journal_mode == JournalMode::kOff &&
      !dev->SupportsTransactions()) {
    return Status::InvalidArgument(
        "journaling off requires a transactional (X-FTL) device");
  }
  std::vector<uint8_t> buf(dev->page_size());
  XFTL_RETURN_IF_ERROR(dev->Read(0, buf.data()));
  Superblock sb;
  sb.DecodeFrom(buf.data());
  if (sb.magic != kSuperMagic || sb.page_size != dev->page_size()) {
    return Status::Corruption("bad superblock");
  }

  auto fs = std::unique_ptr<ExtFs>(new ExtFs(dev, options, clock));
  fs->sb_ = sb;
  fs->alloc_hint_ = sb.data_start;
  if (options.journal_mode != JournalMode::kOff) {
    fs->journal_ = std::make_unique<Journal>(dev, sb.journal_start,
                                             sb.journal_pages);
    XFTL_RETURN_IF_ERROR(fs->journal_->Recover());
  }
  return fs;
}

Status ExtFs::Unmount() {
  XFTL_RETURN_IF_ERROR(SyncAll());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// inode / bitmap
// ---------------------------------------------------------------------------

StatusOr<Inode> ExtFs::LoadInode(Ino ino) {
  if (ino >= sb_.inode_count) return Status::OutOfRange("bad inode");
  uint32_t per_page = sb_.page_size / kInodeSize;
  uint64_t page = sb_.inode_start + ino / per_page;
  XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e, cache_->Get(page));
  Inode inode;
  inode.DecodeFrom(e->data.data() + size_t(ino % per_page) * kInodeSize);
  return inode;
}

Status ExtFs::StoreInode(Ino ino, const Inode& inode) {
  uint32_t per_page = sb_.page_size / kInodeSize;
  uint64_t page = sb_.inode_start + ino / per_page;
  XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e, cache_->Get(page));
  uint8_t* slot = e->data.data() + size_t(ino % per_page) * kInodeSize;
  // An update that moves nothing but mtime (bytes 72..79) is the fdatasync
  // carve-out: the page gets dirty, but a datasync may defer it.
  uint8_t fresh[kInodeSize];
  inode.EncodeTo(fresh);
  bool ts_only = std::memcmp(fresh, slot, 72) == 0 &&
                 std::memcmp(fresh + 80, slot + 80, kInodeSize - 80) == 0;
  std::memcpy(slot, fresh, kInodeSize);
  cache_->MarkDirty(e, /*metadata=*/true, TidFor(ino), ~0u, ts_only);
  return Status::OK();
}

StatusOr<Ino> ExtFs::AllocInode(InodeMode mode) {
  uint32_t per_page = sb_.page_size / kInodeSize;
  for (Ino ino = 1; ino < sb_.inode_count; ++ino) {
    uint64_t page = sb_.inode_start + ino / per_page;
    XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e, cache_->Get(page));
    const uint8_t* slot = e->data.data() + size_t(ino % per_page) * kInodeSize;
    if (InodeMode(DecodeFixed32(slot)) == InodeMode::kFree) {
      Inode inode;
      inode.mode = mode;
      inode.nlink = 1;
      inode.mtime = clock_->Now();
      inode.EncodeTo(e->data.data() + size_t(ino % per_page) * kInodeSize);
      cache_->MarkDirty(e, /*metadata=*/true, TidFor(ino));
      return ino;
    }
  }
  return Status::ResourceExhausted("out of inodes");
}

StatusOr<uint32_t> ExtFs::AllocPage() {
  const uint64_t bits_per_page = uint64_t(sb_.page_size) * 8;
  for (uint64_t scanned = 0; scanned < sb_.num_pages; ++scanned) {
    uint64_t page = sb_.data_start +
                    (alloc_hint_ - sb_.data_start + scanned) %
                        (sb_.num_pages - sb_.data_start);
    uint64_t bpage = sb_.bitmap_start + page / bits_per_page;
    uint64_t bit = page % bits_per_page;
    XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e, cache_->Get(bpage));
    if ((e->data[bit / 8] & (1u << (bit % 8))) == 0) {
      e->data[bit / 8] |= uint8_t(1u << (bit % 8));
      cache_->MarkDirty(e, /*metadata=*/true, 0);
      alloc_hint_ = page + 1;
      return uint32_t(page);
    }
  }
  return Status::ResourceExhausted("file system full");
}

Status ExtFs::FreePage(uint32_t page) {
  const uint64_t bits_per_page = uint64_t(sb_.page_size) * 8;
  uint64_t bpage = sb_.bitmap_start + page / bits_per_page;
  uint64_t bit = page % bits_per_page;
  XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e, cache_->Get(bpage));
  e->data[bit / 8] &= uint8_t(~(1u << (bit % 8)));
  cache_->MarkDirty(e, /*metadata=*/true, 0);
  cache_->Discard(page);
  pending_trims_.push_back(page);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// file page mapping
// ---------------------------------------------------------------------------

StatusOr<uint32_t> ExtFs::FilePage(Ino ino, Inode* inode, uint64_t idx,
                                   bool alloc, bool* created) {
  if (created != nullptr) *created = false;
  const uint64_t ppp = sb_.page_size / kPtrSize;  // pointers per page
  storage::TxId tid = TidFor(ino);

  auto alloc_data_page = [&]() -> StatusOr<uint32_t> {
    XFTL_ASSIGN_OR_RETURN(uint32_t p, AllocPage());
    if (created != nullptr) *created = true;
    return p;
  };
  // Reads/updates pointer slot `slot_idx` inside pointer page `ptr_page`.
  auto through_ptr_page = [&](uint32_t ptr_page,
                              uint64_t slot_idx) -> StatusOr<uint32_t> {
    XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e, cache_->Get(ptr_page, tid));
    uint32_t p = DecodeFixed32(e->data.data() + slot_idx * kPtrSize);
    if (p == kNoPage && alloc) {
      XFTL_ASSIGN_OR_RETURN(p, alloc_data_page());
      EncodeFixed32(e->data.data() + slot_idx * kPtrSize, p);
      cache_->MarkDirty(e, /*metadata=*/true, tid);
    }
    return p;
  };
  // Allocates a zeroed pointer page.
  auto alloc_ptr_page = [&]() -> StatusOr<uint32_t> {
    XFTL_ASSIGN_OR_RETURN(uint32_t p, AllocPage());
    XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e, cache_->GetZeroed(p));
    cache_->MarkDirty(e, /*metadata=*/true, tid);
    return p;
  };

  if (idx < kDirectPointers) {
    uint32_t p = inode->direct[idx];
    if (p == kNoPage && alloc) {
      XFTL_ASSIGN_OR_RETURN(p, alloc_data_page());
      inode->direct[idx] = p;
      XFTL_RETURN_IF_ERROR(StoreInode(ino, *inode));
    }
    return p;
  }
  idx -= kDirectPointers;
  if (idx < ppp) {
    if (inode->indirect == kNoPage) {
      if (!alloc) return kNoPage;
      XFTL_ASSIGN_OR_RETURN(inode->indirect, alloc_ptr_page());
      XFTL_RETURN_IF_ERROR(StoreInode(ino, *inode));
    }
    return through_ptr_page(inode->indirect, idx);
  }
  idx -= ppp;
  if (idx >= ppp * ppp) return Status::OutOfRange("file too large");
  if (inode->dindirect == kNoPage) {
    if (!alloc) return kNoPage;
    XFTL_ASSIGN_OR_RETURN(inode->dindirect, alloc_ptr_page());
    XFTL_RETURN_IF_ERROR(StoreInode(ino, *inode));
  }
  XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e,
                        cache_->Get(inode->dindirect, tid));
  uint64_t l1 = idx / ppp;
  uint32_t l2_page = DecodeFixed32(e->data.data() + l1 * kPtrSize);
  if (l2_page == kNoPage) {
    if (!alloc) return kNoPage;
    XFTL_ASSIGN_OR_RETURN(l2_page, alloc_ptr_page());
    // Re-fetch: alloc_ptr_page may have evicted e.
    XFTL_ASSIGN_OR_RETURN(e, cache_->Get(inode->dindirect, tid));
    EncodeFixed32(e->data.data() + l1 * kPtrSize, l2_page);
    cache_->MarkDirty(e, /*metadata=*/true, tid);
  }
  return through_ptr_page(l2_page, idx % ppp);
}

Status ExtFs::FreeFilePages(Ino ino, Inode* inode, uint64_t from_idx) {
  const uint64_t ppp_zero = sb_.page_size / kPtrSize;
  storage::TxId zero_tid = TidFor(ino);
  // Zeroes the block pointer for file page `idx` (the page itself has
  // already been freed); otherwise fsck would see references to free pages.
  auto zero_pointer = [&](uint64_t idx) -> Status {
    if (idx < kDirectPointers) {
      inode->direct[idx] = kNoPage;
      return Status::OK();
    }
    uint64_t rel = idx - kDirectPointers;
    uint32_t ptr_page = kNoPage;
    uint64_t slot = 0;
    if (rel < ppp_zero) {
      ptr_page = inode->indirect;
      slot = rel;
    } else {
      rel -= ppp_zero;
      if (inode->dindirect == kNoPage) return Status::OK();
      XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e,
                            cache_->Get(inode->dindirect, zero_tid));
      ptr_page = DecodeFixed32(e->data.data() + (rel / ppp_zero) * kPtrSize);
      slot = rel % ppp_zero;
    }
    if (ptr_page == kNoPage) return Status::OK();
    XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e,
                          cache_->Get(ptr_page, zero_tid));
    EncodeFixed32(e->data.data() + slot * kPtrSize, kNoPage);
    cache_->MarkDirty(e, /*metadata=*/true, zero_tid);
    return Status::OK();
  };

  uint64_t npages = (inode->size + sb_.page_size - 1) / sb_.page_size;
  for (uint64_t idx = from_idx; idx < npages; ++idx) {
    XFTL_ASSIGN_OR_RETURN(uint32_t p,
                          FilePage(ino, inode, idx, /*alloc=*/false, nullptr));
    if (p != kNoPage) {
      XFTL_RETURN_IF_ERROR(FreePage(p));
      XFTL_RETURN_IF_ERROR(zero_pointer(idx));
    }
  }
  if (from_idx == 0) {
    // Free the pointer pages too.
    const uint64_t ppp = sb_.page_size / kPtrSize;
    storage::TxId tid = TidFor(ino);
    if (inode->indirect != kNoPage) {
      XFTL_RETURN_IF_ERROR(FreePage(inode->indirect));
      inode->indirect = kNoPage;
    }
    if (inode->dindirect != kNoPage) {
      XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e,
                            cache_->Get(inode->dindirect, tid));
      for (uint64_t i = 0; i < ppp; ++i) {
        uint32_t l2 = DecodeFixed32(e->data.data() + i * kPtrSize);
        if (l2 != kNoPage) XFTL_RETURN_IF_ERROR(FreePage(l2));
      }
      XFTL_RETURN_IF_ERROR(FreePage(inode->dindirect));
      inode->dindirect = kNoPage;
    }
    std::fill(std::begin(inode->direct), std::end(inode->direct), kNoPage);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// directory
// ---------------------------------------------------------------------------

template <typename Visit>
StatusOr<uint64_t> ExtFs::WalkDirents(Inode* root, Visit visit) {
  const uint64_t slots = root->size / kDirentSize;
  for (uint64_t s = 0; s < slots; ++s) {
    uint64_t idx = s * kDirentSize / sb_.page_size;
    XFTL_ASSIGN_OR_RETURN(
        uint32_t page, FilePage(kRootIno, root, idx, /*alloc=*/false, nullptr));
    if (page == kNoPage) continue;
    XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e, cache_->Get(page));
    DirSlot slot{e, size_t((s * kDirentSize) % sb_.page_size), {}};
    slot.dirent.DecodeFrom(e->data.data() + slot.off);
    XFTL_ASSIGN_OR_RETURN(bool stop, visit(slot));
    if (stop) return s;
  }
  return slots;
}

StatusOr<Ino> ExtFs::Lookup(const std::string& name) {
  XFTL_ASSIGN_OR_RETURN(Inode root, LoadInode(kRootIno));
  Ino ino = 0;
  XFTL_ASSIGN_OR_RETURN(
      uint64_t slot, WalkDirents(&root, [&](DirSlot& s) -> StatusOr<bool> {
        if (!s.dirent.in_use || s.dirent.name != name) return false;
        ino = s.dirent.ino;
        return true;
      }));
  if (slot == root.size / kDirentSize) {
    return Status::NotFound("no such file: " + name);
  }
  return ino;
}

Status ExtFs::AddDirent(const std::string& name, Ino ino) {
  if (name.empty() || name.size() > kMaxNameLen) {
    return Status::InvalidArgument("bad file name");
  }
  XFTL_ASSIGN_OR_RETURN(Inode root, LoadInode(kRootIno));
  const uint64_t slots = root.size / kDirentSize;
  // The first free slot, else append.
  XFTL_ASSIGN_OR_RETURN(
      uint64_t target, WalkDirents(&root, [](DirSlot& s) -> StatusOr<bool> {
        return !s.dirent.in_use;
      }));
  uint64_t idx = target * kDirentSize / sb_.page_size;
  bool created = false;
  XFTL_ASSIGN_OR_RETURN(
      uint32_t page, FilePage(kRootIno, &root, idx, /*alloc=*/true, &created));
  BufferCache::Entry* e;
  if (created) {
    XFTL_ASSIGN_OR_RETURN(e, cache_->GetZeroed(page));
  } else {
    XFTL_ASSIGN_OR_RETURN(e, cache_->Get(page));
  }
  Dirent d;
  d.ino = ino;
  d.in_use = true;
  d.name = name;
  d.EncodeTo(e->data.data() + (target * kDirentSize) % sb_.page_size);
  cache_->MarkDirty(e, /*metadata=*/true, 0);
  if (target >= slots) {
    root.size = (target + 1) * kDirentSize;
    root.mtime = clock_->Now();
    XFTL_RETURN_IF_ERROR(StoreInode(kRootIno, root));
  }
  return Status::OK();
}

Status ExtFs::RemoveDirent(const std::string& name) {
  XFTL_ASSIGN_OR_RETURN(Inode root, LoadInode(kRootIno));
  XFTL_ASSIGN_OR_RETURN(
      uint64_t slot, WalkDirents(&root, [&](DirSlot& s) -> StatusOr<bool> {
        if (!s.dirent.in_use || s.dirent.name != name) return false;
        s.dirent.in_use = false;
        s.dirent.EncodeTo(s.page->data.data() + s.off);
        cache_->MarkDirty(s.page, /*metadata=*/true, 0);
        return true;
      }));
  if (slot == root.size / kDirentSize) {
    return Status::NotFound("no such file: " + name);
  }
  return Status::OK();
}

std::vector<std::string> ExtFs::ListDir() {
  std::vector<std::string> names;
  auto root_or = LoadInode(kRootIno);
  if (!root_or.ok()) return names;
  Inode root = root_or.value();
  uint64_t slots = root.size / kDirentSize;
  for (uint64_t s = 0; s < slots; ++s) {
    uint64_t idx = s * kDirentSize / sb_.page_size;
    auto page_or = FilePage(kRootIno, &root, idx, /*alloc=*/false, nullptr);
    if (!page_or.ok() || page_or.value() == kNoPage) continue;
    auto e_or = cache_->Get(page_or.value());
    if (!e_or.ok()) continue;
    Dirent d;
    d.DecodeFrom(e_or.value()->data.data() + (s * kDirentSize) % sb_.page_size);
    if (d.in_use) names.push_back(d.name);
  }
  return names;
}

// ---------------------------------------------------------------------------
// public file API
// ---------------------------------------------------------------------------

StatusOr<Fd> ExtFs::Create(const std::string& name) {
  ChargeSyscall();
  auto existing = Lookup(name);
  if (existing.ok()) return Status::AlreadyExists(name);
  XFTL_ASSIGN_OR_RETURN(Ino ino, AllocInode(InodeMode::kFile));
  XFTL_RETURN_IF_ERROR(AddDirent(name, ino));
  stats_.file_creates++;
  open_files_.push_back({ino, true});
  return Fd(open_files_.size() - 1);
}

StatusOr<Fd> ExtFs::Open(const std::string& name) {
  ChargeSyscall();
  XFTL_ASSIGN_OR_RETURN(Ino ino, Lookup(name));
  open_files_.push_back({ino, true});
  return Fd(open_files_.size() - 1);
}

Status ExtFs::Close(Fd fd) {
  ChargeSyscall();
  if (fd < 0 || size_t(fd) >= open_files_.size() || !open_files_[fd].valid) {
    return Status::InvalidArgument("bad fd");
  }
  open_files_[fd].valid = false;
  return Status::OK();
}

StatusOr<bool> ExtFs::Exists(const std::string& name) {
  ChargeSyscall();
  auto r = Lookup(name);
  if (r.ok()) return true;
  if (r.status().IsNotFound()) return false;
  return r.status();
}

Status ExtFs::Unlink(const std::string& name) {
  ChargeSyscall();
  XFTL_ASSIGN_OR_RETURN(Ino ino, Lookup(name));
  for (const OpenFile& of : open_files_) {
    if (of.valid && of.ino == ino) {
      return Status::Busy("file is open: " + name);
    }
  }
  XFTL_ASSIGN_OR_RETURN(Inode inode, LoadInode(ino));
  XFTL_RETURN_IF_ERROR(FreeFilePages(ino, &inode, 0));
  inode = Inode{};  // mode kFree
  XFTL_RETURN_IF_ERROR(StoreInode(ino, inode));
  XFTL_RETURN_IF_ERROR(RemoveDirent(name));
  active_tid_.erase(ino);
  stats_.file_deletes++;
  return Status::OK();
}

StatusOr<size_t> ExtFs::Read(Fd fd, uint64_t offset, size_t n, uint8_t* out) {
  ChargeSyscall();
  if (fd < 0 || size_t(fd) >= open_files_.size() || !open_files_[fd].valid) {
    return Status::InvalidArgument("bad fd");
  }
  Ino ino = open_files_[fd].ino;
  XFTL_ASSIGN_OR_RETURN(Inode inode, LoadInode(ino));
  if (offset >= inode.size) return size_t(0);
  n = size_t(std::min<uint64_t>(n, inode.size - offset));
  storage::TxId tid = 0;
  if (auto it = active_tid_.find(ino); it != active_tid_.end()) {
    tid = it->second;
  }

  size_t done = 0;
  while (done < n) {
    uint64_t pos = offset + done;
    uint64_t idx = pos / sb_.page_size;
    size_t in_page = size_t(pos % sb_.page_size);
    size_t chunk = std::min(n - done, size_t(sb_.page_size) - in_page);
    XFTL_ASSIGN_OR_RETURN(uint32_t page,
                          FilePage(ino, &inode, idx, /*alloc=*/false, nullptr));
    if (page == kNoPage) {
      std::memset(out + done, 0, chunk);  // hole
    } else {
      XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e, cache_->Get(page, tid));
      std::memcpy(out + done, e->data.data() + in_page, chunk);
    }
    done += chunk;
    stats_.page_reads++;
  }
  return done;
}

StatusOr<uint64_t> ExtFs::SnapPin() {
  ChargeSyscall();
  return dev_->SnapPin();
}

Status ExtFs::SnapUnpin(uint64_t epoch) {
  ChargeSyscall();
  return dev_->SnapUnpin(epoch);
}

Status ExtFs::SnapReadPage(Fd fd, uint64_t idx, uint64_t epoch, uint8_t* out) {
  ChargeSyscall();
  if (fd < 0 || size_t(fd) >= open_files_.size() || !open_files_[fd].valid) {
    return Status::InvalidArgument("bad fd");
  }
  Ino ino = open_files_[fd].ino;
  XFTL_ASSIGN_OR_RETURN(Inode inode, LoadInode(ino));
  XFTL_ASSIGN_OR_RETURN(uint32_t page,
                        FilePage(ino, &inode, idx, /*alloc=*/false, nullptr));
  stats_.page_reads++;
  if (page == kNoPage) {
    // Hole in the live file: it was certainly a hole at the pin too.
    std::memset(out, 0, sb_.page_size);
    return Status::OK();
  }
  return dev_->SnapRead(epoch, page, out);
}

Status ExtFs::Write(Fd fd, uint64_t offset, const uint8_t* data, size_t n) {
  ChargeSyscall();
  if (fd < 0 || size_t(fd) >= open_files_.size() || !open_files_[fd].valid) {
    return Status::InvalidArgument("bad fd");
  }
  Ino ino = open_files_[fd].ino;
  XFTL_ASSIGN_OR_RETURN(Inode inode, LoadInode(ino));
  storage::TxId tid = TidFor(ino);

  // Extending past EOF: the gap must read as zeros. Hole pages already do,
  // but the old last page may carry stale bytes beyond EOF (e.g., from a
  // page recycled by a previous file whose zeroing never committed), so
  // scrub its tail explicitly.
  if (offset > inode.size && inode.size % sb_.page_size != 0) {
    uint64_t tail = inode.size % sb_.page_size;
    XFTL_ASSIGN_OR_RETURN(
        uint32_t last, FilePage(ino, &inode, inode.size / sb_.page_size,
                                /*alloc=*/false, nullptr));
    if (last != kNoPage) {
      XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e, cache_->Get(last, tid));
      std::memset(e->data.data() + tail, 0, sb_.page_size - tail);
      bool pin_tail = options_.journal_mode == JournalMode::kFull;
      cache_->MarkDirty(e, /*metadata=*/false, tid, ino);
      if (pin_tail) e->pinned = true;
    }
  }

  size_t done = 0;
  while (done < n) {
    uint64_t pos = offset + done;
    uint64_t idx = pos / sb_.page_size;
    size_t in_page = size_t(pos % sb_.page_size);
    size_t chunk = std::min(n - done, size_t(sb_.page_size) - in_page);
    bool created = false;
    XFTL_ASSIGN_OR_RETURN(uint32_t page,
                          FilePage(ino, &inode, idx, /*alloc=*/true, &created));
    BufferCache::Entry* e;
    if (created) {
      XFTL_ASSIGN_OR_RETURN(e, cache_->GetZeroed(page));
    } else {
      XFTL_ASSIGN_OR_RETURN(e, cache_->Get(page, tid));
    }
    std::memcpy(e->data.data() + in_page, data + done, chunk);
    bool pin_data = options_.journal_mode == JournalMode::kFull;
    cache_->MarkDirty(e, /*metadata=*/false, tid, ino);
    if (pin_data) e->pinned = true;  // data=journal pins data pages too
    done += chunk;
  }
  // FilePage may have re-stored the inode (new block pointers); reload so the
  // size update does not clobber them.
  XFTL_ASSIGN_OR_RETURN(inode, LoadInode(ino));
  inode.size = std::max(inode.size, offset + n);
  inode.mtime = clock_->Now();
  XFTL_RETURN_IF_ERROR(StoreInode(ino, inode));
  return Status::OK();
}

Status ExtFs::Truncate(Fd fd, uint64_t new_size) {
  ChargeSyscall();
  if (fd < 0 || size_t(fd) >= open_files_.size() || !open_files_[fd].valid) {
    return Status::InvalidArgument("bad fd");
  }
  Ino ino = open_files_[fd].ino;
  XFTL_ASSIGN_OR_RETURN(Inode inode, LoadInode(ino));
  if (new_size < inode.size) {
    uint64_t keep = (new_size + sb_.page_size - 1) / sb_.page_size;
    XFTL_RETURN_IF_ERROR(FreeFilePages(ino, &inode, keep));
    // Zero the tail of the partial last page, or a later extension would
    // expose the truncated bytes (POSIX requires the gap to read as zeros).
    uint64_t tail = new_size % sb_.page_size;
    if (tail != 0) {
      XFTL_ASSIGN_OR_RETURN(
          uint32_t page,
          FilePage(ino, &inode, new_size / sb_.page_size, /*alloc=*/false,
                   nullptr));
      if (page != kNoPage) {
        XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e,
                              cache_->Get(page, TidFor(ino)));
        std::memset(e->data.data() + tail, 0, sb_.page_size - tail);
        cache_->MarkDirty(e, /*metadata=*/false, TidFor(ino), ino);
      }
    }
  }
  inode.size = new_size;
  inode.mtime = clock_->Now();
  return StoreInode(ino, inode);
}

StatusOr<uint64_t> ExtFs::FileSize(Fd fd) {
  ChargeSyscall();
  if (fd < 0 || size_t(fd) >= open_files_.size() || !open_files_[fd].valid) {
    return Status::InvalidArgument("bad fd");
  }
  XFTL_ASSIGN_OR_RETURN(Inode inode, LoadInode(open_files_[fd].ino));
  return inode.size;
}

// ---------------------------------------------------------------------------
// durability: fsync / ioctl(abort) / sync
// ---------------------------------------------------------------------------

Status ExtFs::LinkTransactions(const std::vector<Fd>& fds) {
  ChargeSyscall();
  if (options_.journal_mode != JournalMode::kOff) {
    return Status::NotSupported("linked transactions require journaling off");
  }
  auto members = std::make_shared<std::vector<Ino>>();
  for (Fd fd : fds) {
    if (fd < 0 || size_t(fd) >= open_files_.size() || !open_files_[fd].valid) {
      return Status::InvalidArgument("bad fd");
    }
    Ino ino = open_files_[fd].ino;
    if (active_tid_.count(ino) != 0 || tx_groups_.count(ino) != 0) {
      return Status::Busy("file already has an open transaction");
    }
    members->push_back(ino);
  }
  // One transaction id for the whole group.
  storage::TxId tid = next_tid_++;
  for (Ino ino : *members) {
    active_tid_[ino] = tid;
    tx_groups_[ino] = members;
  }
  return Status::OK();
}

storage::TxId ExtFs::TidFor(Ino ino) {
  if (options_.journal_mode != JournalMode::kOff) return 0;
  auto it = active_tid_.find(ino);
  if (it != active_tid_.end()) return it->second;
  storage::TxId tid = next_tid_++;
  active_tid_[ino] = tid;
  return tid;
}

Status ExtFs::SyncFile(Fd fd, bool datasync) {
  SimNanos t0 = clock_->Now();
  ChargeSyscall();
  if (fd < 0 || size_t(fd) >= open_files_.size() || !open_files_[fd].valid) {
    return Status::InvalidArgument("bad fd");
  }
  stats_.fsync_calls++;
  Ino ino = open_files_[fd].ino;
  Status s = CommitDirty(ino, datasync);
  if (tracer_ != nullptr) {
    tracer_->Record(trace::Layer::kFs, trace::Op::kFsync, t0,
                    static_cast<uint32_t>(ino), datasync ? 1 : 0, 0,
                    clock_->Now() - t0, s.code());
  }
  return s;
}

Status ExtFs::Fsync(Fd fd) { return SyncFile(fd, false); }

Status ExtFs::Fdatasync(Fd fd) { return SyncFile(fd, true); }

Status ExtFs::CommitDirty(Ino ino, bool datasync) {
  // Collect the dirty set. Ordered/full journaling flushes all dirty data
  // (JBD's shared running transaction); off mode commits this file's data -
  // plus every linked file's - and all dirty metadata, under the shared
  // transaction id.
  std::set<Ino> members{ino};
  if (auto git = tx_groups_.find(ino); git != tx_groups_.end()) {
    members.insert(git->second->begin(), git->second->end());
  }
  std::vector<BufferCache::Entry*> entries;  // data pages, then metadata
  std::vector<BufferCache::Entry*> meta_entries;
  cache_->ForEachDirty([&](BufferCache::Entry* e) {
    if (e->metadata) {
      // fdatasync defers pages whose only change is an inode timestamp;
      // they stay dirty for the next full fsync or substantive commit.
      if (!(datasync && e->ts_only)) meta_entries.push_back(e);
    } else if (options_.journal_mode != JournalMode::kOff ||
               members.count(e->owner) != 0) {
      entries.push_back(e);
    }
  });
  const size_t nd = entries.size();
  const size_t nm = meta_entries.size();
  const size_t n = nd + nm;
  entries.insert(entries.end(), meta_entries.begin(), meta_entries.end());
  // The one page batch of this commit. Each device write and the journal
  // take its data prefix, its metadata suffix or all of it.
  std::vector<uint64_t> pages(n);
  std::vector<const uint8_t*> datas(n);
  for (size_t i = 0; i < n; ++i) {
    pages[i] = entries[i]->page;
    datas[i] = entries[i]->data.data();
  }
  const std::span<BufferCache::Entry* const> all(entries);

  switch (options_.journal_mode) {
    case JournalMode::kOff: {
      if (n == 0) {
        auto it = active_tid_.find(ino);
        if (it != active_tid_.end()) {
          XFTL_RETURN_IF_ERROR(dev_->TxCommit(it->second));
          for (Ino m : members) {
            active_tid_.erase(m);
            tx_groups_.erase(m);
          }
        }
        return RunPendingTrims();
      }
      storage::TxId tid = TidFor(ino);
      // Group writeback: the whole dirty set goes down as one queued batch
      // so the device stripes the programs across banks before the commit
      // barrier waits for them.
      XFTL_RETURN_IF_ERROR(
          dev_->TxWriteBatch(tid, pages.data(), datas.data(), n));
      stats_.data_page_writes += nd;
      stats_.metadata_page_writes += nm;
      XFTL_RETURN_IF_ERROR(dev_->TxCommit(tid));
      // Entries flip clean only once the whole transaction committed. If a
      // TxWrite fails part-way (the device degrading to read-only, say), the
      // written slots are still uncommitted device-side and IoctlAbort must
      // find these entries dirty so it discards them — otherwise the cache
      // would keep serving the aborted contents.
      MarkClean(all);
      for (Ino m : members) {
        active_tid_.erase(m);
        tx_groups_.erase(m);
      }
      return RunPendingTrims();
    }
    case JournalMode::kOrdered:
      // Data first, in place — one queued batch; the journal's Barrier 1
      // waits for the striped programs.
      if (nd > 0) {
        XFTL_RETURN_IF_ERROR(dev_->WriteBatch(pages.data(), datas.data(), nd));
        stats_.data_page_writes += nd;
        MarkClean(all.first(nd));
      }
      if (nm == 0) {
        XFTL_RETURN_IF_ERROR(dev_->FlushBarrier());
        return RunPendingTrims();
      }
      XFTL_RETURN_IF_ERROR(journal_->CommitTransaction(
          pages.data() + nd, datas.data() + nd, nm));
      // Checkpoint: metadata to home locations (made durable by the next
      // transaction's first barrier).
      XFTL_RETURN_IF_ERROR(
          dev_->WriteBatch(pages.data() + nd, datas.data() + nd, nm));
      stats_.checkpoint_page_writes += nm;
      MarkClean(all.subspan(nd));
      return RunPendingTrims();
    case JournalMode::kFull:
      if (n == 0) {
        XFTL_RETURN_IF_ERROR(dev_->FlushBarrier());
        return RunPendingTrims();
      }
      // Both data and metadata go through the journal: every page is
      // written twice. The checkpoint is one queued batch.
      XFTL_RETURN_IF_ERROR(
          journal_->CommitTransaction(pages.data(), datas.data(), n));
      XFTL_RETURN_IF_ERROR(dev_->WriteBatch(pages.data(), datas.data(), n));
      stats_.data_page_writes += nd;
      stats_.checkpoint_page_writes += nm;
      MarkClean(all);
      return RunPendingTrims();
  }
  return Status::OK();
}

Status ExtFs::RunPendingTrims() {
  const uint64_t bits_per_page = uint64_t(sb_.page_size) * 8;
  for (uint32_t page : pending_trims_) {
    // The page may have been reallocated to another file since it was
    // freed; trimming it now would destroy live data. Re-check the bitmap.
    uint64_t bpage = sb_.bitmap_start + page / bits_per_page;
    uint64_t bit = page % bits_per_page;
    XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e, cache_->Get(bpage));
    if ((e->data[bit / 8] & (1u << (bit % 8))) != 0) continue;
    XFTL_RETURN_IF_ERROR(dev_->Trim(page));
    stats_.trims++;
  }
  pending_trims_.clear();
  return Status::OK();
}

Status ExtFs::IoctlAbort(Fd fd) {
  SimNanos t0 = clock_->Now();
  ChargeSyscall();
  if (fd < 0 || size_t(fd) >= open_files_.size() || !open_files_[fd].valid) {
    return Status::InvalidArgument("bad fd");
  }
  if (options_.journal_mode != JournalMode::kOff) {
    return Status::NotSupported("abort ioctl requires journaling off");
  }
  Ino ino = open_files_[fd].ino;
  auto it = active_tid_.find(ino);
  storage::TxId tid = it == active_tid_.end() ? 0 : it->second;
  std::set<Ino> members{ino};
  if (auto git = tx_groups_.find(ino); git != tx_groups_.end()) {
    members.insert(git->second->begin(), git->second->end());
  }

  // Drop every dirty page the transaction touched: the linked files' cached
  // data pages and all uncommitted metadata (they reload from their
  // committed versions).
  std::vector<uint64_t> to_discard;
  cache_->ForEachDirty([&](BufferCache::Entry* e) {
    if (e->metadata || members.count(e->owner) != 0) {
      to_discard.push_back(e->page);
    }
  });
  for (uint64_t page : to_discard) cache_->Discard(page);
  pending_trims_.clear();

  if (tid != 0) {
    XFTL_RETURN_IF_ERROR(dev_->TxAbort(tid));
  }
  for (Ino m : members) {
    active_tid_.erase(m);
    tx_groups_.erase(m);
  }
  stats_.tx_aborts++;
  if (tracer_ != nullptr) {
    tracer_->Record(trace::Layer::kFs, trace::Op::kTxAbort, t0,
                    static_cast<uint32_t>(ino), to_discard.size(), 0,
                    clock_->Now() - t0, StatusCode::kOk);
  }
  return Status::OK();
}

StatusOr<FsckReport> ExtFs::Fsck() {
  FsckReport report;
  std::set<uint32_t> claimed;  // data-region pages owned by some file

  auto bit_set = [&](uint32_t page) -> StatusOr<bool> {
    const uint64_t bits_per_page = uint64_t(sb_.page_size) * 8;
    uint64_t bpage = sb_.bitmap_start + page / bits_per_page;
    uint64_t bit = page % bits_per_page;
    XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e, cache_->Get(bpage));
    return (e->data[bit / 8] & (1u << (bit % 8))) != 0;
  };

  // Claims one page for `ino`, validating range, bitmap and uniqueness.
  auto claim = [&](Ino ino, uint32_t page) -> Status {
    if (page < sb_.data_start || page >= sb_.num_pages) {
      return Status::Corruption("inode " + std::to_string(ino) +
                                " references page " + std::to_string(page) +
                                " outside the data region");
    }
    if (!claimed.insert(page).second) {
      return Status::Corruption("page " + std::to_string(page) +
                                " referenced by two files");
    }
    XFTL_ASSIGN_OR_RETURN(bool set, bit_set(page));
    if (!set) {
      return Status::Corruption("page " + std::to_string(page) +
                                " in use but free in the bitmap");
    }
    report.pages_in_use++;
    return Status::OK();
  };

  // Walks one inode's page tree (data + pointer pages).
  auto walk_inode = [&](Ino ino) -> Status {
    XFTL_ASSIGN_OR_RETURN(Inode inode, LoadInode(ino));
    if (inode.mode == InodeMode::kFree) {
      return Status::Corruption("dirent references free inode " +
                                std::to_string(ino));
    }
    const uint64_t ppp = sb_.page_size / kPtrSize;
    for (uint32_t i = 0; i < kDirectPointers; ++i) {
      if (inode.direct[i] != kNoPage) {
        XFTL_RETURN_IF_ERROR(claim(ino, inode.direct[i]));
      }
    }
    auto walk_ptr_page = [&](uint32_t ptr_page) -> Status {
      XFTL_RETURN_IF_ERROR(claim(ino, ptr_page));
      XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e, cache_->Get(ptr_page));
      std::vector<uint32_t> ptrs(ppp);
      for (uint64_t i = 0; i < ppp; ++i) {
        ptrs[i] = DecodeFixed32(e->data.data() + i * kPtrSize);
      }
      for (uint32_t p : ptrs) {
        if (p != kNoPage) XFTL_RETURN_IF_ERROR(claim(ino, p));
      }
      return Status::OK();
    };
    if (inode.indirect != kNoPage) {
      XFTL_RETURN_IF_ERROR(walk_ptr_page(inode.indirect));
    }
    if (inode.dindirect != kNoPage) {
      XFTL_RETURN_IF_ERROR(claim(ino, inode.dindirect));
      XFTL_ASSIGN_OR_RETURN(BufferCache::Entry * e,
                            cache_->Get(inode.dindirect));
      std::vector<uint32_t> l2s(ppp);
      for (uint64_t i = 0; i < ppp; ++i) {
        l2s[i] = DecodeFixed32(e->data.data() + i * kPtrSize);
      }
      for (uint32_t l2 : l2s) {
        if (l2 != kNoPage) XFTL_RETURN_IF_ERROR(walk_ptr_page(l2));
      }
    }
    return Status::OK();
  };

  // Root directory plus every named file.
  std::set<Ino> reachable{kRootIno};
  XFTL_RETURN_IF_ERROR(walk_inode(kRootIno));
  XFTL_ASSIGN_OR_RETURN(Inode root, LoadInode(kRootIno));
  XFTL_RETURN_IF_ERROR(
      WalkDirents(&root, [&](DirSlot& s) -> StatusOr<bool> {
        const Dirent& d = s.dirent;
        if (!d.in_use) return false;
        if (d.ino >= sb_.inode_count) {
          return Status::Corruption("dirent '" + d.name + "' has bad inode");
        }
        if (!reachable.insert(d.ino).second) {
          return Status::Corruption("inode " + std::to_string(d.ino) +
                                    " has two directory entries");
        }
        XFTL_RETURN_IF_ERROR(walk_inode(d.ino));
        report.files++;
        return false;
      }).status());

  // Orphan inodes: allocated but unreachable.
  for (Ino ino = 0; ino < sb_.inode_count; ++ino) {
    XFTL_ASSIGN_OR_RETURN(Inode inode, LoadInode(ino));
    if (inode.mode != InodeMode::kFree && reachable.count(ino) == 0) {
      return Status::Corruption("orphan inode " + std::to_string(ino));
    }
  }

  // Leaked pages: allocated in the bitmap but not claimed by any file.
  for (uint64_t page = sb_.data_start; page < sb_.num_pages; ++page) {
    XFTL_ASSIGN_OR_RETURN(bool set, bit_set(uint32_t(page)));
    if (set && claimed.count(uint32_t(page)) == 0) report.leaked_pages++;
  }
  return report;
}

Status ExtFs::SyncAll() {
  if (options_.journal_mode == JournalMode::kOff) {
    // Commit every file with an open transaction, then any remaining dirty
    // metadata under a fresh transaction.
    std::vector<Ino> inos;
    for (const auto& [ino, tid] : active_tid_) inos.push_back(ino);
    for (Ino ino : inos) XFTL_RETURN_IF_ERROR(CommitDirty(ino, false));
    bool any_dirty = false;
    cache_->ForEachDirty([&](BufferCache::Entry*) { any_dirty = true; });
    if (any_dirty) XFTL_RETURN_IF_ERROR(CommitDirty(kRootIno, false));
    return Status::OK();
  }
  XFTL_RETURN_IF_ERROR(CommitDirty(kRootIno, false));
  return dev_->FlushBarrier();
}

}  // namespace xftl::fs
