#include "sql/pager.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "common/coding.h"
#include "common/crc32.h"

namespace xftl::sql {

namespace {
constexpr uint32_t kDbMagic = 0x5853514c;   // "XSQL"
constexpr uint32_t kJrnlMagic = 0x584a524e;  // "XJRN"
constexpr uint32_t kWalMagic = 0x5857414c;   // "XWAL"
constexpr size_t kHeaderBytes = 48;          // on page 1
constexpr size_t kWalFileHeader = 16;
constexpr size_t kWalFrameHeader = 24;
}  // namespace

const char* SqlJournalModeName(SqlJournalMode mode) {
  switch (mode) {
    case SqlJournalMode::kDelete:
      return "delete";
    case SqlJournalMode::kWal:
      return "wal";
    case SqlJournalMode::kOff:
      return "off";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// PageRef
// ---------------------------------------------------------------------------

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  Unpin();
  pager_ = other.pager_;
  pgno_ = other.pgno_;
  data_ = other.data_;
  frame_ = other.frame_;
  other.pager_ = nullptr;
  other.data_ = nullptr;
  other.frame_ = nullptr;
  return *this;
}

PageRef::~PageRef() { Unpin(); }

void PageRef::Unpin() {
  if (frame_ == nullptr) return;
  DCHECK_GT(frame_->pins, 0);
  frame_->pins--;
}

Status PageRef::MarkDirty() {
  CHECK(pager_ != nullptr);
  return pager_->MarkPageDirty(pgno_);
}

// ---------------------------------------------------------------------------
// open / close / header
// ---------------------------------------------------------------------------

Pager::Pager(fs::ExtFs* fs, std::string db_path, const PagerOptions& options)
    : fs_(fs), db_path_(std::move(db_path)), options_(options) {}

StatusOr<std::unique_ptr<Pager>> Pager::Open(fs::ExtFs* fs,
                                             const std::string& db_path,
                                             const PagerOptions& options) {
  auto pager =
      std::unique_ptr<Pager>(new Pager(fs, db_path, options));
  XFTL_RETURN_IF_ERROR(pager->Initialize());
  XFTL_RETURN_IF_ERROR(pager->RecoverIfNeeded());
  XFTL_RETURN_IF_ERROR(pager->LoadHeader());
  return pager;
}

Pager::~Pager() { (void)Close(); }

Status Pager::Initialize() {
  // Page size follows the device/file-system page (8 KB in the paper).
  page_size_ = 0;
  XFTL_ASSIGN_OR_RETURN(bool exists, fs_->Exists(db_path_));
  if (!exists) {
    if (options_.read_only) {
      return Status::NotFound("database " + db_path_ +
                              " does not exist (read-only connection)");
    }
    XFTL_ASSIGN_OR_RETURN(db_fd_, fs_->Create(db_path_));
  } else {
    XFTL_ASSIGN_OR_RETURN(db_fd_, fs_->Open(db_path_));
  }
  // Derive the page size from the FS by writing the header lazily below.
  // ExtFs does not expose its page size directly; read the superblock-sized
  // default from a fresh write granularity: we simply require callers to use
  // the device page size, which we learn from the first page-1 read/write.
  // In this implementation we query it via a 0-byte probe: the database
  // header stores it authoritatively.
  XFTL_ASSIGN_OR_RETURN(uint64_t size, fs_->FileSize(db_fd_));
  if (size == 0) {
    page_size_ = fs_page_size();
    page_count_ = 1;
    freelist_head_ = kNoPgno;
    std::vector<uint8_t> buf(page_size_, 0);
    EncodeFixed32(buf.data() + 0, kDbMagic);
    EncodeFixed32(buf.data() + 4, page_size_);
    EncodeFixed32(buf.data() + 8, page_count_);
    EncodeFixed32(buf.data() + 12, freelist_head_);
    XFTL_RETURN_IF_ERROR(fs_->Write(db_fd_, 0, buf.data(), page_size_));
    XFTL_RETURN_IF_ERROR(fs_->Fsync(db_fd_));
  } else {
    std::vector<uint8_t> probe(kHeaderBytes);
    XFTL_ASSIGN_OR_RETURN(size_t n, fs_->Read(db_fd_, 0, kHeaderBytes,
                                              probe.data()));
    if (n < kHeaderBytes || DecodeFixed32(probe.data()) != kDbMagic) {
      return Status::Corruption("not a MiniSQLite database: " + db_path_);
    }
    page_size_ = DecodeFixed32(probe.data() + 4);
  }
  return Status::OK();
}

uint32_t Pager::fs_page_size() const {
  // The paper sets the SQLite page size equal to the flash page size; ExtFs
  // pages equal device pages, so we take the device geometry.
  return fs_->page_size();
}

Status Pager::RecoverIfNeeded() {
  SimNanos t0 = fs_->clock()->Now();
  if (options_.read_only) {
    // A reader must not write: no hot-journal replay (that is the live
    // writer's journal, not a crashed one), no WAL checkpoint. Just build
    // the committed-frame index by scanning; BEGIN READONLY re-scans.
    if (options_.journal_mode == SqlJournalMode::kWal) {
      XFTL_RETURN_IF_ERROR(RescanWal());
    }
    stats_.last_recovery_nanos = fs_->clock()->Now() - t0;
    return Status::OK();
  }
  switch (options_.journal_mode) {
    case SqlJournalMode::kDelete: {
      XFTL_ASSIGN_OR_RETURN(bool hot, fs_->Exists(JournalPath()));
      if (hot) XFTL_RETURN_IF_ERROR(ReplayHotJournal());
      break;
    }
    case SqlJournalMode::kWal:
      XFTL_RETURN_IF_ERROR(RecoverWal());
      break;
    case SqlJournalMode::kOff:
      // The device already recovered: committed transactions were redone
      // from the X-L2P, uncommitted ones discarded. Nothing to do.
      break;
  }
  stats_.last_recovery_nanos = fs_->clock()->Now() - t0;
  return Status::OK();
}

Status Pager::LoadHeader() {
  std::vector<uint8_t> buf(page_size_);
  XFTL_RETURN_IF_ERROR(ReadPageFromFiles(1, buf.data()));
  if (DecodeFixed32(buf.data()) != kDbMagic) {
    return Status::Corruption("bad database header");
  }
  page_count_ = DecodeFixed32(buf.data() + 8);
  freelist_head_ = DecodeFixed32(buf.data() + 12);
  for (int i = 0; i < 8; ++i) {
    header_fields_[i] = DecodeFixed32(buf.data() + 16 + i * 4);
  }
  return Status::OK();
}

Status Pager::WriteHeader() {
  XFTL_ASSIGN_OR_RETURN(PageFrame * e, FetchPage(1));
  e->pins++;  // keep alive across MarkPageDirty
  Status s = MarkPageDirty(1);
  if (s.ok()) {
    EncodeFixed32(e->data.data() + 0, kDbMagic);
    EncodeFixed32(e->data.data() + 4, page_size_);
    EncodeFixed32(e->data.data() + 8, page_count_);
    EncodeFixed32(e->data.data() + 12, freelist_head_);
    for (int i = 0; i < 8; ++i) {
      EncodeFixed32(e->data.data() + 16 + i * 4, header_fields_[i]);
    }
  }
  e->pins--;
  return s;
}

StatusOr<uint32_t> Pager::GetHeaderField(int slot) {
  CHECK_GE(slot, 0);
  CHECK_LT(slot, 8);
  return header_fields_[slot];
}

Status Pager::SetHeaderField(int slot, uint32_t value) {
  CHECK_GE(slot, 0);
  CHECK_LT(slot, 8);
  if (!in_txn_) return Status::FailedPrecondition("no open transaction");
  header_fields_[slot] = value;
  return WriteHeader();
}

Status Pager::Close() {
  if (db_fd_ < 0) return Status::OK();
  if (in_txn_) return Status::FailedPrecondition("transaction still open");
  if (read_txn_) (void)EndReadOnly();  // a read transaction closes cleanly
  if (journal_fd_ >= 0) {
    (void)fs_->Close(journal_fd_);
    journal_fd_ = -1;
  }
  if (wal_fd_ >= 0) {
    (void)fs_->Close(wal_fd_);
    wal_fd_ = -1;
  }
  Status s = fs_->Close(db_fd_);
  db_fd_ = -1;
  cache_.clear();
  lru_.clear();
  return s;
}

// ---------------------------------------------------------------------------
// cache
// ---------------------------------------------------------------------------

StatusOr<PageFrame*> Pager::FetchPage(Pgno pgno) {
  auto it = cache_.find(pgno);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return &it->second;
  }
  XFTL_RETURN_IF_ERROR(EvictIfNeeded());
  PageFrame& e = cache_[pgno];
  e.data.resize(page_size_);
  Status read = ReadPageFromFiles(pgno, e.data.data());
  if (!read.ok()) {
    // The entry was never linked into the LRU; leaving it cached would hand
    // a later hit a singular lru_it. Failed reads (a degraded array, a dead
    // link) must be retryable, so drop it and re-read next time.
    cache_.erase(pgno);
    return read;
  }
  stats_.page_reads++;
  lru_.push_front(pgno);
  e.lru_it = lru_.begin();
  return &e;
}

Status Pager::EvictIfNeeded() {
  while (cache_.size() >= options_.cache_pages) {
    Pgno victim = kNoPgno;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (cache_.at(*it).pins == 0) {
        victim = *it;
        break;
      }
    }
    if (victim == kNoPgno) return Status::OK();  // all pinned: grow
    PageFrame& e = cache_.at(victim);
    if (e.dirty) {
      // Steal: the uncommitted page leaves the cache.
      stats_.cache_steals++;
      switch (options_.journal_mode) {
        case SqlJournalMode::kDelete:
          // The original is already journaled; the journal must be durable
          // before the database file changes.
          XFTL_RETURN_IF_ERROR(SyncJournal(/*finalize=*/true));
          XFTL_RETURN_IF_ERROR(WritePageToDb(victim, e.data.data()));
          db_dirtied_in_txn_ = true;
          break;
        case SqlJournalMode::kWal: {
          XFTL_RETURN_IF_ERROR(
              AppendWalFrame(victim, e.data.data(), /*commit_size=*/0));
          break;
        }
        case SqlJournalMode::kOff:
          // The file system tags the write with the open transaction id;
          // X-FTL keeps it rollbackable.
          XFTL_RETURN_IF_ERROR(WritePageToDb(victim, e.data.data()));
          break;
      }
      // Commit and Rollback no longer see the page, so dirtied_ stays as
      // short as the cache even when a transaction outgrows it.
      auto listed = std::find(dirtied_.begin(), dirtied_.end(), victim);
      if (listed != dirtied_.end()) {
        *listed = dirtied_.back();
        dirtied_.pop_back();
      }
    }
    lru_.erase(e.lru_it);
    cache_.erase(victim);
  }
  return Status::OK();
}

StatusOr<PageRef> Pager::Get(Pgno pgno) {
  if (pgno == kNoPgno || pgno > page_count_) {
    return Status::OutOfRange("page " + std::to_string(pgno) + " of " +
                              std::to_string(page_count_));
  }
  if (read_txn_) {
    // Read transactions bypass the main cache: its entries may be newer
    // (another connection's commits already read back) or older than the
    // snapshot. Pages land in the per-transaction cache instead, and the
    // ref has no frame to pin.
    auto it = snap_cache_.find(pgno);
    if (it == snap_cache_.end()) {
      std::vector<uint8_t> buf(page_size_);
      XFTL_RETURN_IF_ERROR(ReadSnapshotPage(pgno, buf.data()));
      stats_.page_reads++;
      it = snap_cache_.emplace(pgno, std::move(buf)).first;
    }
    return PageRef(this, pgno, it->second.data(), /*frame=*/nullptr);
  }
  XFTL_ASSIGN_OR_RETURN(PageFrame * e, FetchPage(pgno));
  e->pins++;
  return PageRef(this, pgno, e->data.data(), e);
}

Status Pager::MarkPageDirty(Pgno pgno) {
  if (!in_txn_) return Status::FailedPrecondition("no open transaction");
  auto it = cache_.find(pgno);
  CHECK(it != cache_.end()) << "dirtying a page that is not cached";
  PageFrame& e = it->second;
  // The caller is about to write the frame: its cell index goes stale.
  e.cells.Clear();
  if (options_.journal_mode == SqlJournalMode::kDelete &&
      !journaled_.contains(pgno)) {
    // Save the transaction-start version before the first modification.
    XFTL_RETURN_IF_ERROR(JournalOriginal(pgno, e.data.data()));
    journaled_.insert(pgno);
  }
  if (!e.dirty) dirtied_.push_back(pgno);
  e.dirty = true;
  return Status::OK();
}

Status Pager::ReadPageFromFiles(Pgno pgno, uint8_t* out) {
  if (options_.journal_mode == SqlJournalMode::kWal && wal_fd_ >= 0) {
    uint64_t frame_off = 0;
    bool found = false;
    if (in_txn_) {
      auto it = wal_uncommitted_.find(pgno);
      if (it != wal_uncommitted_.end()) {
        frame_off = it->second;
        found = true;
      }
    }
    if (!found) {
      auto it = wal_committed_.find(pgno);
      if (it != wal_committed_.end()) {
        frame_off = it->second;
        found = true;
      }
    }
    if (found) {
      stats_.wal_index_hits++;
      XFTL_ASSIGN_OR_RETURN(
          size_t n,
          fs_->Read(wal_fd_, frame_off + kWalFrameHeader, page_size_, out));
      if (n != page_size_) return Status::Corruption("short WAL frame read");
      return Status::OK();
    }
  }
  XFTL_ASSIGN_OR_RETURN(
      size_t n,
      fs_->Read(db_fd_, uint64_t(pgno - 1) * page_size_, page_size_, out));
  if (n < page_size_) std::memset(out + n, 0, page_size_ - n);
  return Status::OK();
}

Status Pager::WritePageToDb(Pgno pgno, const uint8_t* data) {
  stats_.db_page_writes++;
  return fs_->Write(db_fd_, uint64_t(pgno - 1) * page_size_, data,
                    page_size_);
}

// ---------------------------------------------------------------------------
// allocation
// ---------------------------------------------------------------------------

StatusOr<PageRef> Pager::Allocate() {
  if (!in_txn_) return Status::FailedPrecondition("no open transaction");
  if (freelist_head_ != kNoPgno) {
    Pgno pgno = freelist_head_;
    XFTL_ASSIGN_OR_RETURN(PageRef ref, Get(pgno));
    freelist_head_ = DecodeFixed32(ref.data());
    XFTL_RETURN_IF_ERROR(WriteHeader());
    XFTL_RETURN_IF_ERROR(ref.MarkDirty());
    std::memset(ref.data(), 0, page_size_);
    return ref;
  }
  Pgno pgno = ++page_count_;
  XFTL_RETURN_IF_ERROR(WriteHeader());
  // Fresh page: no file read.
  XFTL_RETURN_IF_ERROR(EvictIfNeeded());
  PageFrame& e = cache_[pgno];
  e.data.assign(page_size_, 0);
  lru_.push_front(pgno);
  e.lru_it = lru_.begin();
  e.pins = 1;
  PageRef ref(this, pgno, e.data.data(), &e);
  XFTL_RETURN_IF_ERROR(ref.MarkDirty());
  return ref;
}

Status Pager::Free(Pgno pgno) {
  if (!in_txn_) return Status::FailedPrecondition("no open transaction");
  XFTL_ASSIGN_OR_RETURN(PageRef ref, Get(pgno));
  XFTL_RETURN_IF_ERROR(ref.MarkDirty());
  std::memset(ref.data(), 0, page_size_);
  EncodeFixed32(ref.data(), freelist_head_);
  freelist_head_ = pgno;
  return WriteHeader();
}

Status Pager::SyncFd(fs::Fd fd, bool datasync) {
  return datasync ? fs_->Fdatasync(fd) : fs_->Fsync(fd);
}

// ---------------------------------------------------------------------------
// transactions
// ---------------------------------------------------------------------------

Status Pager::Begin() {
  if (options_.read_only) {
    return Status::FailedPrecondition(
        "write transaction on a read-only connection");
  }
  if (in_txn_ || read_txn_) {
    return Status::FailedPrecondition("transaction already open");
  }
  in_txn_ = true;
  db_dirtied_in_txn_ = false;
  journal_records_ = 0;
  journal_synced_ = false;
  TraceSql(trace::Op::kBegin, fs_->clock()->Now(), 0, StatusCode::kOk);
  return Status::OK();
}

Status Pager::BeginReadOnly() {
  if (in_txn_ || read_txn_) {
    return Status::FailedPrecondition("transaction already open");
  }
  SimNanos t0 = fs_->clock()->Now();
  if (options_.journal_mode == SqlJournalMode::kOff &&
      fs_->SupportsSnapshots()) {
    XFTL_ASSIGN_OR_RETURN(snap_epoch_, fs_->SnapPin());
    snap_pinned_ = true;
  } else if (options_.journal_mode == SqlJournalMode::kWal) {
    // SQLite's reader snapshot: latch the committed-frame index at BEGIN.
    XFTL_RETURN_IF_ERROR(RescanWal());
  }
  read_txn_ = true;
  snap_cache_.clear();
  // Load the header as of the snapshot so page_count_ (the Get() bounds) and
  // the schema root match the state the reader sees — the live header may
  // already include another connection's later commits.
  std::vector<uint8_t> buf(page_size_);
  Status s = ReadSnapshotPage(1, buf.data());
  if (s.ok() && DecodeFixed32(buf.data()) != kDbMagic) {
    s = Status::Corruption("bad database header in snapshot");
  }
  if (!s.ok()) {
    (void)EndReadOnly();
    return s;
  }
  page_count_ = DecodeFixed32(buf.data() + 8);
  freelist_head_ = DecodeFixed32(buf.data() + 12);
  for (int i = 0; i < 8; ++i) {
    header_fields_[i] = DecodeFixed32(buf.data() + 16 + i * 4);
  }
  snap_cache_[1] = std::move(buf);
  // `a` = 1 marks the read-only flavor in the trace.
  TraceSql(trace::Op::kBegin, t0, 1, StatusCode::kOk);
  return Status::OK();
}

Status Pager::ReadSnapshotPage(Pgno pgno, uint8_t* out) {
  if (snap_pinned_) {
    stats_.snap_page_reads++;
    return fs_->SnapReadPage(db_fd_, pgno - 1, snap_epoch_, out);
  }
  return ReadPageFromFiles(pgno, out);
}

Status Pager::EndReadOnly() {
  Status s;
  if (snap_pinned_) {
    s = fs_->SnapUnpin(snap_epoch_);
    snap_pinned_ = false;
  }
  snap_cache_.clear();
  read_txn_ = false;
  stats_.read_txns++;
  return s;
}

Status Pager::Commit() {
  if (read_txn_) return EndReadOnly();
  if (!in_txn_) return Status::FailedPrecondition("no open transaction");
  SimNanos t0 = fs_->clock()->Now();
  // The cached pages this transaction dirtied, in pgno order.
  std::vector<Pgno> dirty;
  for (Pgno pgno : dirtied_) {
    auto it = cache_.find(pgno);
    if (it != cache_.end() && it->second.dirty) dirty.push_back(pgno);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  switch (options_.journal_mode) {
    case SqlJournalMode::kDelete: {
      if (dirty.empty() && journal_fd_ < 0 && !db_dirtied_in_txn_) break;
      // Figure 1, rollback mode: sync journal records, then its header
      // (the extra fsync), force-write the database, sync it, delete the
      // journal - the transaction-completion point.
      XFTL_RETURN_IF_ERROR(SyncJournal(/*finalize=*/true));
      for (Pgno pgno : dirty) {
        PageFrame& e = cache_.at(pgno);
        XFTL_RETURN_IF_ERROR(WritePageToDb(pgno, e.data.data()));
      }
      XFTL_RETURN_IF_ERROR(SyncFd(db_fd_, /*datasync=*/false));
      XFTL_RETURN_IF_ERROR(DeleteJournal());
      // Only a fully committed transaction may mark its pages clean: a
      // failure part-way (e.g. the device degrading to read-only) must leave
      // them dirty so Rollback() drops them instead of serving stale
      // "clean" copies.
      for (Pgno pgno : dirty) cache_.at(pgno).dirty = false;
      break;
    }
    case SqlJournalMode::kWal: {
      if (dirty.empty() && wal_uncommitted_.empty()) break;
      for (size_t i = 0; i < dirty.size(); ++i) {
        PageFrame& e = cache_.at(dirty[i]);
        bool last = i + 1 == dirty.size();
        XFTL_RETURN_IF_ERROR(AppendWalFrame(
            dirty[i], e.data.data(), last ? page_count_ : 0));
      }
      if (dirty.empty()) {
        // Everything was stolen into the WAL already; emit a pure commit
        // frame for page 1 so recovery sees the boundary.
        XFTL_ASSIGN_OR_RETURN(PageFrame * e, FetchPage(1));
        XFTL_RETURN_IF_ERROR(
            AppendWalFrame(1, e->data.data(), page_count_));
      }
      XFTL_RETURN_IF_ERROR(SyncFd(wal_fd_, /*datasync=*/false));
      for (const auto& [pgno, off] : wal_uncommitted_) {
        wal_committed_[pgno] = off;
      }
      wal_uncommitted_.clear();
      wal_committed_end_ = wal_append_off_;
      wal_committed_crc_ = wal_prev_crc_;
      // Clean bits flip only after the fsync: a failed append/sync leaves
      // the pages dirty for Rollback() to drop.
      for (Pgno pgno : dirty) cache_.at(pgno).dirty = false;
      if (wal_frames_since_checkpoint_ >= options_.wal_autocheckpoint) {
        XFTL_RETURN_IF_ERROR(CheckpointWal());
      }
      break;
    }
    case SqlJournalMode::kOff: {
      if (dirty.empty() && !db_dirtied_in_txn_) break;
      // Force policy: write every page the transaction updated straight to
      // the database file; fdatasync is the commit point (TxWrite* +
      // TxCommit underneath) — as on Linux SQLite, timestamp-only inode
      // churn stays out of the device transaction.
      for (Pgno pgno : dirty) {
        PageFrame& e = cache_.at(pgno);
        XFTL_RETURN_IF_ERROR(WritePageToDb(pgno, e.data.data()));
      }
      XFTL_RETURN_IF_ERROR(SyncFd(db_fd_, /*datasync=*/true));
      for (Pgno pgno : dirty) cache_.at(pgno).dirty = false;
      break;
    }
  }
  journaled_.clear();
  dirtied_.clear();
  in_txn_ = false;
  stats_.commits++;
  TraceSql(trace::Op::kCommit, t0, dirty.size(), StatusCode::kOk);
  return Status::OK();
}

Status Pager::Rollback() {
  if (read_txn_) return EndReadOnly();
  if (!in_txn_) return Status::FailedPrecondition("no open transaction");
  SimNanos t0 = fs_->clock()->Now();
  switch (options_.journal_mode) {
    case SqlJournalMode::kDelete: {
      if (db_dirtied_in_txn_) {
        // Stolen pages reached the database; restore their originals from
        // the journal.
        XFTL_RETURN_IF_ERROR(ReplayHotJournal());
      } else {
        XFTL_RETURN_IF_ERROR(DeleteJournal());
      }
      break;
    }
    case SqlJournalMode::kWal: {
      // Frames appended by this transaction become dead space; rewind the
      // append cursor (and checksum chain) to the committed boundary so the
      // next commit overwrites them.
      wal_uncommitted_.clear();
      wal_append_off_ = wal_committed_end_;
      wal_prev_crc_ = wal_committed_crc_;
      break;
    }
    case SqlJournalMode::kOff: {
      // The paper's single SQLite change: tell the device to roll back.
      XFTL_RETURN_IF_ERROR(fs_->IoctlAbort(db_fd_));
      break;
    }
  }
  // Drop all dirty pages; clean versions reload on demand.
  uint64_t dropped = 0;
  for (Pgno pgno : dirtied_) {
    auto it = cache_.find(pgno);
    if (it == cache_.end() || !it->second.dirty) {
      continue;  // stolen, or listed twice
    }
    CHECK_EQ(it->second.pins, 0) << "rolling back a pinned page";
    lru_.erase(it->second.lru_it);
    cache_.erase(it);
    dropped++;
  }
  journaled_.clear();
  dirtied_.clear();
  in_txn_ = false;
  stats_.rollbacks++;
  XFTL_RETURN_IF_ERROR(LoadHeader());
  TraceSql(trace::Op::kRollback, t0, dropped, StatusCode::kOk);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// rollback journal
// ---------------------------------------------------------------------------

Status Pager::EnsureJournalOpen() {
  if (journal_fd_ >= 0) return Status::OK();
  XFTL_ASSIGN_OR_RETURN(bool exists, fs_->Exists(JournalPath()));
  if (exists) {
    XFTL_ASSIGN_OR_RETURN(journal_fd_, fs_->Open(JournalPath()));
    XFTL_RETURN_IF_ERROR(fs_->Truncate(journal_fd_, 0));
  } else {
    XFTL_ASSIGN_OR_RETURN(journal_fd_, fs_->Create(JournalPath()));
  }
  stats_.journal_creates++;
  journal_records_ = 0;
  journal_synced_ = false;
  return Status::OK();
}

Status Pager::JournalOriginal(Pgno pgno, const uint8_t* data) {
  XFTL_RETURN_IF_ERROR(EnsureJournalOpen());
  // Record: pgno(4) + page + crc(4), starting after the header page.
  uint64_t off = uint64_t(page_size_) +
                 uint64_t(journal_records_) * (8 + page_size_);
  uint8_t hdr[4];
  EncodeFixed32(hdr, pgno);
  XFTL_RETURN_IF_ERROR(fs_->Write(journal_fd_, off, hdr, 4));
  XFTL_RETURN_IF_ERROR(fs_->Write(journal_fd_, off + 4, data, page_size_));
  uint8_t crc[4];
  EncodeFixed32(crc, Crc32c(data, page_size_, Crc32c(hdr, 4)));
  XFTL_RETURN_IF_ERROR(
      fs_->Write(journal_fd_, off + 4 + page_size_, crc, 4));
  journal_records_++;
  journal_synced_ = false;
  stats_.journal_page_writes++;
  return Status::OK();
}

Status Pager::SyncJournal(bool finalize) {
  if (journal_fd_ < 0) return Status::OK();
  if (journal_synced_) return Status::OK();
  // Sync the record data first...
  XFTL_RETURN_IF_ERROR(SyncFd(journal_fd_, /*datasync=*/false));
  if (finalize) {
    // ...then publish the record count in the header and sync it
    // separately (the paper: "the header page of a journal file requires
    // being synced separately from data pages").
    std::vector<uint8_t> hdr(16, 0);
    EncodeFixed32(hdr.data(), kJrnlMagic);
    EncodeFixed32(hdr.data() + 4, journal_records_);
    EncodeFixed32(hdr.data() + 8, page_size_);
    XFTL_RETURN_IF_ERROR(fs_->Write(journal_fd_, 0, hdr.data(), hdr.size()));
    stats_.journal_page_writes++;  // the header page
    XFTL_RETURN_IF_ERROR(SyncFd(journal_fd_, /*datasync=*/false));
    journal_synced_ = true;
  }
  return Status::OK();
}

Status Pager::DeleteJournal() {
  if (journal_fd_ >= 0) {
    XFTL_RETURN_IF_ERROR(fs_->Close(journal_fd_));
    journal_fd_ = -1;
  }
  XFTL_ASSIGN_OR_RETURN(bool exists, fs_->Exists(JournalPath()));
  if (exists) {
    XFTL_RETURN_IF_ERROR(fs_->Unlink(JournalPath()));
    stats_.journal_deletes++;
  }
  journal_records_ = 0;
  journal_synced_ = false;
  return Status::OK();
}

Status Pager::ReplayHotJournal() {
  // Close our own handle if the journal belongs to the current transaction.
  if (journal_fd_ < 0) {
    XFTL_ASSIGN_OR_RETURN(bool exists, fs_->Exists(JournalPath()));
    if (!exists) return Status::OK();
    XFTL_ASSIGN_OR_RETURN(journal_fd_, fs_->Open(JournalPath()));
  }
  std::vector<uint8_t> hdr(16);
  XFTL_ASSIGN_OR_RETURN(size_t n, fs_->Read(journal_fd_, 0, 16, hdr.data()));
  if (n == 16 && DecodeFixed32(hdr.data()) == kJrnlMagic &&
      DecodeFixed32(hdr.data() + 8) == page_size_) {
    uint32_t nrec = DecodeFixed32(hdr.data() + 4);
    std::vector<uint8_t> rec(8 + page_size_);
    // Only a page's first record holds its original, should it repeat.
    std::unordered_set<Pgno> restored;
    for (uint32_t i = 0; i < nrec; ++i) {
      uint64_t off = uint64_t(page_size_) + uint64_t(i) * (8 + page_size_);
      XFTL_ASSIGN_OR_RETURN(
          size_t got, fs_->Read(journal_fd_, off, rec.size(), rec.data()));
      if (got != rec.size()) break;
      Pgno pgno = DecodeFixed32(rec.data());
      uint32_t crc = DecodeFixed32(rec.data() + 4 + page_size_);
      if (crc != Crc32c(rec.data() + 4, page_size_, Crc32c(rec.data(), 4))) {
        break;  // torn record; everything before it is still valid
      }
      if (!restored.insert(pgno).second) continue;
      XFTL_RETURN_IF_ERROR(WritePageToDb(pgno, rec.data() + 4));
      cache_.erase(pgno);  // drop any stale cached copy
    }
    XFTL_RETURN_IF_ERROR(fs_->Fsync(db_fd_));
  }
  // An unreadable or unfinalized header means the transaction never reached
  // its first database write, so the database is already consistent.
  XFTL_RETURN_IF_ERROR(DeleteJournal());
  // The LRU list may now contain erased entries; rebuild it.
  lru_.clear();
  for (auto& [pgno, e] : cache_) {
    lru_.push_front(pgno);
    e.lru_it = lru_.begin();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

Status Pager::AppendWalFrame(Pgno pgno, const uint8_t* data,
                             uint32_t commit_size) {
  CHECK_GE(wal_fd_, 0);
  uint8_t hdr[kWalFrameHeader] = {0};
  EncodeFixed32(hdr, pgno);
  EncodeFixed32(hdr + 4, commit_size);
  uint32_t crc = Crc32c(hdr, 8, wal_prev_crc_);
  crc = Crc32c(data, page_size_, crc);
  EncodeFixed32(hdr + 8, crc);
  uint64_t off = wal_append_off_;
  XFTL_RETURN_IF_ERROR(fs_->Write(wal_fd_, off, hdr, kWalFrameHeader));
  XFTL_RETURN_IF_ERROR(
      fs_->Write(wal_fd_, off + kWalFrameHeader, data, page_size_));
  wal_append_off_ = off + kWalFrameHeader + page_size_;
  wal_prev_crc_ = crc;
  wal_uncommitted_[pgno] = off;
  wal_frames_since_checkpoint_++;
  stats_.journal_page_writes++;
  return Status::OK();
}

Status Pager::RecoverWal() {
  XFTL_ASSIGN_OR_RETURN(bool exists, fs_->Exists(WalPath()));
  if (!exists) {
    XFTL_ASSIGN_OR_RETURN(wal_fd_, fs_->Create(WalPath()));
    std::vector<uint8_t> hdr(kWalFileHeader, 0);
    EncodeFixed32(hdr.data(), kWalMagic);
    EncodeFixed32(hdr.data() + 4, page_size_);
    XFTL_RETURN_IF_ERROR(fs_->Write(wal_fd_, 0, hdr.data(), hdr.size()));
    wal_append_off_ = kWalFileHeader;
    wal_prev_crc_ = 0;
    wal_committed_end_ = wal_append_off_;
    return Status::OK();
  }
  XFTL_ASSIGN_OR_RETURN(wal_fd_, fs_->Open(WalPath()));
  std::vector<uint8_t> hdr(kWalFileHeader);
  XFTL_ASSIGN_OR_RETURN(size_t n,
                        fs_->Read(wal_fd_, 0, hdr.size(), hdr.data()));
  wal_append_off_ = kWalFileHeader;
  wal_prev_crc_ = 0;
  wal_committed_end_ = wal_append_off_;
  if (n < hdr.size() || DecodeFixed32(hdr.data()) != kWalMagic ||
      DecodeFixed32(hdr.data() + 4) != page_size_) {
    return Status::OK();  // empty or foreign WAL; treat as fresh
  }

  // Scan frames, validating the checksum chain; frames after the last
  // commit frame belong to an uncommitted transaction and are dropped.
  XFTL_ASSIGN_OR_RETURN(uint64_t size, fs_->FileSize(wal_fd_));
  std::vector<uint8_t> frame(kWalFrameHeader + page_size_);
  uint64_t off = kWalFileHeader;
  uint32_t crc = 0;
  std::unordered_map<Pgno, uint64_t> pending;
  while (off + frame.size() <= size) {
    XFTL_ASSIGN_OR_RETURN(size_t got,
                          fs_->Read(wal_fd_, off, frame.size(), frame.data()));
    if (got != frame.size()) break;
    Pgno pgno = DecodeFixed32(frame.data());
    uint32_t commit_size = DecodeFixed32(frame.data() + 4);
    uint32_t want = DecodeFixed32(frame.data() + 8);
    uint32_t c = Crc32c(frame.data(), 8, crc);
    c = Crc32c(frame.data() + kWalFrameHeader, page_size_, c);
    if (c != want) break;  // torn or stale frame
    crc = c;
    pending[pgno] = off;
    off += frame.size();
    if (commit_size != 0) {
      for (const auto& [p, o] : pending) wal_committed_[p] = o;
      pending.clear();
      wal_append_off_ = off;
      wal_prev_crc_ = crc;
      wal_committed_end_ = off;
      wal_committed_crc_ = crc;
    }
  }

  // The paper measures WAL restart as copying committed pages back into the
  // database; do that, then reset the log.
  if (!wal_committed_.empty()) {
    XFTL_RETURN_IF_ERROR(CheckpointWal());
  }
  return Status::OK();
}

Status Pager::RescanWal() {
  if (wal_fd_ < 0) {
    // A reader connection may open before the writer creates the WAL.
    XFTL_ASSIGN_OR_RETURN(bool exists, fs_->Exists(WalPath()));
    if (!exists) return Status::OK();
    XFTL_ASSIGN_OR_RETURN(wal_fd_, fs_->Open(WalPath()));
  }
  // Same frame walk as RecoverWal, against the file's CURRENT content:
  // another connection may have appended commits (or checkpointed and
  // truncated) since this connection last looked. No checkpoint here — a
  // reader must not write.
  wal_committed_.clear();
  wal_append_off_ = kWalFileHeader;
  wal_prev_crc_ = 0;
  wal_committed_end_ = wal_append_off_;
  wal_committed_crc_ = 0;
  XFTL_ASSIGN_OR_RETURN(uint64_t size, fs_->FileSize(wal_fd_));
  std::vector<uint8_t> frame(kWalFrameHeader + page_size_);
  uint64_t off = kWalFileHeader;
  uint32_t crc = 0;
  std::unordered_map<Pgno, uint64_t> pending;
  while (off + frame.size() <= size) {
    XFTL_ASSIGN_OR_RETURN(size_t got,
                          fs_->Read(wal_fd_, off, frame.size(), frame.data()));
    if (got != frame.size()) break;
    Pgno pgno = DecodeFixed32(frame.data());
    uint32_t commit_size = DecodeFixed32(frame.data() + 4);
    uint32_t want = DecodeFixed32(frame.data() + 8);
    uint32_t c = Crc32c(frame.data(), 8, crc);
    c = Crc32c(frame.data() + kWalFrameHeader, page_size_, c);
    if (c != want) break;  // torn, stale, or in-flight frame
    crc = c;
    pending[pgno] = off;
    off += frame.size();
    if (commit_size != 0) {
      for (const auto& [p, o] : pending) wal_committed_[p] = o;
      pending.clear();
      wal_append_off_ = off;
      wal_prev_crc_ = crc;
      wal_committed_end_ = off;
      wal_committed_crc_ = crc;
    }
  }
  return Status::OK();
}

Status Pager::CheckpointWal() {
  SimNanos t0 = fs_->clock()->Now();
  std::vector<uint8_t> buf(page_size_);
  std::vector<std::pair<Pgno, uint64_t>> frames(wal_committed_.begin(),
                                                wal_committed_.end());
  std::sort(frames.begin(), frames.end());
  for (const auto& [pgno, off] : frames) {
    XFTL_ASSIGN_OR_RETURN(
        size_t n,
        fs_->Read(wal_fd_, off + kWalFrameHeader, page_size_, buf.data()));
    if (n != page_size_) return Status::Corruption("short WAL frame");
    XFTL_RETURN_IF_ERROR(WritePageToDb(pgno, buf.data()));
  }
  XFTL_RETURN_IF_ERROR(SyncFd(db_fd_, /*datasync=*/false));
  // Rewind the log.
  XFTL_RETURN_IF_ERROR(fs_->Truncate(wal_fd_, kWalFileHeader));
  XFTL_RETURN_IF_ERROR(SyncFd(wal_fd_, /*datasync=*/false));
  wal_committed_.clear();
  wal_append_off_ = kWalFileHeader;
  wal_prev_crc_ = 0;
  wal_committed_end_ = wal_append_off_;
  wal_committed_crc_ = 0;
  wal_frames_since_checkpoint_ = 0;
  stats_.checkpoints++;
  TraceSql(trace::Op::kCheckpoint, t0, frames.size(), StatusCode::kOk);
  return Status::OK();
}

Status Pager::Checkpoint() {
  if (options_.journal_mode != SqlJournalMode::kWal) return Status::OK();
  if (in_txn_) return Status::FailedPrecondition("transaction open");
  return CheckpointWal();
}

uint64_t Pager::wal_frames() const { return wal_committed_.size(); }

}  // namespace xftl::sql
