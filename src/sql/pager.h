// Pager: MiniSQLite's transactional page layer over one database file, with
// the three journal modes whose I/O behaviour the paper measures (Figure 1):
//
//   kDelete (rollback journal): the original content of every page about to
//     change is copied into <db>-journal; commit syncs the journal (data,
//     then header - the extra fsync the paper calls out), force-writes all
//     dirty pages to the database, syncs it, and deletes the journal. The
//     journal file is created and deleted once per write transaction.
//
//   kWal (write-ahead log): new page versions are appended to <db>-wal;
//     commit appends a commit frame and syncs the WAL once. Readers must
//     consult the WAL index before the database file. A checkpoint copies
//     committed frames back every wal_autocheckpoint page-writes.
//
//   kOff (X-FTL): changes are written directly to the database file; fsync
//     is the commit point (the file system turns it into TxWrite*+TxCommit),
//     and rollback is the new ioctl (paper §5.1).
//
// Buffer management is steal/force, like SQLite: commit force-writes every
// page the transaction updated, and the cache may evict dirty uncommitted
// pages early (after journaling them in kDelete mode; as uncommitted WAL
// frames in kWal; as transaction-tagged device writes in kOff).
#ifndef XFTL_SQL_PAGER_H_
#define XFTL_SQL_PAGER_H_

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "fs/ext_fs.h"
#include "trace/tracer.h"

namespace xftl::sql {

// 1-based database page number, like SQLite.
using Pgno = uint32_t;
inline constexpr Pgno kNoPgno = 0;

enum class SqlJournalMode { kDelete, kWal, kOff };
const char* SqlJournalModeName(SqlJournalMode mode);

struct PagerOptions {
  SqlJournalMode journal_mode = SqlJournalMode::kDelete;
  uint32_t cache_pages = 256;
  // Checkpoint the WAL after this many appended frames (SQLite default 1000).
  uint32_t wal_autocheckpoint = 1000;
  // Read-only connection: Open() refuses to create the file, recovery never
  // writes (no hot-journal replay, no WAL checkpoint — the index is rebuilt
  // by scanning), and Begin() fails; only BeginReadOnly() transactions run.
  // This is what a reader connection onto another connection's live database
  // file must use: two writers on one file are unsupported.
  bool read_only = false;
};

struct PagerStats {
  uint64_t db_page_writes = 0;       // host writes into the database file
  uint64_t journal_page_writes = 0;  // pages appended to journal/WAL files
  uint64_t page_reads = 0;           // cache misses served from files
  uint64_t wal_index_hits = 0;       // reads served from the WAL, not the DB
  uint64_t commits = 0;
  uint64_t rollbacks = 0;
  uint64_t read_txns = 0;        // BEGIN READONLY transactions completed
  uint64_t snap_page_reads = 0;  // pages served through a pinned snapshot
  uint64_t checkpoints = 0;
  uint64_t journal_creates = 0;
  uint64_t journal_deletes = 0;
  uint64_t cache_steals = 0;
  SimNanos last_recovery_nanos = 0;  // hot-journal / WAL recovery at Open
};

class Pager;

// Where the cells of one B-tree page lie: each cell's byte offset, in cell
// order, and the offset one past the last cell. sql::BTree fills it with one
// bounds-checked walk the first time it visits a cached frame and bisects it
// on later visits. The pager drops it in MarkPageDirty, which every write to
// a frame goes through, and with the frame itself.
struct CellIndex {
  std::vector<uint16_t> offsets;
  uint32_t end = 0;  // 0 until built (cells start past the page header)

  bool built() const { return end != 0; }
  void Clear() {
    offsets.clear();
    end = 0;
  }
};

// One page of the pager's cache.
struct PageFrame {
  std::vector<uint8_t> data;
  bool dirty = false;
  int pins = 0;
  std::list<Pgno>::iterator lru_it;
  CellIndex cells;
};

// RAII pinned reference to a cached page.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef();

  bool valid() const { return pager_ != nullptr; }
  Pgno pgno() const { return pgno_; }
  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  // The frame's cell index; null for a snapshot ref, which has no frame to
  // keep one.
  CellIndex* cell_index() const {
    return frame_ == nullptr ? nullptr : &frame_->cells;
  }
  // Declares intent to modify; journals the original content first when the
  // mode requires it, and drops the frame's cell index.
  Status MarkDirty();

 private:
  friend class Pager;
  PageRef(Pager* pager, Pgno pgno, uint8_t* data, PageFrame* frame)
      : pager_(pager), pgno_(pgno), data_(data), frame_(frame) {}
  void Unpin();

  Pager* pager_ = nullptr;
  Pgno pgno_ = 0;
  uint8_t* data_ = nullptr;
  // The pinned frame; null for a ref into the read-transaction snapshot
  // cache, which holds no pin.
  PageFrame* frame_ = nullptr;
};

class Pager {
 public:
  // Opens (creating if necessary) the database file and runs mode-specific
  // recovery: hot rollback-journal replay or WAL scan+checkpoint.
  static StatusOr<std::unique_ptr<Pager>> Open(fs::ExtFs* fs,
                                               const std::string& db_path,
                                               const PagerOptions& options);
  ~Pager();

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  Status Close();

  uint32_t page_size() const { return page_size_; }
  Pgno page_count() const { return page_count_; }
  SqlJournalMode journal_mode() const { return options_.journal_mode; }
  fs::ExtFs* fs() const { return fs_; }

  // --- transactions --------------------------------------------------------
  Status Begin();
  // BEGIN READONLY: opens a read transaction that sees one committed state
  // of the database while a writer (another connection on the same file)
  // keeps committing. In kOff mode on a snapshot-capable device this pins
  // the device's commit epoch and every page read resolves through the
  // retained pre-images (MVCC; DESIGN.md §13). In kWal mode the reader
  // re-scans the WAL index at BEGIN (SQLite's reader snapshot); in kDelete
  // mode it reads the database file's committed content directly. Ends via
  // Commit() or Rollback() (equivalent for a read transaction).
  Status BeginReadOnly();
  Status Commit();
  Status Rollback();
  bool in_transaction() const { return in_txn_ || read_txn_; }
  bool in_read_transaction() const { return read_txn_; }

  // --- page access ---------------------------------------------------------
  StatusOr<PageRef> Get(Pgno pgno);
  // Appends a fresh zeroed page (from the freelist or by extending the
  // file). Requires an open transaction.
  StatusOr<PageRef> Allocate();
  Status Free(Pgno pgno);

  // --- header fields (page 1) ---------------------------------------------
  // Slot 0 is reserved for the schema root; slots 1-7 free for upper layers.
  StatusOr<uint32_t> GetHeaderField(int slot);
  Status SetHeaderField(int slot, uint32_t value);

  // Forces a WAL checkpoint (no-op in other modes).
  Status Checkpoint();

  const PagerStats& stats() const { return stats_; }
  uint64_t wal_frames() const;  // committed frames currently in the WAL

  // Optional event tracing of transaction boundaries; null disables.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  trace::Tracer* tracer() const { return tracer_; }

 private:
  friend class PageRef;

  // Records an SQL-layer event ending now (no-op without a tracer).
  void TraceSql(trace::Op op, SimNanos t0, uint64_t a, StatusCode code) {
    if (tracer_ != nullptr) {
      tracer_->Record(trace::Layer::kSql, op, t0, 0, a, 0,
                      fs_->clock()->Now() - t0, code);
    }
  }

  Pager(fs::ExtFs* fs, std::string db_path, const PagerOptions& options);

  uint32_t fs_page_size() const;
  Status Initialize();          // create fresh DB or load header
  Status RecoverIfNeeded();     // hot journal / WAL recovery
  Status LoadHeader();
  Status WriteHeader();         // updates cached page 1 + marks dirty

  StatusOr<PageFrame*> FetchPage(Pgno pgno);
  Status EvictIfNeeded();
  Status MarkPageDirty(Pgno pgno);

  // Reads a page's current committed content (WAL-aware).
  Status ReadPageFromFiles(Pgno pgno, uint8_t* out);
  Status WritePageToDb(Pgno pgno, const uint8_t* data);

  // The commit path's durability point: fsync, or fdatasync.
  Status SyncFd(fs::Fd fd, bool datasync);

  // --- rollback journal (kDelete) ------------------------------------------
  std::string JournalPath() const { return db_path_ + "-journal"; }
  Status EnsureJournalOpen();
  Status JournalOriginal(Pgno pgno, const uint8_t* data);
  Status SyncJournal(bool finalize);
  Status DeleteJournal();
  Status ReplayHotJournal();

  // --- WAL (kWal) -----------------------------------------------------------
  std::string WalPath() const { return db_path_ + "-wal"; }
  Status AppendWalFrame(Pgno pgno, const uint8_t* data, uint32_t commit_size);
  Status RecoverWal();
  Status CheckpointWal();
  // Rebuilds the committed-frame index from the WAL file's current content
  // (a reader picking up another connection's commits). No checkpoint.
  Status RescanWal();

  // --- read-only transactions ----------------------------------------------
  Status EndReadOnly();
  Status ReadSnapshotPage(Pgno pgno, uint8_t* out);

  fs::ExtFs* const fs_;
  const std::string db_path_;
  const PagerOptions options_;
  uint32_t page_size_ = 0;
  fs::Fd db_fd_ = -1;
  Pgno page_count_ = 0;
  Pgno freelist_head_ = kNoPgno;
  uint32_t header_fields_[8] = {0};

  bool in_txn_ = false;
  bool db_dirtied_in_txn_ = false;  // stolen pages reached the DB file

  // Read-only transaction state. Reads bypass the main cache (whose entries
  // may be newer or older than the snapshot) and land in a per-transaction
  // cache that dies with the transaction.
  bool read_txn_ = false;
  bool snap_pinned_ = false;
  uint64_t snap_epoch_ = 0;
  std::unordered_map<Pgno, std::vector<uint8_t>> snap_cache_;

  std::unordered_map<Pgno, PageFrame> cache_;
  std::list<Pgno> lru_;
  // The cached pages MarkPageDirty turned dirty in the open write
  // transaction, unordered: what Commit and Rollback visit instead of the
  // whole cache. A steal takes its page off the list.
  std::vector<Pgno> dirtied_;

  // Rollback-journal state. journaled_ holds the pages whose original the
  // open transaction already saved (SQLite's pInJournal): a page stolen and
  // dirtied again is not journaled twice.
  std::unordered_set<Pgno> journaled_;
  fs::Fd journal_fd_ = -1;
  uint32_t journal_records_ = 0;
  bool journal_synced_ = false;

  // WAL state.
  fs::Fd wal_fd_ = -1;
  uint64_t wal_append_off_ = 0;  // end of committed+appended frames
  uint32_t wal_prev_crc_ = 0;
  uint64_t wal_committed_end_ = 0;  // rollback rewinds the cursor to here
  uint32_t wal_committed_crc_ = 0;
  std::unordered_map<Pgno, uint64_t> wal_committed_;    // pgno -> frame offset
  std::unordered_map<Pgno, uint64_t> wal_uncommitted_;  // current txn frames
  uint64_t wal_frames_since_checkpoint_ = 0;

  trace::Tracer* tracer_ = nullptr;
  PagerStats stats_;
};

}  // namespace xftl::sql

#endif  // XFTL_SQL_PAGER_H_
