// ExtFs: a compact ext4-like file system over a (transactional) block
// device. It exists to reproduce the host-side I/O behaviour the paper
// measures:
//
//  * ordered journaling: data written in place first, metadata through a
//    JBD-style journal, two write barriers per fsync;
//  * full (data) journaling: data and metadata both journaled (each data
//    page written twice);
//  * off mode on X-FTL: journaling disabled entirely; the file system relays
//    transaction ids to the device, translates fsync into
//    TxWrite*..TxCommit, and implements the paper's new ioctl(abort).
//
// The buffer cache follows JBD pinning rules, and dirty-page eviction in off
// mode is the "steal" path: uncommitted pages reach the device early, tagged
// with their transaction id, and X-FTL keeps them rollbackable.
//
// Deliberate simplifications (documented in DESIGN.md): a single root
// directory, no permissions/timestamps beyond mtime, one transaction per
// file at a time.
#ifndef XFTL_FS_EXT_FS_H_
#define XFTL_FS_EXT_FS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "fs/buffer_cache.h"
#include "fs/fs_format.h"
#include "fs/journal.h"
#include "storage/block_device.h"
#include "trace/tracer.h"

namespace xftl::fs {

enum class JournalMode {
  kOrdered,  // metadata journaling (ext4 default)
  kFull,     // data + metadata journaling
  kOff,      // no journal; transactional device provides atomicity
};

const char* JournalModeName(JournalMode mode);

struct FsOptions {
  JournalMode journal_mode = JournalMode::kOrdered;
  uint32_t cache_pages = 1024;
  uint32_t inode_count = 512;
  uint32_t journal_pages = 64;
};

// Result of a consistency check (Fsck).
struct FsckReport {
  uint64_t files = 0;
  uint64_t pages_in_use = 0;   // data + pointer pages of all files
  uint64_t leaked_pages = 0;   // allocated in the bitmap but unreferenced
};

struct FsStats {
  uint64_t fsync_calls = 0;
  uint64_t data_page_writes = 0;       // in-place or TxWrite data pages
  uint64_t metadata_page_writes = 0;   // off-mode metadata TxWrites
  uint64_t checkpoint_page_writes = 0; // journal -> home location writes
  uint64_t page_reads = 0;
  uint64_t file_creates = 0;
  uint64_t file_deletes = 0;
  uint64_t tx_aborts = 0;
  uint64_t trims = 0;
  // Total metadata traffic as the paper's Table 1 "File System" column
  // counts it (journal writes included via Journal::stats()).
  uint64_t TotalMetadataWrites(const JournalStats& js) const {
    return metadata_page_writes + checkpoint_page_writes +
           js.journal_page_writes;
  }
};

using Fd = int;

class ExtFs {
 public:
  // Formats the device. Destroys existing contents.
  static Status Mkfs(storage::TxBlockDevice* dev, const FsOptions& options);

  // Mounts, running journal recovery if needed. In kOff mode the device must
  // support transactions (the caller runs device recovery via PowerCycle).
  static StatusOr<std::unique_ptr<ExtFs>> Mount(storage::TxBlockDevice* dev,
                                                const FsOptions& options,
                                                SimClock* clock);

  ~ExtFs() = default;
  ExtFs(const ExtFs&) = delete;
  ExtFs& operator=(const ExtFs&) = delete;

  // Flushes all dirty state; the object may be destroyed afterwards.
  Status Unmount();

  StatusOr<Fd> Create(const std::string& name);
  StatusOr<Fd> Open(const std::string& name);
  Status Close(Fd fd);
  StatusOr<bool> Exists(const std::string& name);
  Status Unlink(const std::string& name);
  std::vector<std::string> ListDir();

  StatusOr<size_t> Read(Fd fd, uint64_t offset, size_t n, uint8_t* out);
  Status Write(Fd fd, uint64_t offset, const uint8_t* data, size_t n);
  Status Truncate(Fd fd, uint64_t new_size);
  StatusOr<uint64_t> FileSize(Fd fd);

  // fsync(2): makes the file's data and metadata durable. In kOff mode this
  // is the commit point of the file's open transaction (paper §5.2).
  Status Fsync(Fd fd);

  // fdatasync(2): like fsync, but metadata pages whose only change is an
  // inode timestamp may be deferred (they stay dirty for a later full
  // commit). SQLite issues fdatasync on Linux, and for a database file in
  // steady state — page rewrites, no growth — this keeps each commit's
  // write set on the pages the transaction actually touched.
  Status Fdatasync(Fd fd);

  // The paper's new ioctl request: aborts the file's open transaction,
  // dropping cached dirty pages and rolling back stolen ones in the device.
  Status IoctlAbort(Fd fd);

  // Multi-file transactions (paper §4.3): groups the files so their updates
  // share one device transaction id - fsync on any member commits all of
  // them atomically, ioctl-abort rolls all of them back. This is the case
  // where stock SQLite needs a master journal and X-FTL does not. Only
  // available with journaling off; the files must not have open
  // transactions yet. The group dissolves at commit or abort.
  Status LinkTransactions(const std::vector<Fd>& fds);

  // --- MVCC snapshot reads (paper extension) -------------------------------
  // Thin passthrough to the device's snapshot verbs. A pinned epoch lets a
  // reader see every data page as of that commit epoch while a writer keeps
  // committing; pins are volatile in the device and die at power cuts.
  bool SupportsSnapshots() const { return dev_->SupportsSnapshots(); }
  StatusOr<uint64_t> SnapPin();
  Status SnapUnpin(uint64_t epoch);
  // Reads file page `idx` of `fd` as of pinned `epoch`, bypassing the
  // buffer cache (cached copies can be newer than the snapshot). The file's
  // block mapping is resolved live: page rewrites keep their device page in
  // this file system, so a data page that existed at the pin resolves to the
  // same device page and the device serves the retained pre-image. A page
  // allocated after the pin reads as unwritten (0xff fill from the device).
  Status SnapReadPage(Fd fd, uint64_t idx, uint64_t epoch, uint8_t* out);

  // Flushes every file and the journal (sync(2)-ish).
  Status SyncAll();

  // Consistency check: directory entries reference live inodes, every file
  // page is inside the data region, allocated in the bitmap, and owned by
  // exactly one file; non-free inodes are reachable. Returns Corruption on
  // the first violation. Leaked pages (allocated but unreferenced) are
  // reported, not failed - they can legitimately exist after a crash.
  StatusOr<FsckReport> Fsck();

  // Page size of the underlying device (file I/O is byte-granular but
  // storage I/O happens in these units).
  uint32_t page_size() const { return sb_.page_size; }
  SimClock* clock() const { return clock_; }

  const FsStats& stats() const { return stats_; }
  const JournalStats& journal_stats() const {
    static const JournalStats kEmpty{};
    return journal_ ? journal_->stats() : kEmpty;
  }
  JournalMode journal_mode() const { return options_.journal_mode; }
  uint64_t cache_steals() const { return cache_->steals(); }

  // Optional event tracing of durability points (fsync, ioctl-abort);
  // null disables.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  trace::Tracer* tracer() const { return tracer_; }

 private:
  ExtFs(storage::TxBlockDevice* dev, const FsOptions& options,
        SimClock* clock);

  struct OpenFile {
    Ino ino = 0;
    bool valid = false;
  };

  // Host CPU cost charged per system call.
  static constexpr SimNanos kSyscallOverhead = Micros(3);
  void ChargeSyscall() { clock_->Advance(kSyscallOverhead); }

  // --- inode and bitmap helpers -------------------------------------------
  StatusOr<Inode> LoadInode(Ino ino);
  Status StoreInode(Ino ino, const Inode& inode);
  StatusOr<Ino> AllocInode(InodeMode mode);
  StatusOr<uint32_t> AllocPage();
  Status FreePage(uint32_t page);

  // --- file page mapping ---------------------------------------------------
  // Resolves file-relative page `idx` to a device page; allocates the page
  // (and any indirect pages) when `alloc` is set. Returns kNoPage when
  // unmapped and !alloc.
  StatusOr<uint32_t> FilePage(Ino ino, Inode* inode, uint64_t idx, bool alloc,
                              bool* created);
  Status FreeFilePages(Ino ino, Inode* inode, uint64_t from_idx);

  // --- directory -----------------------------------------------------------
  // One root-directory slot: the cached page holding it, its byte offset in
  // that page and its decoded entry.
  struct DirSlot {
    BufferCache::Entry* page;
    size_t off;
    Dirent dirent;
  };
  // The one walk over the root directory (`*root`): visits every slot on a
  // mapped page in order. `visit(DirSlot&)` returns true to stop there, or
  // an error to abort. Returns the slot it stopped at, else the slot count.
  template <typename Visit>
  StatusOr<uint64_t> WalkDirents(Inode* root, Visit visit);
  StatusOr<Ino> Lookup(const std::string& name);
  Status AddDirent(const std::string& name, Ino ino);
  Status RemoveDirent(const std::string& name);

  // --- transactions / durability ------------------------------------------
  storage::TxId TidFor(Ino ino);
  // Shared entry of the two sync flavors: fd validation, syscall charge,
  // commit, and the kFsync trace event (`b` = datasync bit).
  Status SyncFile(Fd fd, bool datasync);
  // The fsync work for one file; datasync defers timestamp-only metadata.
  Status CommitDirty(Ino ino, bool datasync);
  Status RunPendingTrims();
  Status WritebackForEviction(uint64_t page, const uint8_t* data,
                              storage::TxId tid);

  storage::TxBlockDevice* const dev_;
  const FsOptions options_;
  SimClock* const clock_;
  Superblock sb_;
  std::unique_ptr<BufferCache> cache_;
  std::unique_ptr<Journal> journal_;  // null in kOff mode
  std::vector<OpenFile> open_files_;
  std::unordered_map<Ino, storage::TxId> active_tid_;
  // Multi-file transaction groups: member ino -> all members (shared).
  std::unordered_map<Ino, std::shared_ptr<std::vector<Ino>>> tx_groups_;
  storage::TxId next_tid_ = 1;
  std::vector<uint32_t> pending_trims_;
  uint64_t alloc_hint_ = 0;
  trace::Tracer* tracer_ = nullptr;
  FsStats stats_;
};

}  // namespace xftl::fs

#endif  // XFTL_FS_EXT_FS_H_
