// A write-back buffer cache keyed by device page number, with LRU eviction
// and JBD-style pinning: dirty metadata (and, in full-journal mode, dirty
// data) must not reach its home location before the journal commits, so such
// pages are pinned and the cache grows past its nominal capacity instead of
// evicting them. Dirty data pages in ordered or off mode are evictable - in
// off mode the eviction is the "steal" path that writes uncommitted pages
// with their transaction id.
#ifndef XFTL_FS_BUFFER_CACHE_H_
#define XFTL_FS_BUFFER_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/block_device.h"

namespace xftl::fs {

class BufferCache {
 public:
  struct Entry {
    std::vector<uint8_t> data;
    bool dirty = false;
    bool metadata = false;
    bool pinned = false;
    // Dirty only because an inode timestamp moved: fdatasync may skip the
    // page (POSIX lets it defer non-essential metadata); any substantive
    // redirtying clears the bit.
    bool ts_only = false;
    storage::TxId tid = 0;     // transaction that dirtied the page (off mode)
    uint32_t owner = ~0u;      // inode owning a data page; ~0 for metadata
    uint64_t page = 0;
    std::list<uint64_t>::iterator lru_it;
  };

  // `writeback` persists an evicted dirty page: (page, data, tid).
  using WritebackFn =
      std::function<Status(uint64_t, const uint8_t*, storage::TxId)>;

  BufferCache(storage::TxBlockDevice* dev, size_t capacity_pages,
              WritebackFn writeback)
      : dev_(dev), capacity_(capacity_pages), writeback_(std::move(writeback)) {}

  // Returns the cached page, loading it from the device on a miss. A
  // non-zero `tid` loads through the transactional read path so a file sees
  // its own stolen (uncommitted) pages.
  StatusOr<Entry*> Get(uint64_t page, storage::TxId tid = 0);
  // Returns a zero-filled cache entry for a freshly allocated page (no
  // device read: the on-flash content is undefined).
  StatusOr<Entry*> GetZeroed(uint64_t page);

  void MarkDirty(Entry* e, bool metadata, storage::TxId tid,
                 uint32_t owner = ~0u, bool ts_only = false);
  void Unpin(Entry* e) { e->pinned = false; }

  // Drops a (clean or dirty) page without writeback; used on abort and
  // unlink.
  void Discard(uint64_t page);
  // Calls fn on every dirty entry. fn may clean/unpin entries.
  void ForEachDirty(const std::function<void(Entry*)>& fn);

  size_t size() const { return entries_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t steals() const { return steals_; }

 private:
  // Evicts until one more entry fits, and moves the last victim's page
  // buffer into `*spare` for the new entry to reuse.
  Status EvictIfNeeded(std::vector<uint8_t>* spare);

  storage::TxBlockDevice* const dev_;
  const size_t capacity_;
  WritebackFn writeback_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::list<uint64_t> lru_;  // front = most recent
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t steals_ = 0;
};

}  // namespace xftl::fs

#endif  // XFTL_FS_BUFFER_CACHE_H_
