#include "fs/buffer_cache.h"

namespace xftl::fs {

StatusOr<BufferCache::Entry*> BufferCache::Get(uint64_t page,
                                               storage::TxId tid) {
  auto it = entries_.find(page);
  if (it != entries_.end()) {
    hits_++;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return &it->second;
  }
  misses_++;
  std::vector<uint8_t> buf;
  XFTL_RETURN_IF_ERROR(EvictIfNeeded(&buf));
  Entry& e = entries_[page];
  e.page = page;
  e.data = std::move(buf);
  e.data.resize(dev_->page_size());  // a victim's buffer is already sized
  Status read = dev_->TxRead(tid, page, e.data.data());
  if (!read.ok()) {
    // The entry was never linked into the LRU; leaving it cached would hand
    // a later hit a singular lru_it. Failed reads (a degraded array, a dead
    // link) must be retryable, so drop it and re-read next time.
    entries_.erase(page);
    return read;
  }
  lru_.push_front(page);
  e.lru_it = lru_.begin();
  return &e;
}

StatusOr<BufferCache::Entry*> BufferCache::GetZeroed(uint64_t page) {
  auto it = entries_.find(page);
  if (it == entries_.end()) {
    std::vector<uint8_t> buf;
    XFTL_RETURN_IF_ERROR(EvictIfNeeded(&buf));
    Entry& e = entries_[page];
    e.page = page;
    e.data = std::move(buf);
    e.data.assign(dev_->page_size(), 0);
    lru_.push_front(page);
    e.lru_it = lru_.begin();
    return &e;
  }
  std::fill(it->second.data.begin(), it->second.data.end(), 0);
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return &it->second;
}

void BufferCache::MarkDirty(Entry* e, bool metadata, storage::TxId tid,
                            uint32_t owner, bool ts_only) {
  // The bit survives only while every dirtying touch is timestamp-only.
  e->ts_only = ts_only && (!e->dirty || e->ts_only);
  e->dirty = true;
  e->metadata = e->metadata || metadata;
  e->tid = tid;
  if (owner != ~0u) e->owner = owner;
  // Journaling rule: dirty metadata must not reach its home location before
  // the journal commit; pin it. (Full-journal mode pins data via the caller
  // passing metadata=true semantics through its own writeback policy.)
  if (metadata) e->pinned = true;
}

void BufferCache::Discard(uint64_t page) {
  auto it = entries_.find(page);
  if (it == entries_.end()) return;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

void BufferCache::ForEachDirty(const std::function<void(Entry*)>& fn) {
  for (auto& [page, e] : entries_) {
    if (e.dirty) fn(&e);
  }
}

Status BufferCache::EvictIfNeeded(std::vector<uint8_t>* spare) {
  while (entries_.size() >= capacity_) {
    // Scan from the LRU tail for an evictable page (clean, or dirty and not
    // pinned). Pinned pages make the cache grow instead.
    uint64_t victim = ~0ull;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      const Entry& e = entries_.at(*it);
      if (!e.pinned) {
        victim = *it;
        break;
      }
    }
    if (victim == ~0ull) return Status::OK();  // everything pinned: grow
    Entry& e = entries_.at(victim);
    if (e.dirty) {
      // Steal: an uncommitted page leaves the cache early.
      XFTL_RETURN_IF_ERROR(writeback_(e.page, e.data.data(), e.tid));
      steals_++;
    }
    lru_.erase(e.lru_it);
    *spare = std::move(e.data);
    entries_.erase(victim);
  }
  return Status::OK();
}

}  // namespace xftl::fs
