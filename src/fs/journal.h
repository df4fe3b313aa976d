// JBD-style physical journal: a reserved region of the device holding one
// transaction at a time. A transaction is
//
//   descriptor page | copy of page 1 | ... | copy of page N | commit page
//
// written with a barrier before (so earlier checkpoint writes are durable
// before the previous transaction's journal is overwritten) and a barrier
// after (so the commit is durable before checkpointing begins). These are
// exactly the two write barriers per fsync the paper attributes to ordered
// journaling.
#ifndef XFTL_FS_JOURNAL_H_
#define XFTL_FS_JOURNAL_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "storage/block_device.h"

namespace xftl::fs {

struct JournalStats {
  uint64_t commits = 0;
  uint64_t journal_page_writes = 0;  // descriptor + copies + commit pages
  uint64_t replayed_transactions = 0;
  uint64_t replayed_pages = 0;
};

class Journal {
 public:
  Journal(storage::BlockDevice* dev, uint32_t start, uint32_t pages);

  // Maximum pages a single transaction may carry: the region less its
  // descriptor and commit pages, and no more homes than one descriptor page
  // lists.
  uint32_t capacity() const { return capacity_; }

  // Journals `n` pages (home page number `homes[i]`, contents `datas[i]`)
  // between two device FlushBarriers. After this returns, the transaction
  // is durable; the caller then writes the pages to their home locations
  // (checkpointing). On barrier firmware the device serves both barriers
  // order-only: the commit is ordered but possibly still in flight on
  // return (epoch-prefix durability).
  Status CommitTransaction(const uint64_t* homes, const uint8_t* const* datas,
                           size_t n);

  // Mount-time scan: if a complete transaction is present, replays it to the
  // home locations. Idempotent.
  Status Recover();

  const JournalStats& stats() const { return stats_; }

 private:
  storage::BlockDevice* const dev_;
  const uint32_t start_;
  const uint32_t capacity_;
  uint64_t next_txid_ = 1;
  JournalStats stats_;
};

}  // namespace xftl::fs

#endif  // XFTL_FS_JOURNAL_H_
