// Block-device abstractions used by the file system layer.
//
// BlockDevice is the classic interface: page-granular read/write/trim plus a
// write barrier. TxBlockDevice is the paper's extended abstraction: the same
// operations carry a transaction id, and commit/abort commands control
// atomicity at the device (paper §4.2).
#ifndef XFTL_STORAGE_BLOCK_DEVICE_H_
#define XFTL_STORAGE_BLOCK_DEVICE_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "xftl/xftl.h"

namespace xftl::storage {

using TxId = ftl::TxId;

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual uint32_t page_size() const = 0;
  virtual uint64_t num_pages() const = 0;

  virtual Status Read(uint64_t page, uint8_t* data) = 0;
  virtual Status Write(uint64_t page, const uint8_t* data) = 0;
  // Batched write: n pages handed to the device as one queued command.
  // Devices that understand queuing overlap the device-side work across
  // banks. Stops at the first error; `accepted` (optional) reports how many
  // leading pages the device durably accepted, so a caller can tell a clean
  // failure from a torn batch and reissue only the rejected suffix.
  virtual Status WriteBatch(const uint64_t* pages, const uint8_t* const* datas,
                            size_t n, size_t* accepted = nullptr) = 0;
  virtual Status Trim(uint64_t page) = 0;
  // The host's one durability verb (fsync's device flush). The device
  // decides what it means: all previously acknowledged writes (and the
  // device's mapping metadata) are persistent when this returns — except on
  // barrier firmware (ftl::CommitMode::kBarrier), which serves it
  // order-only: writes before it reach the medium before any write after
  // it, but need not have reached it on return (epoch-prefix durability).
  virtual Status FlushBarrier() = 0;
  // Same as FlushBarrier. Nothing in the stack calls it; it stays only
  // because the standalone benchmark (benchmark/boundary.h) overrides it.
  virtual Status Barrier() { return FlushBarrier(); }
};

// The extended command set. A device reports whether it actually implements
// transactions; callers fall back to journaling when it does not.
class TxBlockDevice : public BlockDevice {
 public:
  virtual bool SupportsTransactions() const = 0;

  virtual Status TxRead(TxId t, uint64_t page, uint8_t* data) = 0;
  virtual Status TxWrite(TxId t, uint64_t page, const uint8_t* data) = 0;
  // Batched TxWrite under one transaction; same contract as WriteBatch
  // (including the `accepted` prefix count on failure).
  virtual Status TxWriteBatch(TxId t, const uint64_t* pages,
                              const uint8_t* const* datas, size_t n,
                              size_t* accepted = nullptr) = 0;
  // Commit/abort are carried over the wire as extended trim commands
  // (paper §5.2); semantically they are first-class verbs.
  virtual Status TxCommit(TxId t) = 0;
  virtual Status TxAbort(TxId t) = 0;

  // --- MVCC snapshot reads (beyond the paper) -----------------------------
  // A device that retains committed pre-images (X-FTL's X-L2P) can pin the
  // current commit epoch and serve page reads as of that pin while a writer
  // proceeds. Devices without version retention report no support and the
  // host falls back to reading through its own cache coherency.
  virtual bool SupportsSnapshots() const { return false; }
  // Pins the current commit epoch; the returned token names the snapshot.
  virtual StatusOr<uint64_t> SnapPin() {
    return Status::NotSupported("snapshot reads");
  }
  // Releases a pin. Lenient: unknown epochs (e.g. after a device reboot
  // discarded all pins) are a no-op.
  virtual Status SnapUnpin(uint64_t epoch) {
    return Status::NotSupported("snapshot reads");
  }
  // Reads `page` as of pinned epoch `epoch`.
  virtual Status SnapRead(uint64_t epoch, uint64_t page, uint8_t* data) {
    return Status::NotSupported("snapshot reads");
  }
};

}  // namespace xftl::storage

#endif  // XFTL_STORAGE_BLOCK_DEVICE_H_
