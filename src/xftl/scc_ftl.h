// Simple Cyclic Commit baseline (Prabhakaran et al., "Transactional Flash",
// OSDI 2008 - the TxFlash system the paper's §3.3 compares against).
//
// SCC removes the per-transaction commit record: every page written by a
// transaction carries, in its out-of-band area, a link to the (lpn, seq)
// identity of the transaction's next page, the last page linking back to the
// first. A transaction is committed if and only if its cycle is complete on
// flash, so commit costs zero additional writes - at the price of a
// recovery-time cycle analysis and, like the atomic-write FTL, per-call
// atomicity only (no steal, no multi-call transactions; exactly the
// limitation §3.3 holds against it).
//
// Simplification vs the full TxFlash protocol: we do not implement SCC's
// version-reuse constraints (uncommitted pages must be erased before their
// version number can be reused); our monotonically increasing global
// sequence numbers sidestep that entirely.
#ifndef XFTL_XFTL_SCC_FTL_H_
#define XFTL_XFTL_SCC_FTL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ftl/page_ftl.h"

namespace xftl::ftl {

class SccFtl : public PageFtl {
 public:
  SccFtl(flash::FlashDevice* device, const FtlConfig& config)
      : PageFtl(device, config) {}

  // Atomically writes a batch: pages are linked into a cycle; a power
  // failure before the last program leaves an incomplete cycle, which
  // recovery discards.
  Status WriteAtomic(const std::vector<std::pair<Lpn, const uint8_t*>>& pages);

  uint64_t atomic_batches() const { return atomic_batches_; }
  uint64_t recovered_cycles() const { return recovered_cycles_; }
  uint64_t discarded_cycles() const { return discarded_cycles_; }

 protected:
  void NameRecoveryPages(std::vector<flash::Ppn>* ppns) const override;
  Status FinishRecovery() override;
  void OnPageRelocated(Lpn lpn, flash::Ppn from, flash::Ppn to) override;

 private:
  uint64_t atomic_batches_ = 0;
  uint64_t recovered_cycles_ = 0;
  uint64_t discarded_cycles_ = 0;
  std::vector<std::pair<Lpn, flash::Ppn>>* inflight_batch_ = nullptr;
};

}  // namespace xftl::ftl

#endif  // XFTL_XFTL_SCC_FTL_H_
