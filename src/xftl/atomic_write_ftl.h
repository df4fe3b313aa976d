// Atomic-write FTL baseline (Park et al., ISCE'05; also the FusionIO-style
// primitive the paper's §3.3 discusses). A single call atomically writes a
// batch of pages: all of them become durable together, or none do.
//
// Unlike X-FTL, atomicity exists only per call: there is no transaction that
// spans calls, so a database using a steal buffer policy (evicting dirty
// uncommitted pages early) cannot express its commit atomicity with this
// primitive alone. The ablation benchmark quantifies that gap.
#ifndef XFTL_XFTL_ATOMIC_WRITE_FTL_H_
#define XFTL_XFTL_ATOMIC_WRITE_FTL_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ftl/page_ftl.h"

namespace xftl::ftl {

// Meta-page tag for atomic-batch commit records.
inline constexpr uint64_t kTagAwCommit = 6;

class AtomicWriteFtl : public PageFtl {
 public:
  AtomicWriteFtl(flash::FlashDevice* device, const FtlConfig& config)
      : PageFtl(device, config) {}

  // Atomically writes `pages` ({lpn, data} pairs): programs all data pages,
  // then a commit record, then folds the mappings. A power failure anywhere
  // in between rolls the whole batch back at recovery.
  Status WriteAtomic(
      const std::vector<std::pair<Lpn, const uint8_t*>>& pages);

  uint64_t atomic_batches() const { return atomic_batches_; }

 protected:
  void OnMetaPagesScanned(const std::vector<MetaPageRef>& pages) override;
  void NameRecoveryPages(std::vector<flash::Ppn>* ppns) const override;
  Status FinishRecovery() override;
  // Garbage collection may relocate pages of the batch being assembled
  // (later programs can trigger GC); keep the in-flight list current.
  void OnPageRelocated(Lpn lpn, flash::Ppn from, flash::Ppn to) override;

 private:
  uint64_t atomic_batches_ = 0;
  // Non-null only inside WriteAtomic: the batch placed so far.
  std::vector<std::pair<Lpn, flash::Ppn>>* inflight_batch_ = nullptr;
  // Recovery scratch: record seq -> (lpn, ppn) pairs.
  std::map<uint64_t, std::vector<std::pair<Lpn, flash::Ppn>>> recovery_records_;
};

}  // namespace xftl::ftl

#endif  // XFTL_XFTL_ATOMIC_WRITE_FTL_H_
