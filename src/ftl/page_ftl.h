// A page-mapping FTL in the style of the OpenSSD Barefoot firmware the paper
// extends: a DRAM-resident logical-to-physical table (L2P), bank-striped
// active write blocks, greedy garbage collection, and mapping-table
// persistence into a reserved meta-block region.
//
// Durability contract (mirrors a real drive's volatile write cache):
//   * Write() is acknowledged once the data is latched; it survives power
//     loss only after a Flush() barrier, which persists dirty L2P segments
//     and a root record.
//   * Recover() rebuilds the L2P from the latest root + segment snapshots and
//     rolls forward using per-page OOB sequence numbers, so writes that did
//     reach the flash after the last barrier are not lost. The root bounds
//     the scan: only blocks (re)opened after it, the tails of the blocks it
//     lists as active, and the pages subclass recovery consults are sensed;
//     every other page is trusted from the checkpoint.
//
// Subclass hooks (protected virtuals) let X-FTL pin uncommitted pages during
// garbage collection and relocate its X-L2P references.
#ifndef XFTL_FTL_PAGE_FTL_H_
#define XFTL_FTL_PAGE_FTL_H_

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "flash/flash_device.h"
#include "ftl/ecc.h"
#include "ftl/ftl_stats.h"

namespace xftl::ftl {

// Logical page number as exposed to the host.
using Lpn = uint64_t;

// How a firmware implements its durability points (FLUSH / commit /
// prepare). Drain is the classic completion-wait: the command returns only
// once everything is in the cells. Barrier is order-preserving: the command
// opens a new flash epoch and returns immediately — earlier writes are
// guaranteed to reach the cells before any later write, but not to have
// reached them when the command returns (epoch-prefix durability). Plp
// models a power-loss-protected cache: the buffer drains on its own and an
// emergency checkpoint covers a power cut.
enum class CommitMode : uint8_t { kDrain, kBarrier, kPlp };

inline const char* CommitModeName(CommitMode mode) {
  switch (mode) {
    case CommitMode::kDrain:   return "drain";
    case CommitMode::kBarrier: return "barrier";
    case CommitMode::kPlp:     return "plp";
  }
  return "?";
}

// OOB tag values identifying what a physical page holds.
inline constexpr uint64_t kTagData = 1;
inline constexpr uint64_t kTagMetaRoot = 2;
inline constexpr uint64_t kTagMetaSegment = 3;  // oob.lpn = segment index
inline constexpr uint64_t kTagXl2p = 4;         // used by X-FTL
// Data written under an open transaction (X-FTL). Such pages never roll
// forward into the L2P by sequence number alone; they become reachable only
// through a durable X-L2P entry, or are retagged to kTagData when garbage
// collection moves them after their transaction committed.
inline constexpr uint64_t kTagTxData = 5;
// Data written under a cyclic-commit (TxFlash/SCC) transaction: recoverable
// only as part of a complete link cycle. Garbage collection preserves the
// (lpn, seq, link) identity when it relocates an unfolded SCC page, so
// in-flash cycles survive; folded pages are retagged to kTagData like
// kTagTxData pages.
inline constexpr uint64_t kTagSccData = 7;

// Version of the data a page holds: the sequence number of the write that
// produced it. A garbage-collected copy gets a fresh seq, because roll-
// forward finds moved pages by seq, and carries its source's version in
// link_seq. Recovery's "is this entry superseded?" checks compare versions,
// not physical write order: GC may move an old committed copy after a newer
// transactional write of the same page. Cyclic-commit pages own their link
// fields and keep their original seq when moved.
inline uint64_t DataVersion(const flash::PageOob& oob) {
  return oob.tag != kTagSccData && oob.link_seq != 0 ? oob.link_seq : oob.seq;
}

// Garbage-collection victim selection policy.
enum class GcPolicy {
  kGreedy,       // fewest valid pages (OpenSSD firmware default)
  kCostBenefit,  // age * (1-u) / 2u  (LFS-style)
  kFifo,         // oldest sealed block
};
const char* GcPolicyName(GcPolicy policy);

struct FtlConfig {
  // Blocks reserved (at the start of the device) for mapping persistence.
  uint32_t meta_blocks = 8;
  GcPolicy gc_policy = GcPolicy::kGreedy;
  // GC keeps at least this many erased data blocks in reserve.
  uint32_t min_free_blocks = 4;
  // Size of the logical space exposed to the host. The ratio of this to the
  // physical data-page count is the utilization knob that controls
  // steady-state GC victim validity (the paper's "GC valid page ratio").
  uint64_t num_logical_pages = 0;
  // Consumer-drive behaviour: the flush barrier only drains the write
  // buffer; mapping-table durability is provided by a power-loss-protected
  // cache (recovery still works - the OOB roll-forward scan reconstructs
  // any mapping that was not checkpointed). Research firmware like the
  // OpenSSD's persists the mapping synchronously instead.
  bool fast_barrier = false;
  // Durability-point discipline of the firmware's FLUSH/commit/prepare
  // verbs: completion-wait drain (classic), order-preserving barrier
  // (epoch-fenced flash scheduling, no wait), or PLP-backed ack. The S830
  // profile runs kPlp; barrier mode is the Won-et-al. protocol that works
  // without the capacitor.
  CommitMode commit_mode = CommitMode::kDrain;
  // ECC strength and read-retry policy for every flash read the FTL issues.
  EccConfig ecc;
  // Graceful degradation floor: the FTL turns read-only when the usable
  // (non-bad) data blocks can no longer hold the logical space plus the GC
  // reserve plus this many spare blocks. Writes then fail with
  // ResourceExhausted instead of wedging GC or CHECK-crashing.
  uint32_t read_only_spare_blocks = 1;
};

// The FTL as the storage interface (SATA) layer sees it: a logical page
// space with read/write/trim, plus a flush barrier that makes both data and
// the mapping table durable.
class PageFtl {
 public:
  PageFtl(flash::FlashDevice* device, const FtlConfig& config);
  virtual ~PageFtl() = default;

  PageFtl(const PageFtl&) = delete;
  PageFtl& operator=(const PageFtl&) = delete;

  uint32_t page_size() const { return device_->config().page_size; }
  uint32_t pages_per_block() const {
    return device_->config().pages_per_block;
  }
  uint64_t num_logical_pages() const { return config_.num_logical_pages; }

  // Reads the committed content of `lpn` (0xff-filled if never written).
  Status Read(Lpn lpn, uint8_t* data);
  // Copy-on-write update of `lpn`. Durable only after Flush(). The program
  // is submit-only: the caller pays the channel transfer while the cell
  // program overlaps on its bank, so consecutive writes stripe across banks.
  Status Write(Lpn lpn, const uint8_t* data);
  // Drops the mapping of `lpn`; the physical page becomes garbage.
  Status Trim(Lpn lpn);
  // Write barrier: waits for in-flight programs and persists the mapping
  // table (dirty segments + root record).
  Status Flush();
  // Order-preserving barrier: all pages written before it are programmed
  // before any page written after it, without waiting for completion.
  // CommitMode::kBarrier only: it is how that firmware serves a FLUSH.
  Status Barrier();
  // The firmware's durability-point discipline (see CommitMode).
  CommitMode commit_mode() const { return config_.commit_mode; }
  // Rebuilds all volatile state from flash after a power failure.
  Status Recover();
  // Device-side completion time of the most recently issued flash command —
  // the queued-command model's completion token. A caller that submitted a
  // write may return to the host immediately and later AdvanceTo() this time
  // (or past it) to model out-of-order command completion.
  SimNanos LastCompletionTime() const { return device_->last_op_done(); }

  const FtlStats& stats() const { return stats_; }

  flash::FlashDevice* device() const { return device_; }
  const FtlConfig& ftl_config() const { return config_; }
  // Seq of the root record the L2P was last loaded from or written as (0 =
  // none). xftl_fsck checks it against its own derivation.
  uint64_t last_root_seq() const { return last_root_seq_; }

  // Number of currently erased data blocks (observability/tests).
  size_t free_block_count() const { return free_blocks_.size(); }
  // Current mapping of `lpn` (kInvalidPpn if unmapped). Tests only.
  flash::Ppn MappingOf(Lpn lpn) const;

  // --- NAND failure handling observability --------------------------------
  // True once the device degraded to read-only mode (spare blocks or the
  // meta region exhausted by grown bad blocks). Writes, trims and barriers
  // return ResourceExhausted; reads keep working.
  bool read_only() const { return read_only_; }
  // Grown bad blocks currently known to the FTL (data + meta).
  size_t bad_block_count() const { return bad_blocks_.size(); }
  const std::vector<flash::BlockNum>& bad_blocks() const { return bad_blocks_; }
  // Per-block count of valid (GC-live) pages as the FTL tracks it; zero for
  // meta, free and bad blocks. xftl_fsck cross-checks this against the
  // union of the mapping tables it derives from the raw image.
  uint32_t BlockValidCount(flash::BlockNum block) const {
    return blocks_[block].valid_count;
  }

  // Victim the bucketed picker would choose right now (tests/observability;
  // only the min-bucket hint may move).
  StatusOr<flash::BlockNum> PeekVictim() { return PickVictim(); }

 protected:
  // --- hooks overridden by X-FTL ------------------------------------------
  // True if physical page `ppn` (holding logical page `lpn`) must be kept
  // alive. The base implementation consults the L2P table.
  virtual bool IsPpnLive(flash::Ppn ppn, Lpn lpn) const;
  // Called when GC moves a live page so subclasses can re-point their own
  // references.
  virtual void OnPageRelocated(Lpn lpn, flash::Ppn from, flash::Ppn to);
  // Extra meta pages a subclass persists inside Flush() (e.g., X-L2P).
  virtual Status FlushSubclassMeta() { return Status::OK(); }
  // Persists every meta page a subclass owns, changed or not: recovery just
  // erased the whole meta region to restore its reserve block.
  virtual Status RewriteSubclassMeta() { return FlushSubclassMeta(); }
  // A meta page of the subclass's own (tag other than root or segment) as
  // the recovery scan found it.
  struct MetaPageRef {
    flash::Ppn ppn;
    flash::PageOob oob;
  };
  // Invoked by Recover() with the OOB of every subclass meta page in the
  // ring, in increasing seq order, once the root is loaded; subclasses
  // full-read only the pages they need (ReadPhysPage) and stage their state.
  virtual void OnMetaPagesScanned(const std::vector<MetaPageRef>& pages) {}
  // Appends the data pages whose OOB FinishRecovery() will consult, given
  // the checkpointed L2P just loaded (MappingOf). Recover() senses them with
  // the post-checkpoint tail, so ScannedOob() answers for each of them.
  virtual void NameRecoveryPages(std::vector<flash::Ppn>* ppns) const {}
  // Invoked at the end of Recover(); subclasses reconcile their state. Runs
  // on DRAM only: every OOB it needs was named above.
  virtual Status FinishRecovery() { return Status::OK(); }

  // OOB metadata of `ppn` as captured by the recovery scan; null outside
  // recovery, for erased pages, and for pages the scan trusted from the
  // checkpoint without sensing them. Every recovery step, subclasses
  // included, resolves OOBs from here instead of re-reading flash.
  const flash::PageOob* ScannedOob(flash::Ppn ppn) const {
    const auto& cache =
        device_->config().BlockOf(ppn) < config_.meta_blocks ? meta_scan_oob_
                                                             : scan_oob_;
    auto it = cache.find(ppn);
    return it == cache.end() ? nullptr : &it->second;
  }
  // The data region's recovery-scan OOB cache (valid only during Recover()).
  const std::unordered_map<flash::Ppn, flash::PageOob>& ScannedOobs() const {
    return scan_oob_;
  }

  // --- services exposed to subclasses -------------------------------------
  // Reads a physical page through the ECC decode/read-retry pipeline. All
  // FTL-side flash reads (host path, GC, recovery, subclass tables) go
  // through this so wear-driven bit errors are corrected uniformly.
  Status ReadPhysPage(flash::Ppn ppn, uint8_t* data,
                      flash::PageOob* oob = nullptr) {
    return ecc_.Read(device_, ppn, data, oob);
  }
  // Fails with ResourceExhausted once the FTL has degraded to read-only.
  Status CheckWritable() const;
  // Allocates and programs the next data page; returns its ppn. Runs GC if
  // the free pool is low. The new page's valid bit is set and rmap updated;
  // L2P is NOT touched (callers decide, so X-FTL can defer to commit).
  StatusOr<flash::Ppn> ProgramDataPage(Lpn lpn, const uint8_t* data,
                                       uint64_t tag = kTagData);
  // Same, but with a caller-supplied full OOB (cyclic-commit schemes control
  // the sequence number and link fields). The caller must have reserved the
  // sequence numbers via ReserveSeqs.
  StatusOr<flash::Ppn> ProgramDataPageOob(const uint8_t* data,
                                          const flash::PageOob& oob);
  // Reserves `n` consecutive write sequence numbers; returns the first.
  uint64_t ReserveSeqs(uint64_t n) {
    uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }
  // Clears the valid bit of `ppn` so GC can reclaim it.
  void InvalidatePpn(flash::Ppn ppn);
  // True if `ppn`'s valid bit is set and the RAM rmap says it holds `lpn`.
  // Lets subclasses verify a long-held physical reference before acting on
  // it (GC may have lost the page to an uncorrectable read and reused it).
  bool PpnHolds(flash::Ppn ppn, Lpn lpn) const;
  // Re-marks `ppn` (holding `lpn`) valid; used by subclass recovery when a
  // page is reachable only through a transactional table.
  void MarkPpnValid(flash::Ppn ppn, Lpn lpn);
  // Points the L2P entry of `lpn` at `ppn` (invalidating nothing) and marks
  // the containing segment dirty.
  void SetMapping(Lpn lpn, flash::Ppn ppn);
  // Clears the L2P entry.
  void ClearMapping(Lpn lpn);
  // Writes one meta page (root/segment/x-l2p payload) into the meta region.
  // `link_lpn`/`link_seq` fill OOB link fields meta pages otherwise leave
  // unused, so a subclass can describe a page to the recovery scan.
  Status ProgramMetaPage(uint64_t tag, uint64_t aux, const uint8_t* data,
                         uint64_t link_lpn = flash::kInvalidLpn,
                         uint64_t link_seq = 0);
  // Persists dirty L2P segments and the root record. Shared by Flush() and
  // subclass commit paths.
  Status PersistMapping();

  // Number of L2P segment pages. Subclasses use this to validate that their
  // own meta footprint still fits single-block meta compaction.
  uint32_t num_segments() const {
    return uint32_t((config_.num_logical_pages + entries_per_segment_ - 1) /
                    entries_per_segment_);
  }

  // Records one FTL-layer trace event ending now (no-op when the flash
  // device has no tracer attached). Subclasses record their own layer.
  void TraceFtl(trace::Op op, SimNanos t0, uint64_t a, uint64_t b,
                StatusCode code, uint32_t tid = 0) const {
    trace::Tracer* t = device_->tracer();
    if (t != nullptr) {
      t->Record(trace::Layer::kFtl, op, t0, tid, a, b,
                device_->clock()->Now() - t0, code);
    }
  }

  flash::FlashDevice* const device_;
  const FtlConfig config_;
  FtlStats stats_;
  uint64_t next_seq_ = 1;

 private:
  struct BlockInfo {
    enum class Kind : uint8_t { kMeta, kFree, kActive, kSealed, kBad };
    Kind kind = Kind::kFree;
    uint32_t valid_count = 0;
    uint64_t sealed_seq = 0;  // write sequence when sealed (GC age)
    uint64_t open_seq = 0;    // write sequence when opened (the OOB stamp)
    std::vector<bool> valid;
    std::vector<Lpn> rmap;  // lpn per page (RAM mirror of OOB)
  };

  uint32_t SegmentOf(Lpn lpn) const { return uint32_t(lpn / entries_per_segment_); }

  // tests/ftl_test.cc: the linear-scan victim reference reads blocks_.
  friend class PageFtlTestPeer;

  void InitLayout();
  // Ensures the free pool holds > min_free_blocks erased blocks.
  Status MaybeGarbageCollect();
  Status CollectOneBlock();
  StatusOr<flash::BlockNum> PickVictim();

  // --- O(1) amortized victim selection ------------------------------------
  // Sealed blocks live in validity buckets: gc_buckets_[v] holds every
  // sealed block with v valid pages, ordered by (key, block) where key is 0
  // under greedy (pure block-number order, matching the legacy scan's
  // tie-break exactly) and sealed_seq otherwise (age order for cost-benefit
  // and FIFO). The buckets are updated incrementally wherever a sealed
  // block's valid_count or kind changes, so PickVictim no longer scans all
  // of blocks_ per collection.
  uint64_t GcBucketKey(const BlockInfo& blk) const;
  void GcBucketInsert(flash::BlockNum b);
  // Removes `b` from the bucket holding it at `valid_count` (no-op if the
  // block is not bucketed, which recovery paths rely on).
  void GcBucketErase(flash::BlockNum b, uint32_t valid_count);
  // Drops and re-inserts every sealed block (recovery rebuild).
  void RebuildGcBuckets();
  // Allocates the next programmable data ppn without triggering GC.
  StatusOr<flash::Ppn> NextDataPpnNoGc();
  Status ProgramDataPageNoGc(Lpn lpn, const uint8_t* data, uint64_t tag,
                             flash::Ppn* out);

  // --- NAND failure handling ----------------------------------------------
  // Programs `oob.lpn`'s data onto the next data page, retiring blocks whose
  // programs fail with a status error and re-issuing until one sticks (or
  // power fails / spares run out). Updates validity + rmap on success.
  Status ProgramWithRetirement(const uint8_t* data, const flash::PageOob& oob,
                               flash::Ppn* out);
  // OOB for the relocated copy of `lpn`'s page at `from`, whose OOB is `old`
  // (GC and block retirement). Consumes one sequence number.
  flash::PageOob RelocationOob(Lpn lpn, flash::Ppn from,
                               const flash::PageOob& old);
  // Relocates every valid page off `block`, then marks it as a grown bad
  // block. Used for program-status failures; erase failures have nothing
  // left to relocate and go through MarkBlockBad directly.
  Status RetireBlock(flash::BlockNum block);
  // The one page-move loop of GC and retirement: reads each valid page of
  // `block` through ECC (an uncorrectable one counts in pages_lost and is
  // unmapped), programs it with RelocationOob via ProgramWithRetirement,
  // re-points the L2P and calls OnPageRelocated. A GC move counts
  // gc_copyback_reads/writes and leaves the valid bits for the erase; a
  // `retiring` move counts retire_relocations and invalidates the source.
  Status RelocateValidPages(flash::BlockNum block, bool retiring);
  // Bookkeeping shared by every retirement path: flips the BlockInfo to
  // kBad, records it in the persisted bad-block list, and re-evaluates the
  // degradation floor.
  void MarkBlockBad(flash::BlockNum block);
  // Transitions to read-only mode (idempotent).
  void EnterReadOnly(const std::string& reason);
  // Re-evaluates the read-only floor against the current bad-block counts.
  void UpdateDegradation();
  // Usable (non-bad) meta blocks remaining.
  uint32_t UsableMetaBlocks() const;

  // Meta-region management.
  StatusOr<flash::Ppn> NextMetaPpn();
  Status CompactMetaRegion();
  Status WriteRootRecord();

  // Recovery helpers.
  // The recovery scan: senses the OOB of every page in `ppns` as one bank-
  // interleaved batch and appends the programmed ones to `out` in order.
  Status ScanOobs(const std::vector<flash::Ppn>& ppns,
                  std::vector<std::pair<flash::Ppn, flash::PageOob>>* out);
  // Picks the newest loadable root and hands the subclass its meta pages.
  Status ScanMetaRegion();
  // Loads the root record in `root` (a CRC-valid page) and the segments it
  // references; Corruption if the checkpoint is not whole.
  Status LoadRootAndSegments(const std::vector<uint8_t>& root);
  // Reverts everything LoadRootAndSegments may have touched, so the next
  // (older) root candidate starts from a clean slate.
  void ResetMappingState();
  // First page of data block `b` the loaded root cannot vouch for, given
  // its page-0 stamp: 0 when the block was (re)opened after the root or its
  // stamp is unknown, the recorded next page when the root lists it as an
  // active block, pages_per_block (all trusted) otherwise.
  uint32_t TailStart(flash::BlockNum b, uint64_t stamp) const;
  Status RollForwardDataBlocks();
  // Classifies data blocks and rebuilds validity and reverse maps: sensed
  // pages from their OOB, trusted ones from the L2P. `stamps` holds each
  // block's page-0 block stamp. Resumes the newest partial blocks whose
  // future pages the next boot is sure to scan, one per active slot.
  void RebuildBlockState(const std::vector<uint64_t>& stamps);

  std::vector<flash::Ppn> l2p_;
  std::vector<BlockInfo> blocks_;
  std::vector<flash::BlockNum> free_blocks_;
  // Validity buckets over sealed blocks (see GcBucketInsert above) plus a
  // monotone hint at the lowest possibly-non-empty bucket. The hint only
  // moves down on insert and sweeps up past drained buckets inside
  // PickVictim, which is what makes selection O(1) amortized.
  std::vector<std::set<std::pair<uint64_t, flash::BlockNum>>> gc_buckets_;
  uint32_t gc_min_bucket_ = 0;
  // One active block per bank, kInvalid when none; round-robin cursor.
  std::vector<flash::BlockNum> active_blocks_;
  std::vector<uint32_t> active_next_page_;
  uint32_t bank_cursor_ = 0;

  uint32_t entries_per_segment_ = 0;
  std::vector<bool> segment_dirty_;
  // Latest durable snapshot ppn per segment (kInvalidPpn = never written).
  std::vector<flash::Ppn> segment_snapshot_ppn_;
  uint64_t last_root_seq_ = 0;
  // Recovery only: the loaded root's active blocks (block -> next page at
  // root time), the only blocks opened before it that can hold newer pages.
  std::unordered_map<flash::BlockNum, uint32_t> root_active_;

  // Meta-region cursor.
  flash::BlockNum meta_active_ = 0;
  uint32_t meta_next_page_ = 0;

  // --- NAND failure state ---------------------------------------------------
  EccEngine ecc_;
  // Grown bad blocks (data + meta), persisted with the root record so they
  // survive power cycles — physical damage does not heal on reboot.
  std::vector<flash::BlockNum> bad_blocks_;
  // True when bad_blocks_ changed since the last root record was written.
  bool bad_blocks_dirty_ = false;
  // Degraded mode: host-facing writes fail with ResourceExhausted.
  bool read_only_ = false;
  std::string read_only_reason_;
  // Recursion guard: a retirement may itself hit a failing program.
  int retire_depth_ = 0;

  // Recovery-scan OOB caches keyed by ppn, one for the data region and one
  // for the meta region (valid only during Recover()). scan_oob_ holds only
  // data pages, inserted in block order once both scan batches are in:
  // SccFtl iterates it through ScannedOobs(), and which copy of a
  // duplicated cycle page it keeps depends on that order.
  std::unordered_map<flash::Ppn, flash::PageOob> scan_oob_;
  std::unordered_map<flash::Ppn, flash::PageOob> meta_scan_oob_;
};

}  // namespace xftl::ftl

#endif  // XFTL_FTL_PAGE_FTL_H_
