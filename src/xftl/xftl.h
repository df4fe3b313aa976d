// X-FTL: the paper's transactional flash translation layer (SIGMOD'13, §4-5).
//
// X-FTL extends a page-mapping FTL with a small transactional mapping table,
// the X-L2P, holding one entry (tid, lpn, new_ppn, status) per page updated
// by an in-flight transaction, and four extended commands:
//
//   TxWrite(t, p)  copy-on-write update of p, recorded under t; the old
//                  committed copy stays in the L2P, so nothing is lost if t
//                  aborts. Re-writing the same page just swaps the entry's
//                  physical address.
//   TxRead(t, p)   t sees its own uncommitted version; everyone else reads
//                  the committed copy through the L2P.
//   TxCommit(t)    data barrier, mark entries COMMITTED, persist the X-L2P
//                  table copy-on-write (1-2 flash pages - this is the whole
//                  durability cost of a transaction), then fold the new
//                  addresses into the L2P.
//   TxAbort(t)     invalidate t's new pages; the L2P still has the old
//                  versions. Nothing needs to be written.
//
// Garbage collection keeps every page referenced by either table alive
// (PageFtl's validity maps already reflect that because TxWrite marks new
// pages valid without invalidating old ones) and re-points X-L2P entries when
// it relocates their pages.
//
// Crash recovery (paper §5.4): load the latest durable X-L2P snapshot,
// re-apply COMMITTED entries to the L2P (idempotent), and discard
// ACTIVE/ABORTED entries - their pages simply remain unreferenced garbage.
//
// Array extension (beyond the paper, for host::StripedVolume): a transaction
// striped across several devices commits in two phases. TxPrepare durably
// marks the transaction's entries PREPARED — the member keeps BOTH versions
// (the L2P still has the pre-image, the X-L2P the new pages) and promises it
// can go either way. The array controller then writes a commit record — an
// X-L2P slot with status COMMIT_RECORD, persisted through the ordinary
// snapshot machinery — on a designated member, and only then fans out
// TxCommit. After a crash, PREPARED entries survive recovery as in-doubt:
// InDoubtTransactions() exposes them and ResolveInDoubt() either REDO-folds
// the new mappings (commit record durable) or invalidates the new pages
// (no record — abort to the pre-image). Resolution is idempotent and
// exactly-once per member: a resolved transaction has no PREPARED slots
// left, so a second resolve is a no-op.
//
// Engineering note beyond the paper's prose: a committed entry stays in the
// table until the next L2P checkpoint covers its mapping; only then is the
// slot reused. Otherwise a crash after slot reuse could lose a committed
// mapping that existed nowhere durable. When the table fills up with such
// retained entries, X-FTL forces a mapping checkpoint and reclaims them.
#ifndef XFTL_XFTL_XFTL_H_
#define XFTL_XFTL_XFTL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "ftl/page_ftl.h"

namespace xftl::ftl {

// Transaction id. 0 means "not transactional".
using TxId = uint32_t;
inline constexpr TxId kNoTx = 0;

struct XftlConfig {
  // Paper: 500 entries (8 KB) or 1000 entries (16 KB), 16 bytes each.
  uint32_t xl2p_capacity = 500;
  // The firmware's durability-point discipline lives in
  // FtlConfig::commit_mode (shared with the base FTL):
  //   kDrain   — the paper's strict path: drain the device, then persist an
  //              X-L2P snapshot synchronously at every commit/prepare.
  //   kBarrier — order-preserving: the commit opens a new flash epoch and
  //              writes the snapshot into it without waiting. A durable
  //              complete snapshot then implies (epoch-prefix consistency)
  //              that every earlier data page is durable too, so recovery
  //              never sees a commit whose data is missing; an acked commit
  //              may be lost wholesale, which is the contract fsync-style
  //              callers opt into by issuing barriers instead of flushes.
  //   kPlp     — capacitor-backed cache: commits stay in the protected DRAM
  //              table; the emergency checkpoint at power-off persists them
  //              (see SimSsd::CutPower). Shared real-drive limitation: a
  //              flash array already failing when power drops cannot take
  //              the checkpoint, and those commits are lost.
};

struct XftlStats {
  uint64_t tx_writes = 0;
  uint64_t tx_reads = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t empty_commits = 0;       // commit with no dirty pages: no I/O
  uint64_t xl2p_snapshot_pages = 0; // flash pages spent persisting the table
  uint64_t write_conflicts = 0;     // TxWrite rejected with Busy
  uint64_t forced_checkpoints = 0;  // table-full L2P checkpoints
  uint64_t recovered_committed = 0; // entries re-applied at recovery
  uint64_t recovered_discarded = 0; // active/aborted entries rolled back
  // --- array two-phase commit (host::StripedVolume) -----------------------
  uint64_t prepares = 0;            // TxPrepare calls with entries
  uint64_t commit_records = 0;      // coordinator commit records written
  uint64_t recovered_prepared = 0;  // in-doubt entries retained at recovery
  uint64_t resolved_forward = 0;    // in-doubt transactions REDO-committed
  uint64_t resolved_aborted = 0;    // in-doubt transactions aborted
  SimNanos last_recovery_nanos = 0; // X-L2P load + reflect (paper Table 5)
  // --- MVCC snapshot reads ------------------------------------------------
  uint64_t pins_opened = 0;         // PinSnapshot calls
  uint64_t pins_closed = 0;         // UnpinSnapshot calls that released a pin
  uint64_t snapshot_reads = 0;      // SnapshotRead calls
  uint64_t version_hits = 0;        // snapshot reads served from a pre-image
  uint64_t reclaim_deferrals = 0;   // slot releases skipped for a pinned epoch

  // Field-wise equality (tests compare runs that must match exactly).
  bool operator==(const XftlStats&) const = default;
};

class XFtl : public PageFtl {
 public:
  XFtl(flash::FlashDevice* device, const FtlConfig& ftl_config,
       const XftlConfig& xftl_config);

  // --- extended command set (paper §4.2) ----------------------------------
  // TxWrite(kNoTx, ...) is the untagged Write().
  Status TxWrite(TxId t, Lpn p, const uint8_t* data);
  Status TxRead(TxId t, Lpn p, uint8_t* data);
  Status TxCommit(TxId t);
  Status TxAbort(TxId t);

  // --- array two-phase commit (used by host::StripedVolume) ---------------
  // Durably marks t's entries PREPARED: after this returns, a crashed member
  // still holds both versions and can commit or abort t on demand. A
  // transaction with no writes prepares trivially. Under PLP firmware the
  // marker lives in the capacitor-protected table, like commits.
  Status TxPrepare(TxId t);
  // Writes (durably, modulo PLP) / releases the coordinator-side commit
  // record for t. The record is an X-L2P slot with no page of its own; it
  // rides the ordinary snapshot machinery, so a crash tearing the snapshot
  // that carries it leaves no record — which recovery reads as "abort".
  // Both are idempotent; releasing is lazily persisted (a resurfacing
  // released record only re-drives an idempotent REDO).
  Status WriteCommitRecord(TxId t);
  Status ReleaseCommitRecord(TxId t);
  bool HasCommitRecord(TxId t) const;
  // Transaction ids with a retained commit record, ascending.
  std::vector<TxId> CommitRecords() const;
  // Transaction ids with PREPARED entries (in-doubt after a reboot),
  // ascending.
  std::vector<TxId> InDoubtTransactions() const;
  // Resolves an in-doubt transaction: commit=true folds the new mappings
  // into the L2P (REDO), commit=false invalidates the new pages (the L2P
  // still holds the pre-images). No-op if t has no PREPARED entries.
  Status ResolveInDoubt(TxId t, bool commit);

  // Durable L2P + X-L2P checkpoint: drains the device, persists the dirty
  // mapping segments and the table snapshot, and releases folded committed
  // slots. Unlike Flush(), this persists even under fast_barrier firmware;
  // it is the forced-reclaim path and the PLP emergency checkpoint.
  Status Checkpoint();

  // --- MVCC snapshot reads (beyond the paper; ROADMAP item) ---------------
  // The X-L2P already retains every committed pre-image until the next L2P
  // checkpoint; these commands serve those versions instead of discarding
  // them. A pin latches the current commit epoch: every version visible at
  // that epoch stays readable — reclamation (checkpoint, forced reclaim)
  // keeps a retained slot alive while any pin predates its commit — and GC
  // relocation re-points pre-images like any other X-L2P reference. Pins
  // are volatile: a power cut discards them, and recovery never resurrects
  // a snapshot-only version (pre-images are absent from the durable
  // snapshot, so they become garbage).
  //
  // Pins the current commit epoch and returns it.
  uint64_t PinSnapshot();
  // Releases a pin. Lenient: unknown or already-released epochs are a no-op
  // so hosts can unpin blindly across device reboots.
  void UnpinSnapshot(uint64_t epoch);
  // Reads `p` as of pinned epoch `epoch`: the retained pre-image of the
  // first commit after the pin if one exists, the live L2P copy otherwise
  // (0xff-filled if `p` was unmapped at the pin). FailedPrecondition if
  // `epoch` is not currently pinned.
  Status SnapshotRead(uint64_t epoch, Lpn p, uint8_t* data);
  size_t PinnedSnapshotCount() const { return pins_.size(); }

  const XftlStats& xstats() const { return xstats_; }
  // Id of the newest X-L2P snapshot known whole on flash: the one recovery
  // loaded, or a newer one written since (0 = none). xftl_fsck checks it
  // against its own derivation.
  uint64_t complete_snapshot_id() const { return complete_snapshot_id_; }
  // Number of table slots in use (active + retained committed).
  size_t Xl2pOccupancy() const;
  // Number of distinct transactions with ACTIVE entries.
  size_t ActiveTxCount() const;

 protected:
  Status FlushSubclassMeta() override;
  Status RewriteSubclassMeta() override {
    xl2p_dirty_ = true;
    return FlushSubclassMeta();
  }
  void OnPageRelocated(Lpn lpn, flash::Ppn from, flash::Ppn to) override;
  void OnMetaPagesScanned(const std::vector<MetaPageRef>& pages) override;
  void NameRecoveryPages(std::vector<flash::Ppn>* ppns) const override;
  Status FinishRecovery() override;

 private:
  enum class SlotStatus : uint8_t {
    kFree = 0,
    kActive = 1,
    kCommitted = 2,     // retained until the next L2P checkpoint
    kPrepared = 3,      // durably in-doubt: both versions retained until the
                        // array controller commits or aborts
    kCommitRecord = 4,  // coordinator commit record (lpn/ppn unused)
  };

  struct Slot {
    TxId tid = kNoTx;
    Lpn lpn = 0;
    flash::Ppn new_ppn = flash::kInvalidPpn;
    SlotStatus status = SlotStatus::kFree;
    // True once the mapping has been folded into the L2P. A committed slot
    // may only be reclaimed after it is folded AND the L2P checkpoint
    // covers it; guarding on this prevents a meta-compaction triggered in
    // the middle of TxCommit's own snapshot write from freeing the very
    // entries being committed.
    bool folded = false;
    // MVCC (volatile; not serialized into the X-L2P snapshot): the commit
    // epoch the fold happened in, and the pre-image the fold displaced when
    // a pin was open at commit time (kInvalidPpn = no pre-image retained —
    // either no pin was open, or the lpn was unmapped before the commit).
    uint64_t commit_epoch = 0;
    flash::Ppn old_ppn = flash::kInvalidPpn;
  };

  // Finds the slot holding (t, p) with ACTIVE status, or -1.
  int FindActiveSlot(TxId t, Lpn p) const;
  // Drops the by_lpn_ entry pointing at `idx` (no-op if absent — committed
  // slots were already unindexed when they left ACTIVE status).
  void EraseByLpn(Lpn p, int idx);
  // Allocates a free slot, forcing a checkpoint to reclaim retained
  // committed slots when necessary.
  StatusOr<int> AllocateSlot();
  void FreeSlot(int idx);
  // Releases every retained committed slot not still visible to a pinned
  // snapshot (call only after the L2P has been durably checkpointed).
  void ReleaseCommittedSlots();
  // The folded committed slots no pinned snapshot can still see: per lpn,
  // pin E only needs the first commit after E, so later rewrites of the
  // same page are releasable even while readers stay pinned.
  std::vector<int> ReleasableCommittedSlots() const;
  // Drops the versions_by_lpn_ entry pointing at `idx` (no-op if absent).
  void EraseVersion(Lpn p, int idx);
  // Fold epilogue shared by TxCommit and ResolveInDoubt's REDO: folds the
  // new mappings into the L2P under a fresh commit epoch, retaining each
  // displaced pre-image when a snapshot pin is open.
  void FoldEntries(const std::vector<int>& entries);
  // Serializes occupied slots into meta pages (tag kTagXl2p); each page's
  // OOB carries its snapshot id (link_seq) and page count (link_lpn).
  Status WriteXl2pSnapshot();
  // Reads snapshot page `ppn` and appends its entries to `entries` if it is
  // CRC-valid page `index` of snapshot `snap_id`.
  bool LoadSnapshotPage(flash::Ppn ppn, uint64_t snap_id, uint64_t index,
                        std::vector<Slot>* entries);
  // The ordering point at the head of a commit/prepare: kDrain waits for the
  // program buffer, kBarrier opens a new epoch (the transaction's data pages
  // stay in the old one, the snapshot goes into the new one), kPlp needs
  // neither — the capacitor covers the buffer.
  void CommitOrderPoint();
  // The durability point at the tail: kDrain snapshots and drains, kBarrier
  // snapshots without waiting (epoch order does the rest), kPlp just marks
  // the protected table dirty for the next lazy snapshot.
  Status PersistCommitState();

  const XftlConfig xconfig_;
  XftlStats xstats_;
  std::vector<Slot> slots_;
  std::vector<int> free_slots_;
  // lpn -> slot indexes with ACTIVE status only. Entries are erased eagerly
  // the moment a slot leaves ACTIVE (commit fold, abort), so hot-page
  // lookups stay O(live uncommitted versions) no matter how many committed
  // slots are retained between L2P checkpoints.
  std::unordered_multimap<Lpn, int> by_lpn_;
  // new_ppn -> slot index for EVERY occupied slot (active + retained
  // committed); this is what keeps GC relocation (OnPageRelocated) O(1)
  // after committed slots left by_lpn_.
  std::unordered_map<flash::Ppn, int> by_ppn_;
  // tid -> slot indexes with ACTIVE or PREPARED status.
  std::unordered_map<TxId, std::vector<int>> by_tid_;
  // tid -> commit-record slot index (records have no page, so they live in
  // neither by_ppn_ nor by_lpn_).
  std::map<TxId, int> records_;
  // --- MVCC snapshot state (volatile) -------------------------------------
  // Bumped once per non-empty commit fold; PinSnapshot latches it.
  uint64_t commit_epoch_ = 0;
  // epoch -> pin refcount, ordered so the minimum pinned epoch is begin().
  std::map<uint64_t, uint32_t> pins_;
  // lpn -> retained committed slots folded while a pin was open; the
  // version-visibility lookup of SnapshotRead.
  std::unordered_multimap<Lpn, int> versions_by_lpn_;
  // old_ppn -> slot index for retained pre-images, so GC relocation keeps
  // the version store coherent in O(1) (mirrors by_ppn_ for new_ppn).
  std::unordered_map<flash::Ppn, int> by_old_ppn_;
  bool xl2p_dirty_ = false;
  uint64_t snapshot_id_ = 0;
  uint64_t complete_snapshot_id_ = 0;
  uint64_t xl2p_pages_scanned_ = 0;  // recovery-time accounting

  // Recovery scratch: the entries of the snapshot recovery loaded.
  std::vector<Slot> recovery_entries_;
};

}  // namespace xftl::ftl

#endif  // XFTL_XFTL_XFTL_H_
