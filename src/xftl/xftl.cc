#include "xftl/xftl.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/coding.h"
#include "common/crc32.h"

namespace xftl::ftl {

namespace {
constexpr uint32_t kXl2pMagic = 0x584c3250;  // "XL2P"
// Snapshot page layout:
//   magic(4) snapshot_id(8) page_index(4) total_pages(4) entry_count(4)
//   pad(8) entries[entry_count]{tid(4) lpn(4) ppn(4) status(1) pad(3)}
//   ... crc(4) at page end.
constexpr size_t kSnapHeaderSize = 32;
constexpr size_t kEntrySize = 16;

// Records an X-FTL-layer event ending now (no-op without a tracer).
void TraceX(flash::FlashDevice* dev, trace::Op op, SimNanos t0, TxId t,
            uint64_t a, uint64_t b, StatusCode code) {
  trace::Tracer* tr = dev->tracer();
  if (tr != nullptr) {
    tr->Record(trace::Layer::kXftl, op, t0, t, a, b,
               dev->clock()->Now() - t0, code);
  }
}
}  // namespace

XFtl::XFtl(flash::FlashDevice* device, const FtlConfig& ftl_config,
           const XftlConfig& xftl_config)
    : PageFtl(device, ftl_config), xconfig_(xftl_config) {
  CHECK_GT(xconfig_.xl2p_capacity, 0u);
  // Meta compaction rewrites every live meta page (L2P segments + root +
  // a full X-L2P snapshot) into a single reserve block; a table too large
  // for that would wedge the meta region.
  const uint32_t page_size = device->config().page_size;
  const uint32_t entries_per_page =
      uint32_t((page_size - kSnapHeaderSize - 4) / kEntrySize);
  uint32_t snapshot_pages =
      (xconfig_.xl2p_capacity + entries_per_page - 1) / entries_per_page;
  CHECK_LE(num_segments() + 1 + snapshot_pages,
           device->config().pages_per_block)
      << "X-L2P capacity too large for single-block meta compaction";
  slots_.assign(xconfig_.xl2p_capacity, Slot{});
  free_slots_.reserve(xconfig_.xl2p_capacity);
  for (int i = int(xconfig_.xl2p_capacity) - 1; i >= 0; --i) {
    free_slots_.push_back(i);
  }
}

size_t XFtl::Xl2pOccupancy() const {
  return slots_.size() - free_slots_.size();
}

size_t XFtl::ActiveTxCount() const { return by_tid_.size(); }

int XFtl::FindActiveSlot(TxId t, Lpn p) const {
  auto [lo, hi] = by_lpn_.equal_range(p);
  for (auto it = lo; it != hi; ++it) {
    const Slot& s = slots_[it->second];
    if (s.status == SlotStatus::kActive && s.tid == t) return it->second;
  }
  return -1;
}

StatusOr<int> XFtl::AllocateSlot() {
  if (free_slots_.empty()) {
    // Retained committed slots are reclaimable once the L2P checkpoint
    // covers their mappings — unless a pinned snapshot still sees their
    // pre-images; force a checkpoint only if it can actually free one.
    if (ReleasableCommittedSlots().empty()) {
      return Status::ResourceExhausted(
          "X-L2P table full of active transactions and pinned versions");
    }
    XFTL_RETURN_IF_ERROR(Checkpoint());
    xstats_.forced_checkpoints++;
    if (free_slots_.empty()) {
      return Status::ResourceExhausted(
          "X-L2P table full of active transactions and pinned versions");
    }
  }
  int idx = free_slots_.back();
  free_slots_.pop_back();
  return idx;
}

void XFtl::EraseByLpn(Lpn p, int idx) {
  auto [lo, hi] = by_lpn_.equal_range(p);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == idx) {
      by_lpn_.erase(it);
      return;
    }
  }
}

void XFtl::EraseVersion(Lpn p, int idx) {
  auto [lo, hi] = versions_by_lpn_.equal_range(p);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == idx) {
      versions_by_lpn_.erase(it);
      return;
    }
  }
}

void XFtl::FreeSlot(int idx) {
  Slot& s = slots_[idx];
  EraseByLpn(s.lpn, idx);  // no-op for committed slots (unindexed at fold)
  auto pit = by_ppn_.find(s.new_ppn);
  if (pit != by_ppn_.end() && pit->second == idx) by_ppn_.erase(pit);
  if (s.old_ppn != flash::kInvalidPpn) {
    auto oit = by_old_ppn_.find(s.old_ppn);
    if (oit != by_old_ppn_.end() && oit->second == idx) by_old_ppn_.erase(oit);
    // The retained pre-image finally becomes garbage. Guard on the validity
    // bitmap: if GC lost the page to an uncorrectable read, its ppn may have
    // been erased and reprogrammed for someone else by now.
    if (PpnHolds(s.old_ppn, s.lpn)) InvalidatePpn(s.old_ppn);
  }
  EraseVersion(s.lpn, idx);
  s = Slot{};
  free_slots_.push_back(idx);
}

Status XFtl::TxWrite(TxId t, Lpn p, const uint8_t* data) {
  if (t == kNoTx) return Write(p, data);
  if (p >= num_logical_pages()) {
    return Status::OutOfRange("lpn " + std::to_string(p));
  }
  XFTL_RETURN_IF_ERROR(CheckWritable());
  SimNanos t0 = device()->clock()->Now();

  // Re-write within the same transaction: swap the physical address.
  int idx = FindActiveSlot(t, p);
  if (idx >= 0) {
    XFTL_ASSIGN_OR_RETURN(flash::Ppn ppn,
                          ProgramDataPage(p, data, kTagTxData));
    InvalidatePpn(slots_[idx].new_ppn);
    by_ppn_.erase(slots_[idx].new_ppn);
    slots_[idx].new_ppn = ppn;
    by_ppn_[ppn] = idx;
    stats_.host_page_writes++;
    xstats_.tx_writes++;
    xl2p_dirty_ = true;
    TraceX(device(), trace::Op::kTxWrite, t0, t, p, ppn, StatusCode::kOk);
    return Status::OK();
  }

  // Write-write conflict with another active transaction: reject, as
  // TxFlash-style isolation demands (SQLite's file lock prevents this in
  // practice).
  auto [lo, hi] = by_lpn_.equal_range(p);
  for (auto it = lo; it != hi; ++it) {
    const Slot& s = slots_[it->second];
    if ((s.status == SlotStatus::kActive ||
         s.status == SlotStatus::kPrepared) &&
        s.tid != t) {
      xstats_.write_conflicts++;
      TraceX(device(), trace::Op::kTxWrite, t0, t, p, 0, StatusCode::kBusy);
      return Status::Busy("page " + std::to_string(p) +
                          " is being updated by transaction " +
                          std::to_string(s.tid));
    }
  }

  XFTL_ASSIGN_OR_RETURN(int slot, AllocateSlot());
  XFTL_ASSIGN_OR_RETURN(flash::Ppn ppn, ProgramDataPage(p, data, kTagTxData));
  slots_[slot] = Slot{t, p, ppn, SlotStatus::kActive};
  by_lpn_.emplace(p, slot);
  by_ppn_[ppn] = slot;
  by_tid_[t].push_back(slot);
  stats_.host_page_writes++;
  xstats_.tx_writes++;
  xl2p_dirty_ = true;
  TraceX(device(), trace::Op::kTxWrite, t0, t, p, ppn, StatusCode::kOk);
  return Status::OK();
}

Status XFtl::TxRead(TxId t, Lpn p, uint8_t* data) {
  if (t != kNoTx) {
    int idx = FindActiveSlot(t, p);
    if (idx >= 0) {
      // The transaction sees its own uncommitted version.
      SimNanos t0 = device()->clock()->Now();
      xstats_.tx_reads++;
      stats_.host_page_reads++;
      Status s = ReadPhysPage(slots_[idx].new_ppn, data);
      TraceX(device(), trace::Op::kTxRead, t0, t, p, slots_[idx].new_ppn,
             s.code());
      return s;
    }
  }
  // Committed-copy reads record at the FTL layer inside Read().
  return Read(p, data);
}

Status XFtl::TxCommit(TxId t) {
  SimNanos t0 = device()->clock()->Now();
  auto it = by_tid_.find(t);
  if (it == by_tid_.end()) {
    // Nothing written under t: a commit of a read-only transaction.
    xstats_.commits++;
    xstats_.empty_commits++;
    TraceX(device(), trace::Op::kTxCommit, t0, t, 0, 0, StatusCode::kOk);
    return Status::OK();
  }
  // A device that degraded to read-only mid-transaction cannot write the
  // commit record; the transaction stays active so the caller can abort it
  // (aborting writes nothing and is always allowed).
  XFTL_RETURN_IF_ERROR(CheckWritable());
  std::vector<int> entries = std::move(it->second);
  by_tid_.erase(it);

  // Step 0 (implicit in the paper): all data pages written by t must reach
  // the cells before the commit record makes them reachable. kDrain waits
  // for them; kBarrier only orders them ahead of the snapshot (epoch fence);
  // under PLP the capacitor covers the program buffer.
  CommitOrderPoint();

  // Step 1: mark entries committed (not yet folded into the L2P). The slot
  // leaves ACTIVE status here, so its by_lpn_ entry is erased eagerly —
  // retained committed slots must never pile up under a hot lpn (they stay
  // findable through by_ppn_ for GC relocation). PREPARED entries (array
  // two-phase commit) take the same path: the second phase upgrades them.
  for (int idx : entries) {
    DCHECK(slots_[idx].status == SlotStatus::kActive ||
           slots_[idx].status == SlotStatus::kPrepared);
    slots_[idx].status = SlotStatus::kCommitted;
    slots_[idx].folded = false;
    EraseByLpn(slots_[idx].lpn, idx);
  }

  // Steps 2-3: persist the X-L2P table copy-on-write; the new snapshot's
  // sequence number is the atomic "location update" in the meta root sense.
  // (This write can trigger meta-region compaction, which checkpoints the
  // L2P and releases folded committed slots - the entries committed here
  // are protected by their folded=false flag.) PLP firmware keeps the
  // commit in the protected DRAM table instead and snapshots lazily — at
  // forced reclaim, meta compaction, or the power-loss checkpoint.
  XFTL_RETURN_IF_ERROR(PersistCommitState());

  // Step 4: fold the new physical addresses into the L2P (idempotent; the
  // base FTL checkpoints the L2P lazily). With a snapshot pin open the fold
  // retains each displaced pre-image instead of invalidating it.
  FoldEntries(entries);

  stats_.flush_barriers++;  // a commit doubles as the write barrier
  xstats_.commits++;
  TraceX(device(), trace::Op::kTxCommit, t0, t, entries.size(), 0,
         StatusCode::kOk);
  return Status::OK();
}

void XFtl::FoldEntries(const std::vector<int>& entries) {
  const uint64_t epoch = ++commit_epoch_;
  const bool retain = !pins_.empty();
  for (int idx : entries) {
    Slot& s = slots_[idx];
    flash::Ppn old = MappingOf(s.lpn);
    s.commit_epoch = epoch;
    if (old != flash::kInvalidPpn && old != s.new_ppn) {
      if (retain) {
        // A pinned snapshot may still need the displaced version; keep it
        // valid (GC relocates it like any live page) until the slot is
        // released by a pin-aware checkpoint.
        s.old_ppn = old;
        by_old_ppn_[old] = idx;
      } else {
        InvalidatePpn(old);
      }
    }
    // The slot itself is the visibility marker: even without a pre-image
    // (first write of the lpn) it tells SnapshotRead the page was unmapped
    // at any pinned epoch older than this commit.
    if (retain) versions_by_lpn_.emplace(s.lpn, idx);
    SetMapping(s.lpn, s.new_ppn);
    s.folded = true;
  }
}

uint64_t XFtl::PinSnapshot() {
  SimNanos t0 = device()->clock()->Now();
  const uint64_t epoch = commit_epoch_;
  pins_[epoch]++;
  xstats_.pins_opened++;
  TraceX(device(), trace::Op::kSnapPin, t0, kNoTx, 0, epoch, StatusCode::kOk);
  return epoch;
}

void XFtl::UnpinSnapshot(uint64_t epoch) {
  SimNanos t0 = device()->clock()->Now();
  auto it = pins_.find(epoch);
  if (it != pins_.end()) {
    xstats_.pins_closed++;
    if (--it->second == 0) pins_.erase(it);
  }
  TraceX(device(), trace::Op::kSnapUnpin, t0, kNoTx, 0, epoch,
         StatusCode::kOk);
}

Status XFtl::SnapshotRead(uint64_t epoch, Lpn p, uint8_t* data) {
  if (p >= num_logical_pages()) {
    return Status::OutOfRange("lpn " + std::to_string(p));
  }
  if (pins_.find(epoch) == pins_.end()) {
    return Status::FailedPrecondition("epoch " + std::to_string(epoch) +
                                      " is not pinned");
  }
  SimNanos t0 = device()->clock()->Now();
  xstats_.snapshot_reads++;
  // The version visible at `epoch` is the pre-image of the FIRST commit
  // after the pin. No such retained slot means no commit superseded the
  // page (pin-aware reclamation keeps every superseding slot alive while
  // the pin is open), so the live copy is the right one.
  int best = -1;
  auto [lo, hi] = versions_by_lpn_.equal_range(p);
  for (auto it = lo; it != hi; ++it) {
    const Slot& s = slots_[it->second];
    if (s.commit_epoch <= epoch) continue;
    if (best < 0 || s.commit_epoch < slots_[best].commit_epoch) {
      best = it->second;
    }
  }
  if (best < 0) {
    Status s = Read(p, data);
    TraceX(device(), trace::Op::kSnapRead, t0, kNoTx, p, 0, s.code());
    return s;
  }
  xstats_.version_hits++;
  stats_.host_page_reads++;
  Status s;
  if (slots_[best].old_ppn == flash::kInvalidPpn) {
    // The pinned epoch predates the page's first write.
    std::memset(data, 0xff, page_size());
  } else {
    s = ReadPhysPage(slots_[best].old_ppn, data);
  }
  TraceX(device(), trace::Op::kSnapRead, t0, kNoTx, p, 1, s.code());
  return s;
}

Status XFtl::TxAbort(TxId t) {
  SimNanos t0 = device()->clock()->Now();
  uint64_t dropped = 0;
  auto it = by_tid_.find(t);
  if (it != by_tid_.end()) {
    dropped = it->second.size();
    for (int idx : it->second) {
      InvalidatePpn(slots_[idx].new_ppn);
      FreeSlot(idx);
    }
    by_tid_.erase(it);
    xl2p_dirty_ = true;
  }
  // Nothing to persist: if the pre-abort table state were to survive a
  // crash, recovery discards ACTIVE entries anyway.
  xstats_.aborts++;
  TraceX(device(), trace::Op::kTxAbort, t0, t, dropped, 0, StatusCode::kOk);
  return Status::OK();
}

Status XFtl::TxPrepare(TxId t) {
  SimNanos t0 = device()->clock()->Now();
  auto it = by_tid_.find(t);
  if (it == by_tid_.end()) {
    // Read-only participant: nothing to retain, commit is trivially durable.
    TraceX(device(), trace::Op::kTxPrepare, t0, t, 0, 0, StatusCode::kOk);
    return Status::OK();
  }
  XFTL_RETURN_IF_ERROR(CheckWritable());
  // The data pages must be ordered ahead of the PREPARED marker; with
  // kBarrier firmware the marker is volatile until the coordinator
  // completion-waits the member (host::StripedVolume does, before it writes
  // the commit record). Under PLP the capacitor covers them.
  CommitOrderPoint();
  size_t n = it->second.size();
  for (int idx : it->second) {
    DCHECK(slots_[idx].status == SlotStatus::kActive);
    slots_[idx].status = SlotStatus::kPrepared;
  }
  // The marker itself must be durable too: after a crash the member still
  // holds both versions and asks the commit record which one wins. A failure
  // here leaves the entries PREPARED in RAM; the caller aborts, and a stale
  // durable PREPARED resurfacing later resolves to abort (no record).
  XFTL_RETURN_IF_ERROR(PersistCommitState());
  xstats_.prepares++;
  TraceX(device(), trace::Op::kTxPrepare, t0, t, n, 0, StatusCode::kOk);
  return Status::OK();
}

Status XFtl::WriteCommitRecord(TxId t) {
  SimNanos t0 = device()->clock()->Now();
  XFTL_RETURN_IF_ERROR(CheckWritable());
  if (records_.find(t) == records_.end()) {
    XFTL_ASSIGN_OR_RETURN(int idx, AllocateSlot());
    slots_[idx] = Slot{t, 0, flash::kInvalidPpn, SlotStatus::kCommitRecord};
    records_[t] = idx;
  }
  // No ordering point of its own: the coordinator completion-waits every
  // member's prepare before writing the record, so there is nothing left in
  // flight that the record could overtake.
  XFTL_RETURN_IF_ERROR(PersistCommitState());
  xstats_.commit_records++;
  TraceX(device(), trace::Op::kCommitRecord, t0, t, 1, 0, StatusCode::kOk);
  return Status::OK();
}

Status XFtl::ReleaseCommitRecord(TxId t) {
  auto it = records_.find(t);
  if (it == records_.end()) return Status::OK();  // idempotent
  SimNanos t0 = device()->clock()->Now();
  FreeSlot(it->second);
  records_.erase(it);
  // Lazily persisted: until the next snapshot the released record can
  // resurface after a crash, which only re-drives an idempotent REDO of a
  // transaction every member already committed.
  xl2p_dirty_ = true;
  TraceX(device(), trace::Op::kCommitRecord, t0, t, 0, 0, StatusCode::kOk);
  return Status::OK();
}

bool XFtl::HasCommitRecord(TxId t) const {
  return records_.find(t) != records_.end();
}

std::vector<TxId> XFtl::CommitRecords() const {
  std::vector<TxId> out;
  out.reserve(records_.size());
  for (const auto& [tid, idx] : records_) out.push_back(tid);
  return out;
}

std::vector<TxId> XFtl::InDoubtTransactions() const {
  std::set<TxId> tids;
  for (const Slot& s : slots_) {
    if (s.status == SlotStatus::kPrepared) tids.insert(s.tid);
  }
  return std::vector<TxId>(tids.begin(), tids.end());
}

Status XFtl::ResolveInDoubt(TxId t, bool commit) {
  SimNanos t0 = device()->clock()->Now();
  std::vector<int> entries;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].status == SlotStatus::kPrepared && slots_[i].tid == t) {
      entries.push_back(int(i));
    }
  }
  if (entries.empty()) {
    // Already resolved (or never prepared here): exactly-once per member.
    TraceX(device(), trace::Op::kResolve, t0, t, commit ? 1 : 0, 0,
           StatusCode::kOk);
    return Status::OK();
  }
  by_tid_.erase(t);
  if (commit) {
    // REDO: identical to TxCommit's fold, minus the barriers — the data
    // pages were durable at prepare time and the caller checkpoints before
    // the commit record is released.
    for (int idx : entries) {
      slots_[idx].status = SlotStatus::kCommitted;
      slots_[idx].folded = false;
      EraseByLpn(slots_[idx].lpn, idx);
    }
    FoldEntries(entries);
    xstats_.resolved_forward++;
  } else {
    // Abort to the pre-image: the L2P never saw the new pages.
    for (int idx : entries) {
      InvalidatePpn(slots_[idx].new_ppn);
      FreeSlot(idx);
    }
    xstats_.resolved_aborted++;
  }
  xl2p_dirty_ = true;
  TraceX(device(), trace::Op::kResolve, t0, t, commit ? 1 : 0, entries.size(),
         StatusCode::kOk);
  return Status::OK();
}

Status XFtl::Checkpoint() {
  // Not Flush(): with fast_barrier firmware a flush only drains the write
  // buffer, but slot reclamation needs the folded mappings durable in the
  // L2P checkpoint before their committed entries may be dropped from the
  // snapshot.
  device()->SyncAll();
  XFTL_RETURN_IF_ERROR(PersistMapping());
  XFTL_RETURN_IF_ERROR(FlushSubclassMeta());
  device()->SyncAll();
  return Status::OK();
}

void XFtl::CommitOrderPoint() {
  switch (config_.commit_mode) {
    case CommitMode::kDrain:
      device()->SyncAll();
      break;
    case CommitMode::kBarrier:
      device()->AdvanceEpoch();
      stats_.ordered_barriers++;
      break;
    case CommitMode::kPlp:
      break;
  }
}

Status XFtl::PersistCommitState() {
  switch (config_.commit_mode) {
    case CommitMode::kDrain:
      XFTL_RETURN_IF_ERROR(WriteXl2pSnapshot());
      device()->SyncAll();
      break;
    case CommitMode::kBarrier:
      // The snapshot lands in the epoch the order point just opened. If any
      // earlier page is lost at a power cut, epoch-prefix consistency says
      // the snapshot is lost too, so recovery can never see a commit whose
      // data is missing — only drop acked commits from the tail.
      XFTL_RETURN_IF_ERROR(WriteXl2pSnapshot());
      break;
    case CommitMode::kPlp:
      xl2p_dirty_ = true;
      break;
  }
  return Status::OK();
}

std::vector<int> XFtl::ReleasableCommittedSlots() const {
  std::vector<int> out;
  // With pins open, group the folded committed slots by lpn for the
  // visibility analysis below; without pins everything is releasable.
  std::unordered_map<Lpn, std::vector<int>> chains;
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (s.status != SlotStatus::kCommitted || !s.folded) continue;
    if (pins_.empty()) {
      out.push_back(int(i));
    } else {
      chains[s.lpn].push_back(int(i));
    }
  }
  // Pin E's visible version of a page is the pre-image of the FIRST commit
  // after E. So in each lpn's chain of commits e1 < e2 < ... a slot e_k is
  // still visible somewhere iff a pin lies in [e_{k-1}, e_k) — everything
  // else, including later rewrites of a hot page, is releasable even while
  // readers stay pinned.
  for (auto& [lpn, chain] : chains) {
    std::sort(chain.begin(), chain.end(), [this](int a, int b) {
      return slots_[a].commit_epoch < slots_[b].commit_epoch;
    });
    uint64_t prev = 0;
    for (int idx : chain) {
      const uint64_t e = slots_[idx].commit_epoch;
      auto pin = pins_.lower_bound(prev);
      if (pin == pins_.end() || pin->first >= e) out.push_back(idx);
      prev = e;
    }
  }
  return out;
}

void XFtl::ReleaseCommittedSlots() {
  uint64_t retained = 0;
  for (const Slot& s : slots_) {
    if (s.status == SlotStatus::kCommitted && s.folded) retained++;
  }
  const std::vector<int> releasable = ReleasableCommittedSlots();
  for (int idx : releasable) {
    FreeSlot(idx);
    xl2p_dirty_ = true;
  }
  // Whatever stayed behind is a snapshot some reader can still see. Even a
  // forced table-full checkpoint must not free these, or that reader would
  // observe pages from after its pin.
  const uint64_t deferred = retained - releasable.size();
  if (deferred > 0) {
    xstats_.reclaim_deferrals += deferred;
    SimNanos now = device()->clock()->Now();
    TraceX(device(), trace::Op::kSnapDefer, now, kNoTx, deferred,
           pins_.begin()->first, StatusCode::kOk);
  }
}

Status XFtl::FlushSubclassMeta() {
  // Called by PageFtl::Flush() right after PersistMapping(): every folded
  // mapping is now durable in the L2P checkpoint, so retained committed
  // entries can finally be reused.
  ReleaseCommittedSlots();
  if (!xl2p_dirty_) return Status::OK();
  return WriteXl2pSnapshot();
}

Status XFtl::WriteXl2pSnapshot() {
  const uint32_t page_size = this->page_size();
  const size_t entries_per_page = (page_size - kSnapHeaderSize - 4) / kEntrySize;

  // Copy the occupied slots BY VALUE and latch the epoch id before writing
  // anything: programming a snapshot page can trigger a meta-ring
  // compaction, whose checkpoint frees committed slots and (through
  // FlushSubclassMeta) writes a nested snapshot of its own. Serializing
  // through pointers would then emit freed slots, and re-reading
  // snapshot_id_ would stamp this write's remaining pages with the nested
  // epoch's id — letting recovery assemble a "complete" snapshot out of
  // pages from two different epochs.
  std::vector<Slot> occupied;
  occupied.reserve(Xl2pOccupancy());
  for (const Slot& s : slots_) {
    if (s.status != SlotStatus::kFree) occupied.push_back(s);
  }
  uint32_t total_pages =
      std::max<uint32_t>(1, uint32_t((occupied.size() + entries_per_page - 1) /
                                     entries_per_page));
  const uint64_t snap_id = ++snapshot_id_;

  std::vector<uint8_t> buf(page_size);
  size_t cursor = 0;
  for (uint32_t pg = 0; pg < total_pages; ++pg) {
    std::memset(buf.data(), 0, buf.size());
    size_t n = std::min(entries_per_page, occupied.size() - cursor);
    EncodeFixed32(buf.data(), kXl2pMagic);
    EncodeFixed64(buf.data() + 4, snap_id);
    EncodeFixed32(buf.data() + 12, pg);
    EncodeFixed32(buf.data() + 16, total_pages);
    EncodeFixed32(buf.data() + 20, uint32_t(n));
    size_t off = kSnapHeaderSize;
    for (size_t i = 0; i < n; ++i, ++cursor) {
      const Slot& s = occupied[cursor];
      EncodeFixed32(buf.data() + off, s.tid);
      EncodeFixed32(buf.data() + off + 4, uint32_t(s.lpn));
      EncodeFixed32(buf.data() + off + 8, s.new_ppn);
      buf[off + 12] = uint8_t(s.status);
      off += kEntrySize;
    }
    uint32_t crc = Crc32c(buf.data(), page_size - 4);
    EncodeFixed32(buf.data() + page_size - 4, crc);
    XFTL_RETURN_IF_ERROR(
        ProgramMetaPage(kTagXl2p, pg, buf.data(), total_pages, snap_id));
    xstats_.xl2p_snapshot_pages++;
  }
  complete_snapshot_id_ = std::max(complete_snapshot_id_, snap_id);
  xl2p_dirty_ = false;
  return Status::OK();
}

void XFtl::OnPageRelocated(Lpn lpn, flash::Ppn from, flash::Ppn to) {
  // O(1): the ppn index covers both active and retained committed slots.
  auto it = by_ppn_.find(from);
  if (it != by_ppn_.end()) {
    int idx = it->second;
    Slot& s = slots_[idx];
    DCHECK_EQ(s.new_ppn, from);
    by_ppn_.erase(it);
    s.new_ppn = to;
    by_ppn_[to] = idx;
    xl2p_dirty_ = true;
  }
  // A relocated page can simultaneously be one slot's new_ppn and another's
  // retained pre-image (chained commits to the same lpn under a pin), so
  // check both indexes.
  auto oit = by_old_ppn_.find(from);
  if (oit != by_old_ppn_.end()) {
    int idx = oit->second;
    DCHECK_EQ(slots_[idx].old_ppn, from);
    by_old_ppn_.erase(oit);
    slots_[idx].old_ppn = to;
    by_old_ppn_[to] = idx;
  }
}

void XFtl::OnMetaPagesScanned(const std::vector<MetaPageRef>& pages) {
  // Every snapshot page's OOB names its snapshot id and page count, so the
  // scan alone shows which epochs are whole. Only the newest whole one is
  // read; a page failing its CRC (torn) sends recovery to the next epoch,
  // and every epoch skipped is counted. Ids order epochs even when a
  // snapshot written inside a meta compaction lands between the pages of
  // an older one.
  struct Epoch {
    uint64_t total_pages = 0;
    std::map<uint64_t, std::vector<flash::Ppn>> copies;  // index -> newest first
  };
  std::map<uint64_t, Epoch> epochs;
  for (const MetaPageRef& mp : pages) {  // increasing seq
    if (mp.oob.tag != kTagXl2p) continue;
    Epoch& e = epochs[mp.oob.link_seq];
    e.total_pages = mp.oob.link_lpn;
    auto& copies = e.copies[mp.oob.lpn];
    copies.insert(copies.begin(), mp.ppn);
  }
  recovery_entries_.clear();
  complete_snapshot_id_ = 0;
  for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
    const Epoch& e = it->second;
    std::vector<Slot> entries;
    bool whole = e.total_pages > 0 && e.copies.size() == e.total_pages;
    for (auto c = e.copies.begin(); whole && c != e.copies.end(); ++c) {
      whole = false;
      for (flash::Ppn ppn : c->second) {
        if (LoadSnapshotPage(ppn, it->first, c->first, &entries)) {
          whole = true;
          break;
        }
      }
    }
    if (!whole) {
      stats_.recovery_root_fallbacks++;
      continue;
    }
    recovery_entries_ = std::move(entries);
    complete_snapshot_id_ = it->first;
    xl2p_pages_scanned_ = e.total_pages;  // the table actually loaded
    break;
  }
  // The next snapshot id must be newer than ANY id on flash — including
  // torn epochs skipped above, whose ids the OOB still shows. Reusing one
  // would let its leftover pages masquerade as part of the next snapshot.
  if (!epochs.empty()) snapshot_id_ = epochs.rbegin()->first;
}

bool XFtl::LoadSnapshotPage(flash::Ppn ppn, uint64_t snap_id, uint64_t index,
                            std::vector<Slot>* entries) {
  const uint32_t page_size = this->page_size();
  std::vector<uint8_t> data(page_size);
  if (!ReadPhysPage(ppn, data.data()).ok()) return false;  // torn
  const uint32_t count = DecodeFixed32(data.data() + 20);
  if (DecodeFixed32(data.data()) != kXl2pMagic ||
      DecodeFixed32(data.data() + page_size - 4) !=
          Crc32c(data.data(), page_size - 4) ||
      DecodeFixed64(data.data() + 4) != snap_id ||
      DecodeFixed32(data.data() + 12) != index ||
      kSnapHeaderSize + size_t(count) * kEntrySize + 4 > page_size) {
    return false;
  }
  size_t off = kSnapHeaderSize;
  for (uint32_t i = 0; i < count; ++i, off += kEntrySize) {
    Slot s;
    s.tid = DecodeFixed32(data.data() + off);
    s.lpn = DecodeFixed32(data.data() + off + 4);
    s.new_ppn = DecodeFixed32(data.data() + off + 8);
    s.status = SlotStatus(data[off + 12]);
    entries->push_back(s);
  }
  return true;
}

void XFtl::NameRecoveryPages(std::vector<flash::Ppn>* ppns) const {
  // FinishRecovery consults the page of every committed or prepared entry
  // and the current copy of its lpn: the checkpointed one, unless roll-
  // forward replaced it with a page it sensed anyway.
  for (const Slot& e : recovery_entries_) {
    if (e.status != SlotStatus::kCommitted &&
        e.status != SlotStatus::kPrepared) {
      continue;
    }
    ppns->push_back(e.new_ppn);
    ppns->push_back(MappingOf(e.lpn));
  }
}

Status XFtl::FinishRecovery() {
  SimNanos t0 = device()->clock()->Now();

  // Reset the in-RAM table; it will be rebuilt from the snapshot.
  slots_.assign(xconfig_.xl2p_capacity, Slot{});
  free_slots_.clear();
  for (int i = int(xconfig_.xl2p_capacity) - 1; i >= 0; --i) {
    free_slots_.push_back(i);
  }
  by_lpn_.clear();
  by_ppn_.clear();
  by_tid_.clear();
  records_.clear();
  // Snapshot pins are volatile by design: a reader that straddled the crash
  // re-opens its transaction, and the pre-images it was pinning are absent
  // from the durable snapshot (they become garbage), so recovery can never
  // resurrect a snapshot-only version.
  pins_.clear();
  versions_by_lpn_.clear();
  by_old_ppn_.clear();
  xl2p_dirty_ = false;

  // The newest whole snapshot, as the meta scan loaded it.
  const std::vector<Slot> entries = std::move(recovery_entries_);
  recovery_entries_.clear();
  for (const Slot& e : entries) {
    if (e.status == SlotStatus::kCommitRecord) {
      // Coordinator-side commit record: no page of its own. Retained until
      // the array controller releases it after every participant resolved.
      auto slot_or = AllocateSlot();
      if (slot_or.ok()) {
        int idx = slot_or.value();
        slots_[idx] = Slot{e.tid, 0, flash::kInvalidPpn,
                           SlotStatus::kCommitRecord};
        records_[e.tid] = idx;
        xl2p_dirty_ = true;
      }
      continue;
    }
    if (e.status == SlotStatus::kPrepared) {
      // In-doubt: the member durably promised it can still go either way.
      // Keep both versions alive until the array controller resolves the
      // transaction against the commit record — unless the durable state
      // already shows the outcome (page gone = aborted long ago; newer
      // superseding write = resolved long ago; fold already in the L2P
      // checkpoint = committed).
      const flash::PageOob* oob = ScannedOob(e.new_ppn);
      if (oob == nullptr ||
          device()->PageStateOf(e.new_ppn) ==
              flash::FlashDevice::PageState::kTorn ||
          oob->lpn != e.lpn || oob->tag != kTagTxData) {
        xstats_.recovered_discarded++;
        stats_.recovery_discarded_txn_pages++;
        continue;
      }
      flash::Ppn cur = MappingOf(e.lpn);
      if (cur == e.new_ppn) continue;  // fold durable: locally committed
      if (cur != flash::kInvalidPpn) {
        const flash::PageOob* cur_oob = ScannedOob(cur);
        if (cur_oob != nullptr &&
            DataVersion(*cur_oob) >= DataVersion(*oob)) {
          xstats_.recovered_discarded++;
          continue;  // a newer durable write superseded this entry
        }
      }
      auto slot_or = AllocateSlot();
      if (slot_or.ok()) {
        int idx = slot_or.value();
        slots_[idx] = Slot{e.tid, e.lpn, e.new_ppn, SlotStatus::kPrepared};
        MarkPpnValid(e.new_ppn, e.lpn);  // GC must not collect the new copy
        by_ppn_[e.new_ppn] = idx;
        by_tid_[e.tid].push_back(idx);
        xstats_.recovered_prepared++;
        xl2p_dirty_ = true;
      }
      continue;
    }
    if (e.status != SlotStatus::kCommitted) {
      // ACTIVE at crash time: the transaction never committed; its pages are
      // already unreferenced in the rebuilt bitmaps. This IS the rollback.
      xstats_.recovered_discarded++;
      stats_.recovery_discarded_txn_pages++;
      continue;
    }
    // Re-apply a committed mapping, unless it is already superseded. The
    // base recovery scan already read every data page's OOB; consulting its
    // cache keeps the paper's property that X-FTL recovery costs only the
    // X-L2P table load plus DRAM work.
    flash::Ppn cur = MappingOf(e.lpn);
    if (cur == e.new_ppn) continue;  // already in the checkpointed L2P
    const flash::PageOob* oob = ScannedOob(e.new_ppn);
    if (oob == nullptr) continue;  // page erased since the snapshot
    if (device()->PageStateOf(e.new_ppn) ==
        flash::FlashDevice::PageState::kTorn) {
      // The committed copy tore mid-program: unreadable, so it must not
      // re-enter the L2P. Only reachable when a crash interrupted the
      // commit's own flush; the transaction was never acknowledged.
      stats_.recovery_stale_mappings++;
      continue;
    }
    if (oob->lpn != e.lpn || oob->tag != kTagTxData) {
      // The block was collected and reused; the moved copy was retagged to
      // plain data and recovered by roll-forward already.
      continue;
    }
    if (cur != flash::kInvalidPpn) {
      // Versions, not seqs: GC may have moved an older committed copy of
      // the page after this transaction wrote it.
      const flash::PageOob* cur_oob = ScannedOob(cur);
      if (cur_oob != nullptr && DataVersion(*cur_oob) >= DataVersion(*oob)) {
        continue;  // a newer non-transactional write superseded this entry
      }
      InvalidatePpn(cur);
    }
    SetMapping(e.lpn, e.new_ppn);
    MarkPpnValid(e.new_ppn, e.lpn);
    xstats_.recovered_committed++;
    // Keep the entry retained-committed so a follow-up crash before the next
    // checkpoint still re-applies it.
    auto slot_or = AllocateSlot();
    if (slot_or.ok()) {
      int idx = slot_or.value();
      slots_[idx] = Slot{e.tid, e.lpn, e.new_ppn, SlotStatus::kCommitted,
                         /*folded=*/true};
      // Committed slots are indexed by ppn only; by_lpn_ is for ACTIVE.
      by_ppn_[e.new_ppn] = idx;
      xl2p_dirty_ = true;
    }
  }

  // Restart cost as the paper's Table 5 accounts it: reading the X-L2P
  // snapshot pages (attributed here even though the shared meta scan did
  // the physical reads) plus the in-DRAM reflect work above.
  const auto& t = device()->config().timings;
  xstats_.last_recovery_nanos =
      (device()->clock()->Now() - t0) +
      xl2p_pages_scanned_ * (t.read_page + t.bus_per_page);
  xl2p_pages_scanned_ = 0;
  return Status::OK();
}

}  // namespace xftl::ftl
