#include "ftl/page_ftl.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/coding.h"
#include "common/crc32.h"

namespace xftl::ftl {

namespace {
constexpr uint32_t kRootMagic = 0x5846524f;  // "XFRO"
// Root record layout: magic(4) seq(8) num_segments(4) ppn[num_segments](4*)
// num_bad(4) bad_block[num_bad](4*) num_active(4)
// {block(4) next_page(4)}[num_active] crc(4). Everything little-endian. The
// active list names each bank's open data block and its next page when the
// root was written: the only blocks opened before the root that can gain
// pages after it.
constexpr size_t kRootHeaderSize = 4 + 8 + 4;

// True if `buf` holds a well-formed, CRC-valid root record for `nseg`
// segments.
bool IsRootRecord(const uint8_t* buf, size_t page_size, uint32_t nseg) {
  if (DecodeFixed32(buf) != kRootMagic || DecodeFixed32(buf + 12) != nseg) {
    return false;
  }
  const size_t bad_off = kRootHeaderSize + size_t(nseg) * 4;
  if (bad_off + 4 > page_size) return false;
  const size_t active_off =
      bad_off + 4 + size_t(DecodeFixed32(buf + bad_off)) * 4;
  if (active_off + 4 > page_size) return false;
  const size_t crc_off =
      active_off + 4 + size_t(DecodeFixed32(buf + active_off)) * 8;
  return crc_off + 4 <= page_size &&
         DecodeFixed32(buf + crc_off) == Crc32c(buf, crc_off);
}
}  // namespace

PageFtl::PageFtl(flash::FlashDevice* device, const FtlConfig& config)
    : device_(device),
      config_(config),
      ecc_(config.ecc, device->clock(), &stats_) {
  const auto& fc = device_->config();
  CHECK_GT(config_.num_logical_pages, 0u);
  CHECK_GE(config_.meta_blocks, 2u);
  CHECK_GE(config_.min_free_blocks, 2u);
  CHECK_LT(config_.meta_blocks + config_.min_free_blocks + 2, fc.num_blocks);

  entries_per_segment_ = fc.page_size / 4;
  uint64_t data_pages =
      uint64_t(fc.num_blocks - config_.meta_blocks) * fc.pages_per_block;
  // Leave GC headroom: the logical space must be strictly smaller than the
  // physical data space minus the free reserve.
  uint64_t reserve =
      uint64_t(config_.min_free_blocks + 2) * fc.pages_per_block;
  CHECK_LE(config_.num_logical_pages + reserve, data_pages)
      << "logical space too large for device (no over-provisioning left)";
  // All live meta pages (segments + root + a subclass table) must fit in one
  // meta block, or compaction could not make progress.
  CHECK_LE(num_segments() + 4, fc.pages_per_block)
      << "L2P too large for single-block meta compaction";

  InitLayout();
}

void PageFtl::InitLayout() {
  const auto& fc = device_->config();
  l2p_.assign(config_.num_logical_pages, flash::kInvalidPpn);
  blocks_.assign(fc.num_blocks, BlockInfo{});
  free_blocks_.clear();
  for (flash::BlockNum b = 0; b < fc.num_blocks; ++b) {
    if (b < config_.meta_blocks) {
      blocks_[b].kind = BlockInfo::Kind::kMeta;
    } else {
      blocks_[b].kind = BlockInfo::Kind::kFree;
      free_blocks_.push_back(b);
    }
  }
  active_blocks_.assign(fc.num_banks, flash::kInvalidPpn);
  active_next_page_.assign(fc.num_banks, 0);
  bank_cursor_ = 0;
  gc_buckets_.assign(fc.pages_per_block + 1, {});
  gc_min_bucket_ = uint32_t(gc_buckets_.size());
  segment_dirty_.assign(num_segments(), false);
  segment_snapshot_ppn_.assign(num_segments(), flash::kInvalidPpn);
  last_root_seq_ = 0;
  meta_active_ = 0;
  meta_next_page_ = 0;
  bad_blocks_.clear();
  bad_blocks_dirty_ = false;
  read_only_ = false;
  read_only_reason_.clear();
  retire_depth_ = 0;
}

flash::Ppn PageFtl::MappingOf(Lpn lpn) const {
  CHECK_LT(lpn, l2p_.size());
  return l2p_[lpn];
}

Status PageFtl::Read(Lpn lpn, uint8_t* data) {
  if (lpn >= config_.num_logical_pages) {
    return Status::OutOfRange("lpn " + std::to_string(lpn));
  }
  SimNanos t0 = device_->clock()->Now();
  stats_.host_page_reads++;
  flash::Ppn ppn = l2p_[lpn];
  Status s;
  if (ppn == flash::kInvalidPpn) {
    std::memset(data, 0xff, page_size());
  } else {
    s = ReadPhysPage(ppn, data);
  }
  TraceFtl(trace::Op::kRead, t0, lpn,
           ppn == flash::kInvalidPpn ? 0 : ppn, s.code());
  return s;
}

Status PageFtl::Write(Lpn lpn, const uint8_t* data) {
  if (lpn >= config_.num_logical_pages) {
    return Status::OutOfRange("lpn " + std::to_string(lpn));
  }
  SimNanos t0 = device_->clock()->Now();
  auto ppn_or = ProgramDataPage(lpn, data);
  if (!ppn_or.ok()) {
    TraceFtl(trace::Op::kWrite, t0, lpn, 0, ppn_or.status().code());
    return ppn_or.status();
  }
  flash::Ppn ppn = ppn_or.value();
  if (l2p_[lpn] != flash::kInvalidPpn) InvalidatePpn(l2p_[lpn]);
  SetMapping(lpn, ppn);
  stats_.host_page_writes++;
  TraceFtl(trace::Op::kWrite, t0, lpn, ppn, StatusCode::kOk);
  return Status::OK();
}

Status PageFtl::Trim(Lpn lpn) {
  if (lpn >= config_.num_logical_pages) {
    return Status::OutOfRange("lpn " + std::to_string(lpn));
  }
  XFTL_RETURN_IF_ERROR(CheckWritable());
  SimNanos t0 = device_->clock()->Now();
  if (l2p_[lpn] != flash::kInvalidPpn) {
    InvalidatePpn(l2p_[lpn]);
    ClearMapping(lpn);
  }
  TraceFtl(trace::Op::kTrim, t0, lpn, 0, StatusCode::kOk);
  return Status::OK();
}

Status PageFtl::Flush() {
  XFTL_RETURN_IF_ERROR(CheckWritable());
  SimNanos t0 = device_->clock()->Now();
  uint64_t meta0 = stats_.meta_page_writes;
  // Data first: the mapping must never point at pages that did not finish
  // programming.
  device_->SyncAll();
  Status s;
  if (!config_.fast_barrier) {
    s = PersistMapping();
    if (s.ok()) s = FlushSubclassMeta();
    if (s.ok()) device_->SyncAll();
  }
  if (s.ok()) stats_.flush_barriers++;
  TraceFtl(trace::Op::kFlush, t0, 0, stats_.meta_page_writes - meta0,
           s.code());
  return s;
}

Status PageFtl::Barrier() {
  // Order-preserving barrier: open a new epoch and return. Nothing is
  // persisted here — durability of the mapping is the OOB roll-forward
  // scan's job (same recovery contract as fast_barrier firmware), and the
  // epoch fence guarantees earlier data programs land before later ones.
  // Only barrier firmware issues it: every other mode flushes instead.
  DCHECK(config_.commit_mode == CommitMode::kBarrier);
  XFTL_RETURN_IF_ERROR(CheckWritable());
  SimNanos t0 = device_->clock()->Now();
  device_->AdvanceEpoch();
  stats_.ordered_barriers++;
  TraceFtl(trace::Op::kBarrier, t0, device_->current_epoch(), 0,
           StatusCode::kOk);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

StatusOr<flash::Ppn> PageFtl::ProgramDataPage(Lpn lpn, const uint8_t* data,
                                              uint64_t tag) {
  XFTL_RETURN_IF_ERROR(CheckWritable());
  XFTL_RETURN_IF_ERROR(MaybeGarbageCollect());
  flash::Ppn ppn;
  XFTL_RETURN_IF_ERROR(ProgramDataPageNoGc(lpn, data, tag, &ppn));
  return ppn;
}

StatusOr<flash::Ppn> PageFtl::ProgramDataPageOob(const uint8_t* data,
                                                 const flash::PageOob& oob) {
  XFTL_RETURN_IF_ERROR(CheckWritable());
  XFTL_RETURN_IF_ERROR(MaybeGarbageCollect());
  flash::Ppn ppn;
  XFTL_RETURN_IF_ERROR(ProgramWithRetirement(data, oob, &ppn));
  return ppn;
}

Status PageFtl::ProgramDataPageNoGc(Lpn lpn, const uint8_t* data, uint64_t tag,
                                    flash::Ppn* out) {
  flash::PageOob oob;
  oob.lpn = lpn;
  oob.seq = next_seq_++;
  oob.tag = tag;
  return ProgramWithRetirement(data, oob, out);
}

StatusOr<flash::Ppn> PageFtl::NextDataPpnNoGc() {
  const auto& fc = device_->config();
  for (uint32_t attempt = 0; attempt < fc.num_banks; ++attempt) {
    uint32_t bank = (bank_cursor_ + attempt) % fc.num_banks;
    // Seal a filled active block.
    if (active_blocks_[bank] != flash::kInvalidPpn &&
        active_next_page_[bank] >= fc.pages_per_block) {
      blocks_[active_blocks_[bank]].kind = BlockInfo::Kind::kSealed;
      blocks_[active_blocks_[bank]].sealed_seq = next_seq_;
      GcBucketInsert(active_blocks_[bank]);
      active_blocks_[bank] = flash::kInvalidPpn;
    }
    if (active_blocks_[bank] == flash::kInvalidPpn) {
      // Prefer a free block on this bank to keep programs overlapping.
      auto it = std::find_if(
          free_blocks_.begin(), free_blocks_.end(),
          [&](flash::BlockNum b) { return fc.BankOf(b) == bank; });
      if (it == free_blocks_.end() && !free_blocks_.empty()) {
        it = free_blocks_.begin();
      }
      if (it == free_blocks_.end()) continue;  // try another bank
      flash::BlockNum b = *it;
      free_blocks_.erase(it);
      BlockInfo& blk = blocks_[b];
      blk.kind = BlockInfo::Kind::kActive;
      blk.open_seq = next_seq_;
      blk.valid.assign(fc.pages_per_block, false);
      blk.rmap.assign(fc.pages_per_block, flash::kInvalidLpn);
      blk.valid_count = 0;
      active_blocks_[bank] = b;
      active_next_page_[bank] = 0;
    }
    bank_cursor_ = (bank + 1) % fc.num_banks;
    flash::BlockNum b = active_blocks_[bank];
    return flash::Ppn(uint64_t(b) * fc.pages_per_block +
                      active_next_page_[bank]++);
  }
  return Status::ResourceExhausted("no free flash blocks");
}

// ---------------------------------------------------------------------------
// NAND failure handling
// ---------------------------------------------------------------------------

Status PageFtl::CheckWritable() const {
  if (read_only_) {
    return Status::ResourceExhausted("FTL is read-only: " + read_only_reason_);
  }
  return Status::OK();
}

void PageFtl::EnterReadOnly(const std::string& reason) {
  if (read_only_) return;
  read_only_ = true;
  read_only_reason_ = reason;
}

uint32_t PageFtl::UsableMetaBlocks() const {
  uint32_t usable = 0;
  for (flash::BlockNum b = 0; b < config_.meta_blocks; ++b) {
    if (blocks_[b].kind != BlockInfo::Kind::kBad) usable++;
  }
  return usable;
}

void PageFtl::UpdateDegradation() {
  const auto& fc = device_->config();
  uint32_t bad_data = 0;
  for (flash::BlockNum b : bad_blocks_) {
    if (b >= config_.meta_blocks) bad_data++;
  }
  // Data floor: the surviving blocks must hold the logical space plus the GC
  // reserve plus the configured spare margin, or GC would grind forever on
  // near-full victims and eventually wedge mid-write.
  uint64_t usable_data_pages =
      uint64_t(fc.num_blocks - config_.meta_blocks - bad_data) *
      fc.pages_per_block;
  uint64_t floor =
      config_.num_logical_pages +
      uint64_t(config_.min_free_blocks + config_.read_only_spare_blocks) *
          fc.pages_per_block;
  if (usable_data_pages < floor) {
    EnterReadOnly(std::to_string(bad_data) +
                  " grown bad data blocks exhausted the spare pool");
  }
  // Meta floor: compaction needs an active block plus an erased reserve.
  if (UsableMetaBlocks() < 2) {
    EnterReadOnly("meta region lost its reserve block to grown bad blocks");
  }
}

void PageFtl::MarkBlockBad(flash::BlockNum block) {
  BlockInfo& blk = blocks_[block];
  if (blk.kind == BlockInfo::Kind::kSealed) {
    GcBucketErase(block, blk.valid_count);
  }
  free_blocks_.erase(
      std::remove(free_blocks_.begin(), free_blocks_.end(), block),
      free_blocks_.end());
  for (auto& a : active_blocks_) {
    if (a == block) a = flash::kInvalidPpn;
  }
  blk.kind = BlockInfo::Kind::kBad;
  blk.valid.clear();
  blk.rmap.clear();
  blk.valid_count = 0;
  if (std::find(bad_blocks_.begin(), bad_blocks_.end(), block) ==
      bad_blocks_.end()) {
    bad_blocks_.push_back(block);
    bad_blocks_dirty_ = true;
    stats_.grown_bad_blocks++;
  }
  UpdateDegradation();
}

Status PageFtl::ProgramWithRetirement(const uint8_t* data,
                                      const flash::PageOob& oob,
                                      flash::Ppn* out) {
  const auto& fc = device_->config();
  flash::PageOob stamped = oob;
  for (;;) {
    XFTL_ASSIGN_OR_RETURN(flash::Ppn ppn, NextDataPpnNoGc());
    stamped.block_seq = blocks_[fc.BlockOf(ppn)].open_seq;
    Status s = device_->ProgramPage(ppn, data, stamped);
    if (s.ok()) {
      BlockInfo& blk = blocks_[fc.BlockOf(ppn)];
      uint32_t page = fc.PageInBlock(ppn);
      blk.valid[page] = true;
      blk.valid_count++;
      blk.rmap[page] = oob.lpn;
      *out = ppn;
      return Status::OK();
    }
    // Power loss and FTL programming bugs (out-of-order, out-of-range) must
    // propagate; only a status failure on a live device triggers retirement.
    if (device_->HasFailed() || s.code() != StatusCode::kIoError) return s;
    // Program status failure: the containing block has grown bad. Relocate
    // its surviving valid pages, retire it, and re-issue this page on a
    // fresh block. The failed (torn) page itself was never marked valid.
    stats_.program_fail_reissues++;
    XFTL_RETURN_IF_ERROR(RetireBlock(fc.BlockOf(ppn)));
  }
}

Status PageFtl::RetireBlock(flash::BlockNum block) {
  BlockInfo& blk = blocks_[block];
  if (blk.kind == BlockInfo::Kind::kBad) return Status::OK();
  if (retire_depth_ >= 8) {
    EnterReadOnly("cascading program failures while retiring blocks");
    return CheckWritable();
  }
  retire_depth_++;
  // Detach from the allocator first, so re-issued programs can never land
  // back on the failing block.
  for (auto& a : active_blocks_) {
    if (a == block) a = flash::kInvalidPpn;
  }
  Status result = blk.valid.empty()
                      ? Status::OK()
                      : RelocateValidPages(block, /*retiring=*/true);
  retire_depth_--;
  if (result.ok()) MarkBlockBad(block);
  return result;
}

Status PageFtl::RelocateValidPages(flash::BlockNum block, bool retiring) {
  const auto& fc = device_->config();
  const BlockInfo& blk = blocks_[block];
  std::vector<uint8_t> buf(fc.page_size);
  for (uint32_t p = 0; p < fc.pages_per_block; ++p) {
    if (!blk.valid[p]) continue;
    flash::Ppn from = flash::Ppn(uint64_t(block) * fc.pages_per_block + p);
    Lpn lpn = blk.rmap[p];
    const bool in_l2p = lpn < l2p_.size() && l2p_[lpn] == from;
    flash::PageOob old_oob;
    Status rs = ReadPhysPage(from, buf.data(), &old_oob);
    if (!rs.ok()) {
      if (device_->HasFailed()) return rs;
      // Uncorrectable (or torn) page: its content cannot be saved. Drop the
      // mapping instead of wedging the collection or retirement.
      stats_.pages_lost++;
      InvalidatePpn(from);
      if (in_l2p) ClearMapping(lpn);
      continue;
    }
    if (!retiring) stats_.gc_copyback_reads++;
    flash::Ppn to;
    XFTL_RETURN_IF_ERROR(ProgramWithRetirement(
        buf.data(), RelocationOob(lpn, from, old_oob), &to));
    if (retiring) {
      stats_.retire_relocations++;
      InvalidatePpn(from);
    } else {
      stats_.gc_copyback_writes++;
    }
    if (in_l2p) SetMapping(lpn, to);
    OnPageRelocated(lpn, from, to);
  }
  return Status::OK();
}

flash::PageOob PageFtl::RelocationOob(Lpn lpn, flash::Ppn from,
                                      const flash::PageOob& old) {
  flash::PageOob oob;
  oob.lpn = lpn;
  oob.seq = next_seq_++;
  // A page whose transaction has committed (the L2P points at it) is
  // ordinary data from now on; roll-forward must be able to find the moved
  // copy without the transactional table. Uncommitted pages keep their
  // transactional tag and are re-pointed via OnPageRelocated.
  bool in_l2p = lpn < l2p_.size() && l2p_[lpn] == from;
  oob.tag = in_l2p ? kTagData : old.tag;
  if (!in_l2p && old.tag == kTagSccData) {
    // Cyclic-commit pages are identified by (lpn, seq) from other pages'
    // links; relocation must preserve that identity or in-flash cycles
    // would break (TxFlash's firmware does the same).
    oob.seq = old.seq;
    oob.link_lpn = old.link_lpn;
    oob.link_seq = old.link_seq;
    return oob;
  }
  if (!in_l2p && old.tag == kTagData) {
    // A superseded copy kept valid outside the L2P — an MVCC retained
    // pre-image. A fresh sequence number would make the old version look
    // newest to crash roll-forward and resurrect it over the committed
    // copy; keep its original identity instead.
    oob.seq = old.seq;
  }
  oob.link_seq = DataVersion(old);
  return oob;
}

void PageFtl::InvalidatePpn(flash::Ppn ppn) {
  const auto& fc = device_->config();
  flash::BlockNum block = fc.BlockOf(ppn);
  BlockInfo& blk = blocks_[block];
  uint32_t page = fc.PageInBlock(ppn);
  if (!blk.valid.empty() && blk.valid[page]) {
    blk.valid[page] = false;
    DCHECK_GT(blk.valid_count, 0u);
    if (blk.kind == BlockInfo::Kind::kSealed) {
      GcBucketErase(block, blk.valid_count);
      blk.valid_count--;
      GcBucketInsert(block);
    } else {
      blk.valid_count--;
    }
  }
}

void PageFtl::MarkPpnValid(flash::Ppn ppn, Lpn lpn) {
  const auto& fc = device_->config();
  flash::BlockNum block = fc.BlockOf(ppn);
  BlockInfo& blk = blocks_[block];
  uint32_t page = fc.PageInBlock(ppn);
  if (blk.valid.empty()) {
    blk.valid.assign(fc.pages_per_block, false);
    blk.rmap.assign(fc.pages_per_block, flash::kInvalidLpn);
  }
  if (!blk.valid[page]) {
    blk.valid[page] = true;
    if (blk.kind == BlockInfo::Kind::kSealed) {
      GcBucketErase(block, blk.valid_count);
      blk.valid_count++;
      GcBucketInsert(block);
    } else {
      blk.valid_count++;
    }
  }
  blk.rmap[page] = lpn;
}

bool PageFtl::PpnHolds(flash::Ppn ppn, Lpn lpn) const {
  const auto& fc = device_->config();
  const BlockInfo& blk = blocks_[fc.BlockOf(ppn)];
  uint32_t page = fc.PageInBlock(ppn);
  return !blk.valid.empty() && blk.valid[page] && blk.rmap[page] == lpn;
}

void PageFtl::SetMapping(Lpn lpn, flash::Ppn ppn) {
  DCHECK_LT(lpn, l2p_.size());
  l2p_[lpn] = ppn;
  segment_dirty_[SegmentOf(lpn)] = true;
}

void PageFtl::ClearMapping(Lpn lpn) {
  DCHECK_LT(lpn, l2p_.size());
  l2p_[lpn] = flash::kInvalidPpn;
  segment_dirty_[SegmentOf(lpn)] = true;
}

bool PageFtl::IsPpnLive(flash::Ppn ppn, Lpn lpn) const {
  return lpn < l2p_.size() && l2p_[lpn] == ppn;
}

void PageFtl::OnPageRelocated(Lpn lpn, flash::Ppn from, flash::Ppn to) {}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

Status PageFtl::MaybeGarbageCollect() {
  while (free_blocks_.size() < config_.min_free_blocks) {
    Status s = CollectOneBlock();
    if (!s.ok()) {
      if (s.code() == StatusCode::kResourceExhausted &&
          !device_->HasFailed()) {
        // Out of victims or out of space mid-collection: the device cannot
        // reclaim enough blocks to keep writing. Degrade instead of wedging.
        EnterReadOnly("garbage collection cannot reclaim space: " +
                      s.ToString());
        return CheckWritable();
      }
      return s;
    }
  }
  return Status::OK();
}

const char* GcPolicyName(GcPolicy policy) {
  switch (policy) {
    case GcPolicy::kGreedy:
      return "greedy";
    case GcPolicy::kCostBenefit:
      return "cost-benefit";
    case GcPolicy::kFifo:
      return "fifo";
  }
  return "?";
}

uint64_t PageFtl::GcBucketKey(const BlockInfo& blk) const {
  // Greedy orders purely by block number within a bucket (the legacy scan's
  // tie-break); the age-aware policies order by seal time.
  return config_.gc_policy == GcPolicy::kGreedy ? 0 : blk.sealed_seq;
}

void PageFtl::GcBucketInsert(flash::BlockNum b) {
  const BlockInfo& blk = blocks_[b];
  gc_buckets_[blk.valid_count].emplace(GcBucketKey(blk), b);
  gc_min_bucket_ = std::min(gc_min_bucket_, blk.valid_count);
}

void PageFtl::GcBucketErase(flash::BlockNum b, uint32_t valid_count) {
  gc_buckets_[valid_count].erase({GcBucketKey(blocks_[b]), b});
}

void PageFtl::RebuildGcBuckets() {
  const auto& fc = device_->config();
  for (auto& bucket : gc_buckets_) bucket.clear();
  gc_min_bucket_ = uint32_t(gc_buckets_.size());
  for (flash::BlockNum b = config_.meta_blocks; b < fc.num_blocks; ++b) {
    if (blocks_[b].kind == BlockInfo::Kind::kSealed) GcBucketInsert(b);
  }
}

StatusOr<flash::BlockNum> PageFtl::PickVictim() {
  const auto& fc = device_->config();
  // Sweep the hint past buckets that have drained. The hint only moves down
  // when a block lands in a lower bucket, so across a run of collections
  // this loop does amortized O(1) work per valid-count change.
  while (gc_min_bucket_ < gc_buckets_.size() &&
         gc_buckets_[gc_min_bucket_].empty()) {
    gc_min_bucket_++;
  }
  // Fully valid blocks (bucket pages_per_block) offer nothing to reclaim.
  if (gc_min_bucket_ >= fc.pages_per_block) {
    return Status::ResourceExhausted("garbage collection found no victim");
  }

  switch (config_.gc_policy) {
    case GcPolicy::kGreedy:
      // Lowest non-empty bucket, lowest block number — identical to the
      // legacy linear scan (ftl_test keeps it as the reference).
      return gc_buckets_[gc_min_bucket_].begin()->second;

    case GcPolicy::kFifo: {
      // Oldest seal time across buckets; the per-bucket sets are ordered by
      // (sealed_seq, block), so comparing their heads suffices.
      std::pair<uint64_t, flash::BlockNum> best{~0ull, flash::kInvalidPpn};
      for (uint32_t v = gc_min_bucket_; v < fc.pages_per_block; ++v) {
        if (gc_buckets_[v].empty()) continue;
        best = std::min(best, *gc_buckets_[v].begin());
      }
      return best.second;
    }

    case GcPolicy::kCostBenefit: {
      // Every fully invalid block scores the maximal 1e18; the legacy scan
      // broke that tie by block number, so preserve it here (the bucket is
      // ordered by seal time and is almost always tiny).
      if (!gc_buckets_[0].empty()) {
        flash::BlockNum best = flash::kInvalidPpn;
        for (const auto& [key, b] : gc_buckets_[0]) best = std::min(best, b);
        return best;
      }
      // Within one bucket u is fixed, so the score is monotone in age and
      // each bucket's head (oldest seal, lowest block) is its best
      // candidate; only the O(pages_per_block) heads need scoring.
      flash::BlockNum best = flash::kInvalidPpn;
      double best_score = -1;
      for (uint32_t v = gc_min_bucket_; v < fc.pages_per_block; ++v) {
        if (gc_buckets_[v].empty()) continue;
        const auto& [sealed_seq, b] = *gc_buckets_[v].begin();
        double u = double(v) / double(fc.pages_per_block);
        double age = double(next_seq_ - sealed_seq);
        double score = age * (1.0 - u) / (2.0 * u);
        if (best == flash::kInvalidPpn || score > best_score) {
          best_score = score;
          best = b;
        }
      }
      return best;
    }
  }
  return Status::FailedPrecondition("unreachable gc policy");
}

Status PageFtl::CollectOneBlock() {
  XFTL_ASSIGN_OR_RETURN(flash::BlockNum victim, PickVictim());
  BlockInfo& blk = blocks_[victim];
  stats_.gc_runs++;
  stats_.gc_valid_pages_seen += blk.valid_count;
  SimNanos gc_t0 = device_->clock()->Now();
  uint32_t gc_valid = blk.valid_count;

  XFTL_RETURN_IF_ERROR(RelocateValidPages(victim, /*retiring=*/false));

  Status es = device_->EraseBlock(victim);
  if (!es.ok()) {
    if (device_->HasFailed() || es.code() != StatusCode::kIoError) return es;
    // Erase status failure: the victim becomes a grown bad block instead of
    // returning to the free pool; its valid pages were relocated above, so
    // the collection itself succeeded — the caller just gained no block.
    MarkBlockBad(victim);
    TraceFtl(trace::Op::kGc, gc_t0, victim, gc_valid, StatusCode::kIoError);
    return Status::OK();
  }
  stats_.block_erases++;
  GcBucketErase(victim, blk.valid_count);
  blk.kind = BlockInfo::Kind::kFree;
  blk.valid.clear();
  blk.rmap.clear();
  blk.valid_count = 0;
  free_blocks_.push_back(victim);
  TraceFtl(trace::Op::kGc, gc_t0, victim, gc_valid, StatusCode::kOk);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Meta region (mapping persistence)
// ---------------------------------------------------------------------------

StatusOr<flash::Ppn> PageFtl::NextMetaPpn() {
  const auto& fc = device_->config();
  if (blocks_[meta_active_].kind == BlockInfo::Kind::kBad) {
    // The active meta block grew bad mid-write; force a move. Its already-
    // programmed pages stay readable, so nothing persisted is lost.
    meta_next_page_ = fc.pages_per_block;
  } else if (meta_next_page_ >= fc.pages_per_block ||
             device_->NextProgramPage(meta_active_) != meta_next_page_) {
    meta_next_page_ = device_->NextProgramPage(meta_active_);
  }
  if (meta_next_page_ >= fc.pages_per_block) {
    // Current block is full: move to an erased meta block, compacting when
    // only the reserve block remains.
    std::vector<flash::BlockNum> erased;
    for (flash::BlockNum b = 0; b < config_.meta_blocks; ++b) {
      if (b != meta_active_ && blocks_[b].kind != BlockInfo::Kind::kBad &&
          device_->NextProgramPage(b) == 0) {
        erased.push_back(b);
      }
    }
    if (erased.empty()) {
      // Name the cursor and every meta block's write pointer: enough to
      // tell which blocks filled up without ever being recycled.
      std::string msg = "meta region wedged (no erased block): active " +
                        std::to_string(meta_active_) + ", next page " +
                        std::to_string(meta_next_page_) +
                        ", next program page per meta block:";
      for (flash::BlockNum b = 0; b < config_.meta_blocks; ++b) {
        msg += " " + std::to_string(device_->NextProgramPage(b));
      }
      return Status::ResourceExhausted(msg);
    }
    if (erased.size() == 1) {
      XFTL_RETURN_IF_ERROR(CompactMetaRegion());
    } else {
      meta_active_ = erased.front();
      meta_next_page_ = 0;
    }
  }
  flash::Ppn ppn =
      flash::Ppn(uint64_t(meta_active_) * fc.pages_per_block + meta_next_page_);
  meta_next_page_++;
  return ppn;
}

Status PageFtl::ProgramMetaPage(uint64_t tag, uint64_t aux,
                                const uint8_t* data, uint64_t link_lpn,
                                uint64_t link_seq) {
  const auto& fc = device_->config();
  for (;;) {
    XFTL_ASSIGN_OR_RETURN(flash::Ppn ppn, NextMetaPpn());
    flash::PageOob oob;
    oob.lpn = aux;
    oob.seq = next_seq_++;
    oob.tag = tag;
    oob.link_lpn = link_lpn;
    oob.link_seq = link_seq;
    Status s = device_->ProgramPage(ppn, data, oob);
    if (s.ok()) {
      stats_.meta_page_writes++;
      if (tag == kTagMetaSegment) {
        DCHECK_LT(aux, segment_snapshot_ppn_.size());
        segment_snapshot_ppn_[uint32_t(aux)] = ppn;
      }
      return Status::OK();
    }
    if (device_->HasFailed() || s.code() != StatusCode::kIoError) return s;
    // Program status failure in the meta ring: the active meta block has
    // grown bad. Earlier pages on it stay readable (recovery tolerates bad
    // meta blocks), so just mark it and re-issue on the next good block.
    stats_.program_fail_reissues++;
    MarkBlockBad(fc.BlockOf(ppn));
  }
}

Status PageFtl::CompactMetaRegion() {
  // RAM state (l2p_ and subclass tables) is authoritative, so compaction
  // simply rewrites everything into the reserve block and erases the rest.
  // Crash safety: the new root is written before any erase, and roots are
  // ordered by sequence number.
  flash::BlockNum target = flash::kInvalidPpn;
  for (flash::BlockNum b = 0; b < config_.meta_blocks; ++b) {
    if (b != meta_active_ && blocks_[b].kind != BlockInfo::Kind::kBad &&
        device_->NextProgramPage(b) == 0) {
      target = b;
      break;
    }
  }
  if (target == flash::kInvalidPpn) {
    return Status::ResourceExhausted("meta compaction has no target");
  }
  meta_active_ = target;
  meta_next_page_ = 0;
  std::fill(segment_dirty_.begin(), segment_dirty_.end(), true);
  XFTL_RETURN_IF_ERROR(PersistMapping());
  XFTL_RETURN_IF_ERROR(FlushSubclassMeta());
  device_->SyncAll();
  for (flash::BlockNum b = 0; b < config_.meta_blocks; ++b) {
    if (b == meta_active_) continue;
    if (blocks_[b].kind == BlockInfo::Kind::kBad) continue;
    if (device_->NextProgramPage(b) == 0) continue;
    Status es = device_->EraseBlock(b);
    if (!es.ok()) {
      if (device_->HasFailed() || es.code() != StatusCode::kIoError) return es;
      // An erase-failed meta block holds only garbage (every page torn), so
      // no stale root can resurface from it; just retire it.
      MarkBlockBad(b);
      continue;
    }
    stats_.block_erases++;
  }
  return Status::OK();
}

Status PageFtl::PersistMapping() {
  const auto& fc = device_->config();
  std::vector<uint8_t> buf(fc.page_size, 0);
  bool wrote_segment = false;
  for (uint32_t seg = 0; seg < num_segments(); ++seg) {
    if (!segment_dirty_[seg]) continue;
    std::memset(buf.data(), 0xff, buf.size());
    uint64_t base = uint64_t(seg) * entries_per_segment_;
    for (uint32_t i = 0; i < entries_per_segment_; ++i) {
      uint64_t lpn = base + i;
      uint32_t v = lpn < l2p_.size() ? l2p_[lpn] : flash::kInvalidPpn;
      EncodeFixed32(buf.data() + size_t(i) * 4, v);
    }
    XFTL_RETURN_IF_ERROR(ProgramMetaPage(kTagMetaSegment, seg, buf.data()));
    segment_dirty_[seg] = false;
    wrote_segment = true;
  }
  if (wrote_segment || last_root_seq_ == 0 || bad_blocks_dirty_) {
    XFTL_RETURN_IF_ERROR(WriteRootRecord());
  }
  return Status::OK();
}

Status PageFtl::WriteRootRecord() {
  const auto& fc = device_->config();
  std::vector<uint8_t> buf(fc.page_size, 0);
  uint64_t seq = next_seq_;  // ProgramMetaPage will consume this value
  EncodeFixed32(buf.data(), kRootMagic);
  EncodeFixed64(buf.data() + 4, seq);
  EncodeFixed32(buf.data() + 12, num_segments());
  size_t off = kRootHeaderSize;
  for (uint32_t seg = 0; seg < num_segments(); ++seg) {
    EncodeFixed32(buf.data() + off, segment_snapshot_ppn_[seg]);
    off += 4;
  }
  // Grown-bad-block list: physical damage must survive power cycles, so it
  // rides with the root record. A device still worth writing to has far
  // fewer bad blocks than fit here; cap defensively regardless.
  // Room left after num_bad, num_active, the active list and the crc.
  size_t max_bad =
      (fc.page_size - off - 4 - 4 - size_t(fc.num_banks) * 8 - 4) / 4;
  uint32_t nbad = uint32_t(std::min(bad_blocks_.size(), max_bad));
  EncodeFixed32(buf.data() + off, nbad);
  off += 4;
  for (uint32_t i = 0; i < nbad; ++i) {
    EncodeFixed32(buf.data() + off, bad_blocks_[i]);
    off += 4;
  }
  // Active list: recovery trusts every other block opened before this root.
  const size_t nactive_off = off;
  off += 4;
  uint32_t nactive = 0;
  for (uint32_t bank = 0; bank < fc.num_banks; ++bank) {
    if (active_blocks_[bank] == flash::kInvalidPpn) continue;
    EncodeFixed32(buf.data() + off, active_blocks_[bank]);
    EncodeFixed32(buf.data() + off + 4, active_next_page_[bank]);
    off += 8;
    nactive++;
  }
  EncodeFixed32(buf.data() + nactive_off, nactive);
  uint32_t crc = Crc32c(buf.data(), off);
  EncodeFixed32(buf.data() + off, crc);
  XFTL_RETURN_IF_ERROR(ProgramMetaPage(kTagMetaRoot, 0, buf.data()));
  last_root_seq_ = seq;
  bad_blocks_dirty_ = false;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

Status PageFtl::Recover() {
  const auto& fc = device_->config();
  device_->ClearFailure();
  SimNanos recover_t0 = device_->clock()->Now();
  const uint64_t oob_reads0 = device_->stats().oob_reads;
  InitLayout();
  next_seq_ = 1;
  scan_oob_.clear();
  meta_scan_oob_.clear();

  // Batch 1: every programmed meta page, plus page 0 of every programmed
  // data block, whose stamp dates the block's current lifetime.
  std::vector<flash::Ppn> ppns;
  for (flash::BlockNum b = 0; b < fc.num_blocks; ++b) {
    const uint32_t np = device_->NextProgramPage(b);
    const uint32_t sensed = b < config_.meta_blocks ? np : std::min(np, 1u);
    for (uint32_t p = 0; p < sensed; ++p) {
      ppns.push_back(flash::Ppn(uint64_t(b) * fc.pages_per_block + p));
    }
  }
  std::vector<std::pair<flash::Ppn, flash::PageOob>> heads;
  XFTL_RETURN_IF_ERROR(ScanOobs(ppns, &heads));
  std::vector<uint64_t> stamps(fc.num_blocks, 0);
  for (const auto& [ppn, oob] : heads) {
    const flash::BlockNum b = fc.BlockOf(ppn);
    if (b < config_.meta_blocks) {
      meta_scan_oob_.emplace(ppn, oob);
    } else {
      stamps[b] = oob.block_seq;
    }
  }
  XFTL_RETURN_IF_ERROR(ScanMetaRegion());

  // Batch 2, against the loaded root: every page it cannot vouch for (so
  // every page written after it), plus the pages subclass recovery will
  // consult. Every other page is trusted; its validity and reverse map come
  // from the L2P.
  ppns.clear();
  uint64_t trusted = 0, scanned_blocks = 0;
  for (flash::BlockNum b = config_.meta_blocks; b < fc.num_blocks; ++b) {
    const uint32_t np = device_->NextProgramPage(b);
    if (np == 0) continue;
    const uint32_t from = TailStart(b, stamps[b]);
    (from < np ? scanned_blocks : trusted)++;
    for (uint32_t p = std::max(from, 1u); p < np; ++p) {
      ppns.push_back(flash::Ppn(uint64_t(b) * fc.pages_per_block + p));
    }
  }
  std::vector<flash::Ppn> named;
  NameRecoveryPages(&named);
  for (flash::Ppn ppn : named) {
    // Page 0 is in hand already; erased pages have nothing to sense.
    if (ppn < fc.TotalPages() && fc.BlockOf(ppn) >= config_.meta_blocks &&
        fc.PageInBlock(ppn) != 0 &&
        fc.PageInBlock(ppn) < device_->NextProgramPage(fc.BlockOf(ppn))) {
      ppns.push_back(ppn);
    }
  }
  std::sort(ppns.begin(), ppns.end());
  ppns.erase(std::unique(ppns.begin(), ppns.end()), ppns.end());
  std::vector<std::pair<flash::Ppn, flash::PageOob>> data;
  XFTL_RETURN_IF_ERROR(ScanOobs(ppns, &data));
  for (const auto& head : heads) {
    if (fc.BlockOf(head.first) >= config_.meta_blocks) data.push_back(head);
  }
  std::sort(data.begin(), data.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& [ppn, oob] : data) scan_oob_.emplace(ppn, oob);
  stats_.recovery_blocks_trusted += trusted;

  const uint64_t scanned = device_->stats().oob_reads - oob_reads0;
  const uint64_t resumed0 = stats_.recovery_blocks_resumed;
  // kRecoverBlocks splits the programmed data blocks into trusted and
  // scanned and counts the resumed ones; kRecover carries the pages the
  // boot sensed (a) and every OOB read the whole recovery issued (b), which
  // match when nothing re-reads.
  auto trace_recover = [&] {
    TraceFtl(trace::Op::kRecoverBlocks, device_->clock()->Now(), trusted,
             scanned_blocks, StatusCode::kOk,
             uint32_t(stats_.recovery_blocks_resumed - resumed0));
    TraceFtl(trace::Op::kRecover, recover_t0, scanned,
             device_->stats().oob_reads - oob_reads0, StatusCode::kOk);
  };
  XFTL_RETURN_IF_ERROR(RollForwardDataBlocks());
  RebuildBlockState(stamps);
  XFTL_RETURN_IF_ERROR(FinishRecovery());

  // Re-apply grown bad blocks: the persisted list, plus blocks the device
  // reports bad that failed after the last root record was written. A bad
  // data block may still hold the newest readable copy of some pages (a
  // crash can interrupt its retirement), so RetireBlock moves them off
  // before flagging it; bad meta blocks were already scanned above.
  std::vector<flash::BlockNum> known_bad = bad_blocks_;
  for (flash::BlockNum b = 0; b < fc.num_blocks; ++b) {
    if (device_->IsBadBlock(b) &&
        std::find(known_bad.begin(), known_bad.end(), b) == known_bad.end()) {
      known_bad.push_back(b);
    }
  }
  for (flash::BlockNum b : known_bad) {
    if (b < config_.meta_blocks) {
      MarkBlockBad(b);
    } else {
      XFTL_RETURN_IF_ERROR(RetireBlock(b));
    }
  }
  UpdateDegradation();
  scan_oob_.clear();
  meta_scan_oob_.clear();
  root_active_.clear();

  // The meta ring's compaction invariant requires at least one ERASED
  // reserve block at all times. A crash can leave the region without one
  // (mid-compaction, or with only partially-written blocks). RAM is now
  // authoritative, so recycle the region: erase everything and write a
  // fresh checkpoint.
  bool has_erased_reserve = false;
  for (flash::BlockNum b = 0; b < config_.meta_blocks; ++b) {
    if (b != meta_active_ && blocks_[b].kind != BlockInfo::Kind::kBad &&
        device_->NextProgramPage(b) == 0) {
      has_erased_reserve = true;
      break;
    }
  }
  if (!has_erased_reserve) {
    flash::BlockNum first_good = flash::kInvalidPpn;
    for (flash::BlockNum b = 0; b < config_.meta_blocks; ++b) {
      if (blocks_[b].kind == BlockInfo::Kind::kBad) continue;
      Status es = device_->EraseBlock(b);
      if (!es.ok()) {
        if (device_->HasFailed() || es.code() != StatusCode::kIoError) {
          return es;
        }
        MarkBlockBad(b);
        continue;
      }
      stats_.block_erases++;
      if (first_good == flash::kInvalidPpn) first_good = b;
    }
    if (first_good == flash::kInvalidPpn) {
      // Every meta block is bad: nothing can ever be persisted again, but
      // the recovered state is fully readable.
      EnterReadOnly("meta region has no usable blocks left");
      trace_recover();
      return Status::OK();
    }
    meta_active_ = first_good;
    meta_next_page_ = 0;
    std::fill(segment_snapshot_ppn_.begin(), segment_snapshot_ppn_.end(),
              flash::kInvalidPpn);
    std::fill(segment_dirty_.begin(), segment_dirty_.end(), true);
    XFTL_RETURN_IF_ERROR(PersistMapping());
    XFTL_RETURN_IF_ERROR(RewriteSubclassMeta());
    device_->SyncAll();
  }
  trace_recover();
  return Status::OK();
}

Status PageFtl::ScanOobs(
    const std::vector<flash::Ppn>& ppns,
    std::vector<std::pair<flash::Ppn, flash::PageOob>>* out) {
  // Every sense is queued at once, so the batch costs the busiest bank's
  // chain of tR.
  std::vector<std::optional<flash::PageOob>> oobs;
  XFTL_RETURN_IF_ERROR(device_->ReadOobBatch(ppns, &oobs));
  stats_.recovery_pages_scanned += ppns.size();
  for (size_t i = 0; i < ppns.size(); ++i) {
    if (oobs[i].has_value()) out->emplace_back(ppns[i], *oobs[i]);
  }
  return Status::OK();
}

Status PageFtl::ScanMetaRegion() {
  const auto& fc = device_->config();
  uint64_t max_seq = 0;
  std::vector<MetaPageRef> roots;
  std::vector<MetaPageRef> subclass_pages;
  for (flash::BlockNum b = 0; b < config_.meta_blocks; ++b) {
    uint32_t np = device_->NextProgramPage(b);
    for (uint32_t p = 0; p < np; ++p) {
      flash::Ppn ppn = flash::Ppn(uint64_t(b) * fc.pages_per_block + p);
      const flash::PageOob* oob = ScannedOob(ppn);
      if (oob == nullptr) continue;
      max_seq = std::max(max_seq, oob->seq);
      if (oob->tag == kTagMetaRoot) {
        roots.push_back({ppn, *oob});
      } else if (oob->tag != kTagMetaSegment) {
        subclass_pages.push_back({ppn, *oob});
      }
    }
  }
  next_seq_ = max_seq + 1;

  // Newest root first, each read only when every newer one failed. A crash
  // can tear a root, or leave it pointing at a segment that never became
  // durable, so loading falls back epoch by epoch until one checkpoint is
  // whole; the OOB roll-forward recaptures any newer durable data pages.
  std::sort(roots.begin(), roots.end(),
            [](const MetaPageRef& x, const MetaPageRef& y) {
              return x.oob.seq > y.oob.seq;
            });
  std::vector<uint8_t> buf(fc.page_size);
  for (const MetaPageRef& root : roots) {
    if (!ReadPhysPage(root.ppn, buf.data()).ok()) {
      stats_.recovery_torn_meta_pages++;
      continue;
    }
    if (!IsRootRecord(buf.data(), fc.page_size, num_segments())) continue;
    Status ls = LoadRootAndSegments(buf);
    if (ls.ok()) break;
    if (ls.code() != StatusCode::kCorruption) return ls;
    stats_.recovery_root_fallbacks++;
    ResetMappingState();
  }

  std::sort(subclass_pages.begin(), subclass_pages.end(),
            [](const MetaPageRef& x, const MetaPageRef& y) {
              return x.oob.seq < y.oob.seq;
            });
  OnMetaPagesScanned(subclass_pages);

  // Position the meta cursor on a good block with erased space.
  meta_active_ = 0;
  meta_next_page_ = fc.pages_per_block;
  for (flash::BlockNum b = 0; b < config_.meta_blocks; ++b) {
    if (blocks_[b].kind == BlockInfo::Kind::kBad || device_->IsBadBlock(b)) {
      continue;
    }
    uint32_t np = device_->NextProgramPage(b);
    if (np < fc.pages_per_block) {
      // Prefer a partially written block; else any erased one.
      if (np > 0 || meta_next_page_ >= fc.pages_per_block) {
        meta_active_ = b;
        meta_next_page_ = np;
        if (np > 0) break;
      }
    }
  }
  return Status::OK();
}

void PageFtl::ResetMappingState() {
  std::fill(l2p_.begin(), l2p_.end(), flash::kInvalidPpn);
  std::fill(segment_snapshot_ppn_.begin(), segment_snapshot_ppn_.end(),
            flash::kInvalidPpn);
  std::fill(segment_dirty_.begin(), segment_dirty_.end(), false);
  last_root_seq_ = 0;
  root_active_.clear();
  bad_blocks_.clear();
  bad_blocks_dirty_ = false;
  // LoadRootAndSegments flags persisted-bad meta blocks; un-flag them (the
  // device-reported list is re-applied at the end of Recover()).
  for (flash::BlockNum b = 0; b < config_.meta_blocks; ++b) {
    blocks_[b].kind = BlockInfo::Kind::kMeta;
  }
}

Status PageFtl::LoadRootAndSegments(const std::vector<uint8_t>& buf) {
  const auto& fc = device_->config();
  last_root_seq_ = DecodeFixed64(buf.data() + 4);
  uint32_t nseg = DecodeFixed32(buf.data() + 12);
  std::vector<uint8_t> seg_buf(fc.page_size);
  for (uint32_t seg = 0; seg < nseg; ++seg) {
    flash::Ppn sppn = DecodeFixed32(buf.data() + kRootHeaderSize + size_t(seg) * 4);
    segment_snapshot_ppn_[seg] = sppn;
    if (sppn == flash::kInvalidPpn) continue;
    // The referenced page must actually BE this segment: a power cut can
    // drop a buffered segment program while the root (on another meta
    // block) persists, leaving the reference dangling at an erased page —
    // which would otherwise read back as an innocent all-0xff segment and
    // silently lose every mapping it held.
    if (sppn >= fc.TotalPages() || fc.BlockOf(sppn) >= config_.meta_blocks) {
      return Status::Corruption("root references out-of-region segment " +
                                std::to_string(seg));
    }
    const flash::PageOob* seg_oob = ScannedOob(sppn);
    if (seg_oob == nullptr || seg_oob->tag != kTagMetaSegment ||
        seg_oob->lpn != seg) {
      return Status::Corruption("L2P segment " + std::to_string(seg) +
                                " missing at ppn " + std::to_string(sppn));
    }
    Status s = ReadPhysPage(sppn, seg_buf.data());
    if (!s.ok()) {
      return Status::Corruption("unreadable L2P segment " +
                                std::to_string(seg) + ": " + s.ToString());
    }
    uint64_t base = uint64_t(seg) * entries_per_segment_;
    for (uint32_t i = 0; i < entries_per_segment_; ++i) {
      uint64_t lpn = base + i;
      if (lpn >= l2p_.size()) break;
      l2p_[lpn] = DecodeFixed32(seg_buf.data() + size_t(i) * 4);
    }
  }
  // Grown-bad-block list: physical damage recorded by the previous life of
  // the drive. Meta blocks are flagged immediately (the meta cursor and
  // compaction consult kinds); data blocks are re-marked after the block
  // scan rebuilds their state, so any still-live pages get relocated.
  size_t off = kRootHeaderSize + size_t(nseg) * 4;
  uint32_t nbad = DecodeFixed32(buf.data() + off);
  off += 4;
  bad_blocks_.clear();
  for (uint32_t i = 0; i < nbad; ++i, off += 4) {
    flash::BlockNum b = DecodeFixed32(buf.data() + off);
    if (b >= fc.num_blocks) continue;
    bad_blocks_.push_back(b);
    if (b < config_.meta_blocks) blocks_[b].kind = BlockInfo::Kind::kBad;
  }
  uint32_t nactive = DecodeFixed32(buf.data() + off);
  off += 4;
  root_active_.clear();
  for (uint32_t i = 0; i < nactive; ++i, off += 8) {
    root_active_[DecodeFixed32(buf.data() + off)] =
        DecodeFixed32(buf.data() + off + 4);
  }
  bad_blocks_dirty_ = false;
  return Status::OK();
}

uint32_t PageFtl::TailStart(flash::BlockNum b, uint64_t stamp) const {
  if (stamp == 0 || stamp > last_root_seq_) return 0;
  auto it = root_active_.find(b);
  return it == root_active_.end() ? device_->config().pages_per_block
                                  : it->second;
}

Status PageFtl::RollForwardDataBlocks() {
  const auto& fc = device_->config();
  // Newest-wins per lpn among data pages written after the checkpoint (all
  // of them were sensed); a candidate must be readable (not torn) to win.
  struct Candidate {
    uint64_t seq;
    flash::Ppn ppn;
  };
  std::unordered_map<Lpn, std::vector<Candidate>> cands;
  for (flash::BlockNum b = config_.meta_blocks; b < fc.num_blocks; ++b) {
    uint32_t np = device_->NextProgramPage(b);
    for (uint32_t p = 0; p < np; ++p) {
      flash::Ppn ppn = flash::Ppn(uint64_t(b) * fc.pages_per_block + p);
      const flash::PageOob* scanned = ScannedOob(ppn);
      if (scanned == nullptr) continue;
      const flash::PageOob& oob = *scanned;
      next_seq_ = std::max(next_seq_, oob.seq + 1);
      if (oob.tag != kTagData) continue;  // tx pages resolve via X-L2P
      if (oob.seq <= last_root_seq_) continue;
      if (oob.lpn >= config_.num_logical_pages) continue;
      cands[oob.lpn].push_back({oob.seq, ppn});
    }
  }
  std::vector<uint8_t> buf(fc.page_size);
  for (auto& [lpn, list] : cands) {
    std::sort(list.begin(), list.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.seq > b.seq;
              });
    for (const Candidate& c : list) {
      if (ReadPhysPage(c.ppn, buf.data()).ok()) {
        l2p_[lpn] = c.ppn;
        segment_dirty_[SegmentOf(lpn)] = true;
        break;
      }
      // Torn page: fall through to the next-newest copy. The pre-crash copy
      // is intact because flash never overwrites in place.
    }
  }
  return Status::OK();
}

void PageFtl::RebuildBlockState(const std::vector<uint64_t>& stamps) {
  const auto& fc = device_->config();
  // First pass: reverse maps of the sensed pages, block classification, and
  // the partial blocks worth resuming. Resuming is safe only if the next
  // boot is sure to scan whatever lands there, even if no new root is
  // written first: the block is stamped after the loaded root, or the root
  // lists it as active and the crash did not cut it back below the page the
  // root recorded (TailStart <= np covers both). A newer root lists it as
  // active in turn.
  free_blocks_.clear();
  std::vector<flash::BlockNum> resumable;
  for (flash::BlockNum b = config_.meta_blocks; b < fc.num_blocks; ++b) {
    BlockInfo& blk = blocks_[b];
    uint32_t np = device_->NextProgramPage(b);
    if (np == 0) {
      blk.kind = BlockInfo::Kind::kFree;
      blk.valid.clear();
      blk.rmap.clear();
      blk.valid_count = 0;
      free_blocks_.push_back(b);
      continue;
    }
    blk.kind = BlockInfo::Kind::kSealed;
    blk.sealed_seq = next_seq_;
    blk.open_seq = stamps[b];
    blk.valid.assign(fc.pages_per_block, false);
    blk.rmap.assign(fc.pages_per_block, flash::kInvalidLpn);
    blk.valid_count = 0;
    for (uint32_t p = 0; p < np; ++p) {
      const flash::PageOob* oob =
          ScannedOob(flash::Ppn(uint64_t(b) * fc.pages_per_block + p));
      if (oob != nullptr) blk.rmap[p] = oob->lpn;
    }
    if (np < fc.pages_per_block && TailStart(b, stamps[b]) <= np &&
        !device_->IsBadBlock(b) &&
        std::find(bad_blocks_.begin(), bad_blocks_.end(), b) ==
            bad_blocks_.end()) {
      resumable.push_back(b);
    }
  }

  // Validate checkpointed mappings: a checkpoint may reference a page whose
  // block was collected and reprogrammed with unrelated data (the logical
  // page was trimmed afterwards, so no newer copy exists to win roll-
  // forward), a page the crash dropped back to erased before it drained, or
  // a page the crash tore mid-program. Such entries are dropped — the L2P
  // must never map to an erased or unreadable physical page. A page the
  // scan trusted sits in a block not reopened since the root, so it still
  // holds what the root mapped there unless the crash erased or tore it.
  for (Lpn lpn = 0; lpn < l2p_.size(); ++lpn) {
    flash::Ppn ppn = l2p_[lpn];
    if (ppn == flash::kInvalidPpn) continue;
    const flash::PageOob* oob = ScannedOob(ppn);  // meta pages fail the tags
    const bool sound =
        oob != nullptr
            ? oob->lpn == lpn &&
                  (oob->tag == kTagData || oob->tag == kTagTxData ||
                   oob->tag == kTagSccData)
            : ppn < fc.TotalPages() &&
                  fc.BlockOf(ppn) >= config_.meta_blocks &&
                  fc.PageInBlock(ppn) <
                      device_->NextProgramPage(fc.BlockOf(ppn));
    if (!sound ||
        device_->PageStateOf(ppn) == flash::FlashDevice::PageState::kTorn) {
      l2p_[lpn] = flash::kInvalidPpn;
      segment_dirty_[SegmentOf(lpn)] = true;
      stats_.recovery_stale_mappings++;
      continue;
    }
    BlockInfo& blk = blocks_[fc.BlockOf(ppn)];
    uint32_t page = fc.PageInBlock(ppn);
    blk.rmap[page] = lpn;
    if (!blk.valid[page]) {
      blk.valid[page] = true;
      blk.valid_count++;
    }
  }
  // The newest resumable blocks fill the active slots, each on its own
  // bank's slot when that is free, else on any free slot (as the allocator
  // does when a bank has no free block).
  for (auto& a : active_blocks_) a = flash::kInvalidPpn;
  std::stable_sort(resumable.begin(), resumable.end(),
                   [&](flash::BlockNum x, flash::BlockNum y) {
                     return stamps[x] > stamps[y];
                   });
  resumable.resize(std::min<size_t>(resumable.size(), fc.num_banks));
  auto resume = [&](flash::BlockNum b, uint32_t slot) {
    blocks_[b].kind = BlockInfo::Kind::kActive;
    active_blocks_[slot] = b;
    active_next_page_[slot] = device_->NextProgramPage(b);
    stats_.recovery_blocks_resumed++;
  };
  std::vector<flash::BlockNum> displaced;
  for (flash::BlockNum b : resumable) {
    if (active_blocks_[fc.BankOf(b)] == flash::kInvalidPpn) {
      resume(b, fc.BankOf(b));
    } else {
      displaced.push_back(b);
    }
  }
  for (flash::BlockNum b : displaced) {
    resume(b, uint32_t(std::find(active_blocks_.begin(), active_blocks_.end(),
                                 flash::kInvalidPpn) -
                       active_blocks_.begin()));
  }
  // Validity counts are final for everything the checkpoint knew about;
  // subclass recovery (MarkPpnValid for transactional pages) keeps the
  // buckets current incrementally from here.
  RebuildGcBuckets();
}

}  // namespace xftl::ftl
