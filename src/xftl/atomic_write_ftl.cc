#include "xftl/atomic_write_ftl.h"

#include <cstring>

#include "common/coding.h"
#include "common/crc32.h"

namespace xftl::ftl {

namespace {
constexpr uint32_t kAwMagic = 0x4157464c;  // "AWFL"
// Commit record page: magic(4) count(4) entries{lpn(8) ppn(4)}... crc(4).
constexpr size_t kAwHeaderSize = 8;
constexpr size_t kAwEntrySize = 12;
}  // namespace

Status AtomicWriteFtl::WriteAtomic(
    const std::vector<std::pair<Lpn, const uint8_t*>>& pages) {
  const uint32_t page_size = this->page_size();
  size_t max_entries = (page_size - kAwHeaderSize - 4) / kAwEntrySize;
  if (pages.empty()) return Status::OK();
  if (pages.size() > max_entries) {
    return Status::InvalidArgument("atomic batch exceeds one commit record");
  }

  // Phase 1: program all data pages; they are unreachable until the record.
  std::vector<std::pair<Lpn, flash::Ppn>> placed;
  placed.reserve(pages.size());
  inflight_batch_ = &placed;
  for (const auto& [lpn, data] : pages) {
    if (lpn >= num_logical_pages()) {
      inflight_batch_ = nullptr;
      return Status::OutOfRange("lpn " + std::to_string(lpn));
    }
    auto ppn_or = ProgramDataPage(lpn, data, kTagTxData);
    if (!ppn_or.ok()) {
      inflight_batch_ = nullptr;
      return ppn_or.status();
    }
    placed.emplace_back(lpn, ppn_or.value());
    stats_.host_page_writes++;
  }
  inflight_batch_ = nullptr;
  device()->SyncAll();

  // Phase 2: the commit record makes the batch durable atomically.
  std::vector<uint8_t> buf(page_size, 0);
  EncodeFixed32(buf.data(), kAwMagic);
  EncodeFixed32(buf.data() + 4, uint32_t(placed.size()));
  size_t off = kAwHeaderSize;
  for (const auto& [lpn, ppn] : placed) {
    EncodeFixed64(buf.data() + off, lpn);
    EncodeFixed32(buf.data() + off + 8, ppn);
    off += kAwEntrySize;
  }
  EncodeFixed32(buf.data() + page_size - 4, Crc32c(buf.data(), page_size - 4));
  XFTL_RETURN_IF_ERROR(ProgramMetaPage(kTagAwCommit, 0, buf.data()));
  device()->SyncAll();

  // Phase 3: fold.
  for (const auto& [lpn, ppn] : placed) {
    flash::Ppn old = MappingOf(lpn);
    if (old != flash::kInvalidPpn && old != ppn) InvalidatePpn(old);
    SetMapping(lpn, ppn);
  }
  stats_.flush_barriers++;
  atomic_batches_++;
  return Status::OK();
}

void AtomicWriteFtl::OnPageRelocated(Lpn lpn, flash::Ppn from, flash::Ppn to) {
  if (inflight_batch_ == nullptr) return;
  for (auto& [batch_lpn, ppn] : *inflight_batch_) {
    if (batch_lpn == lpn && ppn == from) ppn = to;
  }
}

void AtomicWriteFtl::OnMetaPagesScanned(const std::vector<MetaPageRef>& pages) {
  // Every commit record in the ring is read: each is a batch to replay.
  const uint32_t page_size = this->page_size();
  std::vector<uint8_t> data(page_size);
  for (const MetaPageRef& mp : pages) {
    if (mp.oob.tag != kTagAwCommit) continue;
    if (!ReadPhysPage(mp.ppn, data.data()).ok()) continue;  // torn
    if (DecodeFixed32(data.data()) != kAwMagic) continue;
    if (DecodeFixed32(data.data() + page_size - 4) !=
        Crc32c(data.data(), page_size - 4)) {
      continue;  // torn commit record: the batch never committed
    }
    uint32_t count = DecodeFixed32(data.data() + 4);
    auto& list = recovery_records_[mp.oob.seq];
    size_t off = kAwHeaderSize;
    for (uint32_t i = 0; i < count; ++i, off += kAwEntrySize) {
      Lpn lpn = DecodeFixed64(data.data() + off);
      flash::Ppn ppn = DecodeFixed32(data.data() + off + 8);
      list.emplace_back(lpn, ppn);
    }
  }
}

void AtomicWriteFtl::NameRecoveryPages(std::vector<flash::Ppn>* ppns) const {
  // FinishRecovery consults each recorded page and its lpn's current copy.
  for (const auto& [seq, list] : recovery_records_) {
    for (const auto& [lpn, ppn] : list) {
      ppns->push_back(ppn);
      ppns->push_back(MappingOf(lpn));
    }
  }
}

Status AtomicWriteFtl::FinishRecovery() {
  // Replay commit records newer than the L2P checkpoint, oldest first so
  // later batches win on overlapping pages.
  for (const auto& [seq, list] : recovery_records_) {
    for (const auto& [lpn, ppn] : list) {
      flash::Ppn cur = MappingOf(lpn);
      if (cur == ppn) continue;
      const flash::PageOob* oob = ScannedOob(ppn);
      if (oob == nullptr) continue;
      if (oob->lpn != lpn || oob->tag != kTagTxData) continue;  // GC moved it
      if (cur != flash::kInvalidPpn) {
        const flash::PageOob* cur_oob = ScannedOob(cur);
        if (cur_oob != nullptr &&
            DataVersion(*cur_oob) >= DataVersion(*oob)) {
          continue;
        }
        InvalidatePpn(cur);
      }
      SetMapping(lpn, ppn);
      MarkPpnValid(ppn, lpn);
    }
  }
  recovery_records_.clear();
  return Status::OK();
}

}  // namespace xftl::ftl
