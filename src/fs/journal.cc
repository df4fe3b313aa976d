#include "fs/journal.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/coding.h"
#include "common/crc32.h"
#include "fs/fs_format.h"

namespace xftl::fs {
namespace {

// A descriptor page holds a 16-byte header (magic, txid, count), one 8-byte
// home per copy, and its CRC in the last 4 bytes.
uint32_t DescriptorHomes(uint32_t page_size) { return (page_size - 20) / 8; }

}  // namespace

Journal::Journal(storage::BlockDevice* dev, uint32_t start, uint32_t pages)
    : dev_(dev),
      start_(start),
      capacity_(std::min(pages - 2, DescriptorHomes(dev->page_size()))) {
  CHECK_GE(pages, 3u);
}

Status Journal::CommitTransaction(const uint64_t* homes,
                                  const uint8_t* const* datas, size_t n) {
  if (n == 0) return Status::OK();
  if (n > capacity()) {
    return Status::ResourceExhausted("journal transaction too large");
  }
  const uint32_t page_size = dev_->page_size();

  // Barrier 1: everything written before (in-place data, the previous
  // transaction's checkpoint writes) must be ordered ahead of this journal
  // write, which overwrites the previous transaction. Barrier firmware
  // serves it order-only, which suffices under epoch-prefix durability: if
  // this descriptor survives a cut, everything before barrier 1 survived
  // too.
  XFTL_RETURN_IF_ERROR(dev_->FlushBarrier());

  // Descriptor.
  std::vector<uint8_t> buf(page_size, 0);
  uint64_t txid = next_txid_++;
  EncodeFixed32(buf.data(), kJournalDescMagic);
  EncodeFixed64(buf.data() + 4, txid);
  EncodeFixed32(buf.data() + 12, uint32_t(n));
  uint32_t content_crc = 0;
  for (size_t i = 0; i < n; ++i) {
    EncodeFixed64(buf.data() + 16 + i * 8, homes[i]);
    content_crc = Crc32c(datas[i], page_size, content_crc);
  }
  EncodeFixed32(buf.data() + page_size - 4,
                Crc32c(buf.data(), page_size - 4));
  XFTL_RETURN_IF_ERROR(dev_->Write(start_, buf.data()));
  stats_.journal_page_writes++;

  // Copies: one queued batch, striped across banks by the FTL. The commit
  // page below still serializes after them in program order, and Barrier 2
  // is what makes any of it durable.
  std::vector<uint64_t> copy_pages(n);
  for (size_t i = 0; i < n; ++i) copy_pages[i] = start_ + 1 + i;
  XFTL_RETURN_IF_ERROR(dev_->WriteBatch(copy_pages.data(), datas, n));
  stats_.journal_page_writes += n;

  // Commit page: its checksum covers the copies, so a torn copy invalidates
  // the whole transaction.
  std::memset(buf.data(), 0, page_size);
  EncodeFixed32(buf.data(), kJournalCommitMagic);
  EncodeFixed64(buf.data() + 4, txid);
  EncodeFixed32(buf.data() + 12, content_crc);
  XFTL_RETURN_IF_ERROR(dev_->Write(start_ + 1 + n, buf.data()));
  stats_.journal_page_writes++;

  // Barrier 2: the commit record is durable (on barrier firmware: ordered
  // ahead of the checkpoint writes); checkpointing may begin.
  XFTL_RETURN_IF_ERROR(dev_->FlushBarrier());
  stats_.commits++;
  return Status::OK();
}

Status Journal::Recover() {
  const uint32_t page_size = dev_->page_size();
  std::vector<uint8_t> desc(page_size);
  Status s = dev_->Read(start_, desc.data());
  if (!s.ok()) return Status::OK();  // torn descriptor: nothing committed
  if (DecodeFixed32(desc.data()) != kJournalDescMagic) return Status::OK();
  if (DecodeFixed32(desc.data() + page_size - 4) !=
      Crc32c(desc.data(), page_size - 4)) {
    return Status::OK();
  }
  uint64_t txid = DecodeFixed64(desc.data() + 4);
  uint32_t count = DecodeFixed32(desc.data() + 12);
  if (count > capacity()) return Status::OK();

  // Read all copies and validate against the commit page.
  std::vector<std::vector<uint8_t>> copies(count,
                                           std::vector<uint8_t>(page_size));
  uint32_t content_crc = 0;
  for (uint32_t i = 0; i < count; ++i) {
    Status rs = dev_->Read(start_ + 1 + i, copies[i].data());
    if (!rs.ok()) return Status::OK();  // torn copy: not committed
    content_crc = Crc32c(copies[i].data(), page_size, content_crc);
  }
  std::vector<uint8_t> commit(page_size);
  Status cs = dev_->Read(start_ + 1 + count, commit.data());
  if (!cs.ok()) return Status::OK();
  if (DecodeFixed32(commit.data()) != kJournalCommitMagic) return Status::OK();
  if (DecodeFixed64(commit.data() + 4) != txid) return Status::OK();
  if (DecodeFixed32(commit.data() + 12) != content_crc) return Status::OK();

  // Complete transaction: replay to home locations.
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t home = DecodeFixed64(desc.data() + 16 + size_t(i) * 8);
    XFTL_RETURN_IF_ERROR(dev_->Write(home, copies[i].data()));
    stats_.replayed_pages++;
  }
  XFTL_RETURN_IF_ERROR(dev_->FlushBarrier());
  stats_.replayed_transactions++;
  next_txid_ = txid + 1;
  return Status::OK();
}

}  // namespace xftl::fs
