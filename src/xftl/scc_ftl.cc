#include "xftl/scc_ftl.h"

#include <map>
#include <set>

namespace xftl::ftl {

Status SccFtl::WriteAtomic(
    const std::vector<std::pair<Lpn, const uint8_t*>>& pages) {
  if (pages.empty()) return Status::OK();
  for (const auto& [lpn, data] : pages) {
    if (lpn >= num_logical_pages()) {
      return Status::OutOfRange("lpn " + std::to_string(lpn));
    }
  }

  // Reserve the whole batch's sequence numbers so each page can name its
  // successor's identity before the successor is written.
  uint64_t first_seq = ReserveSeqs(pages.size());
  std::vector<std::pair<Lpn, flash::Ppn>> placed;
  placed.reserve(pages.size());
  inflight_batch_ = &placed;
  for (size_t i = 0; i < pages.size(); ++i) {
    size_t next = (i + 1) % pages.size();
    flash::PageOob oob;
    oob.lpn = pages[i].first;
    oob.seq = first_seq + i;
    oob.tag = kTagSccData;
    oob.link_lpn = pages[next].first;
    oob.link_seq = first_seq + next;
    auto ppn_or = ProgramDataPageOob(pages[i].second, oob);
    if (!ppn_or.ok()) {
      inflight_batch_ = nullptr;
      return ppn_or.status();
    }
    placed.emplace_back(pages[i].first, ppn_or.value());
    stats_.host_page_writes++;
  }
  inflight_batch_ = nullptr;
  // The cycle is the commit record: once the last program retires, the
  // transaction is durable with no further writes.
  device()->SyncAll();

  // Fold into the L2P (later writes of the same lpn within the batch win).
  for (const auto& [lpn, ppn] : placed) {
    flash::Ppn old = MappingOf(lpn);
    if (old != flash::kInvalidPpn && old != ppn) InvalidatePpn(old);
    SetMapping(lpn, ppn);
  }
  stats_.flush_barriers++;
  atomic_batches_++;
  return Status::OK();
}

void SccFtl::OnPageRelocated(Lpn lpn, flash::Ppn from, flash::Ppn to) {
  if (inflight_batch_ == nullptr) return;
  for (auto& [batch_lpn, ppn] : *inflight_batch_) {
    if (batch_lpn == lpn && ppn == from) ppn = to;
  }
}

void SccFtl::NameRecoveryPages(std::vector<flash::Ppn>* ppns) const {
  // Cycle analysis needs every page: a cycle member can sit in any block,
  // and the checkpoint says nothing about which cycles completed.
  const flash::FlashConfig& fc = device()->config();
  for (flash::BlockNum b = ftl_config().meta_blocks; b < fc.num_blocks; ++b) {
    const uint32_t np = device()->NextProgramPage(b);
    for (uint32_t p = 0; p < np; ++p) {
      ppns->push_back(flash::Ppn(uint64_t(b) * fc.pages_per_block + p));
    }
  }
}

Status SccFtl::FinishRecovery() {
  // Cycle analysis over the pages the recovery scan found. A node is the
  // (lpn, seq) identity of an SCC page; a transaction is committed iff
  // following the links from any node returns to it with every hop present
  // and readable.
  struct Node {
    flash::Ppn ppn;
    uint64_t link_lpn;
    uint64_t link_seq;
  };
  std::map<std::pair<uint64_t, uint64_t>, Node> nodes;
  for (const auto& [ppn, oob] : ScannedOobs()) {
    if (oob.tag != kTagSccData) continue;
    nodes[{oob.lpn, oob.seq}] = {ppn, oob.link_lpn, oob.link_seq};
  }

  std::set<std::pair<uint64_t, uint64_t>> committed;
  std::set<std::pair<uint64_t, uint64_t>> visited;
  std::vector<uint8_t> buf(page_size());
  for (const auto& [id, node] : nodes) {
    if (visited.count(id) != 0) continue;
    // Walk the cycle.
    std::vector<std::pair<uint64_t, uint64_t>> path;
    auto cur = id;
    bool complete = false;
    for (size_t hops = 0; hops <= nodes.size(); ++hops) {
      auto it = nodes.find(cur);
      if (it == nodes.end()) break;  // missing member: incomplete
      if (!ReadPhysPage(it->second.ppn, buf.data()).ok()) break;  // torn
      path.push_back(cur);
      cur = {it->second.link_lpn, it->second.link_seq};
      if (cur == id) {
        complete = true;
        break;
      }
      if (visited.count(cur) != 0) break;  // ran into another walk
    }
    for (const auto& member : path) visited.insert(member);
    if (complete) {
      for (const auto& member : path) committed.insert(member);
      recovered_cycles_++;
    } else {
      discarded_cycles_++;
    }
  }

  // Apply committed pages, newest sequence per lpn, unless a newer plain
  // write already won roll-forward.
  std::map<uint64_t, std::pair<uint64_t, flash::Ppn>> winners;  // lpn->seq,ppn
  for (const auto& id : committed) {
    auto& w = winners[id.first];
    if (id.second >= w.first) w = {id.second, nodes[id].ppn};
  }
  for (const auto& [lpn, win] : winners) {
    flash::Ppn cur = MappingOf(lpn);
    if (cur == win.second) continue;
    if (cur != flash::kInvalidPpn) {
      const flash::PageOob* cur_oob = ScannedOob(cur);
      if (cur_oob != nullptr && DataVersion(*cur_oob) >= win.first) continue;
      InvalidatePpn(cur);
    }
    SetMapping(lpn, win.second);
    MarkPpnValid(win.second, lpn);
  }
  return Status::OK();
}

}  // namespace xftl::ftl
