#include "check/xftl_fsck.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common/coding.h"
#include "common/crc32.h"
#include "xftl/xftl.h"

namespace xftl::check {
namespace {

using flash::FlashDevice;
using PageState = FlashDevice::PageState;

// On-flash layout mirrors. Deliberately duplicated from page_ftl.cc and
// xftl.cc (see the header for why); the round-trip tests keep them honest.
constexpr uint32_t kRootMagic = 0x5846524f;  // "XFRO"
constexpr size_t kRootHeaderSize = 4 + 8 + 4;
constexpr uint32_t kXl2pMagic = 0x584c3250;  // "XL2P"
constexpr size_t kSnapHeaderSize = 32;
constexpr size_t kEntrySize = 16;

constexpr uint8_t kSlotActive = 1;
constexpr uint8_t kSlotCommitted = 2;
constexpr uint8_t kSlotPrepared = 3;      // array 2PC: durably in-doubt
constexpr uint8_t kSlotCommitRecord = 4;  // coordinator commit record

constexpr size_t kMaxErrors = 64;

struct XEntry {
  uint32_t tid = 0;
  uint64_t lpn = 0;
  flash::Ppn ppn = flash::kInvalidPpn;
  uint8_t status = 0;
};

// Everything the checker derives from the raw image.
struct Derived {
  std::vector<flash::Ppn> l2p;
  uint64_t root_seq = 0;  // the loaded root's own seq field (0 = none)
  std::vector<flash::BlockNum> bad_list;
  // The loaded root's active list: block -> next page at root time.
  std::map<flash::BlockNum, uint32_t> root_active;
  uint64_t snapshot_id = 0;      // winning X-L2P snapshot (0 = none)
  std::vector<XEntry> xentries;  // winning snapshot, in page order
  // PREPARED pages recovery retains as in-doubt (valid but unmapped) —
  // mirrored for invariant 3's per-block validity accounting.
  std::vector<flash::Ppn> retained_in_doubt;
  // Per-transaction durable outcomes visible in this image, for the
  // array-level atomicity cross-check.
  std::set<uint32_t> committed_tids;  // COMMITTED entry, or fold durable
  std::set<uint32_t> in_doubt_tids;   // PREPARED entry retained
  std::set<uint32_t> record_tids;     // commit records held
};

void AddError(FsckReport* rep, std::string msg) {
  if (rep->errors.size() < kMaxErrors) {
    rep->errors.push_back(std::move(msg));
  } else if (rep->errors.size() == kMaxErrors) {
    rep->errors.push_back("(further errors suppressed)");
  }
}

uint32_t NumSegments(const flash::FlashConfig& fc, const ftl::FtlConfig& cfg) {
  uint32_t entries_per_segment = fc.page_size / 4;
  return uint32_t((cfg.num_logical_pages + entries_per_segment - 1) /
                  entries_per_segment);
}

// Re-derives recovery's end state from the raw image: newest loadable
// checkpoint epoch, OOB roll-forward, stale-mapping validation and the
// newest complete X-L2P snapshot.
Derived Derive(const FlashDevice& dev, const FsckOptions& opt,
               FsckReport* rep) {
  const flash::FlashConfig& fc = dev.config();
  const uint32_t nseg = NumSegments(fc, opt.ftl);
  Derived d;
  d.l2p.assign(opt.ftl.num_logical_pages, flash::kInvalidPpn);

  // --- meta-region scan --------------------------------------------------
  struct RootCand {
    uint64_t seq;
    flash::Ppn ppn;
  };
  struct SnapPage {
    uint64_t seq = 0;  // OOB seq; newer rewrite of a page index wins
    std::vector<XEntry> entries;
  };
  struct Snap {
    uint32_t total_pages = 0;
    uint64_t total_seq = 0;  // seq of the page total_pages came from
    std::map<uint32_t, SnapPage> pages;
  };
  std::vector<RootCand> roots;
  std::map<uint64_t, Snap> snaps;  // snapshot id -> pages
  std::unordered_map<flash::Ppn, flash::PageOob> meta_oob;

  for (flash::BlockNum b = 0; b < opt.ftl.meta_blocks; ++b) {
    for (uint32_t p = 0; p < fc.pages_per_block; ++p) {
      flash::Ppn ppn = flash::Ppn(uint64_t(b) * fc.pages_per_block + p);
      PageState st = dev.PageStateOf(ppn);
      if (st == PageState::kErased) continue;
      if (st == PageState::kTorn) {
        rep->counters.torn_meta_pages++;
        continue;
      }
      auto oob_opt = dev.PeekOob(ppn);
      if (!oob_opt.has_value()) continue;
      const flash::PageOob& oob = *oob_opt;
      meta_oob[ppn] = oob;
      const uint8_t* data = dev.PeekPageData(ppn);

      if (oob.tag == ftl::kTagMetaRoot) {
        // magic(4) seq(8) nseg(4) ppn[nseg](4*) nbad(4) bad[nbad](4*)
        // nactive(4) {block(4) next_page(4)}[nactive] crc(4).
        bool valid = DecodeFixed32(data) == kRootMagic &&
                     DecodeFixed32(data + 12) == nseg;
        size_t off = kRootHeaderSize + size_t(nseg) * 4;
        for (size_t entry_size : {4, 8}) {  // bad list, then active list
          valid = valid && off + 4 <= fc.page_size;
          if (valid) off += 4 + size_t(DecodeFixed32(data + off)) * entry_size;
        }
        valid = valid && off + 4 <= fc.page_size &&
                DecodeFixed32(data + off) == Crc32c(data, off);
        if (valid) {
          roots.push_back({oob.seq, ppn});
        } else {
          rep->counters.torn_meta_pages++;
        }
      } else if (oob.tag == ftl::kTagXl2p) {
        if (!opt.transactional) {
          AddError(rep, "X-L2P snapshot page at ppn " + std::to_string(ppn) +
                            " on a non-transactional image");
          continue;
        }
        if (DecodeFixed32(data) != kXl2pMagic ||
            DecodeFixed32(data + fc.page_size - 4) !=
                Crc32c(data, fc.page_size - 4)) {
          rep->counters.torn_meta_pages++;
          continue;
        }
        uint64_t snap_id = DecodeFixed64(data + 4);
        uint32_t page_index = DecodeFixed32(data + 12);
        uint32_t total_pages = DecodeFixed32(data + 16);
        uint32_t count = DecodeFixed32(data + 20);
        if (kSnapHeaderSize + size_t(count) * kEntrySize + 4 > fc.page_size) {
          AddError(rep, "X-L2P page at ppn " + std::to_string(ppn) +
                            " claims more entries than fit");
          continue;
        }
        Snap& snap = snaps[snap_id];
        if (oob.seq >= snap.total_seq) {
          snap.total_pages = total_pages;
          snap.total_seq = oob.seq;
        }
        SnapPage& sp = snap.pages[page_index];
        if (oob.seq < sp.seq) continue;  // an older duplicate of this index
        sp.seq = oob.seq;
        sp.entries.clear();
        size_t off = kSnapHeaderSize;
        for (uint32_t i = 0; i < count; ++i, off += kEntrySize) {
          XEntry e;
          e.tid = DecodeFixed32(data + off);
          e.lpn = DecodeFixed32(data + off + 4);
          e.ppn = DecodeFixed32(data + off + 8);
          e.status = data[off + 12];
          sp.entries.push_back(e);
        }
      }
      // Segment pages and unknown subclass tags are consumed via the root /
      // snapshot references; nothing to do on their own.
    }
  }
  rep->counters.roots_found = roots.size();

  // --- newest loadable checkpoint epoch ----------------------------------
  std::sort(roots.begin(), roots.end(),
            [](const RootCand& a, const RootCand& b) { return a.seq > b.seq; });
  for (const RootCand& rc : roots) {
    const uint8_t* data = dev.PeekPageData(rc.ppn);
    std::fill(d.l2p.begin(), d.l2p.end(), flash::kInvalidPpn);
    d.bad_list.clear();
    bool loadable = true;
    uint32_t entries_per_segment = fc.page_size / 4;
    for (uint32_t seg = 0; seg < nseg && loadable; ++seg) {
      flash::Ppn sppn =
          DecodeFixed32(data + kRootHeaderSize + size_t(seg) * 4);
      if (sppn == flash::kInvalidPpn) continue;
      auto it = meta_oob.find(sppn);
      if (sppn >= fc.TotalPages() ||
          fc.BlockOf(sppn) >= opt.ftl.meta_blocks ||
          dev.PageStateOf(sppn) != PageState::kProgrammed ||
          it == meta_oob.end() || it->second.tag != ftl::kTagMetaSegment ||
          it->second.lpn != seg) {
        loadable = false;  // dropped, torn or recycled segment page
        break;
      }
      const uint8_t* seg_data = dev.PeekPageData(sppn);
      uint64_t base = uint64_t(seg) * entries_per_segment;
      for (uint32_t i = 0; i < entries_per_segment; ++i) {
        uint64_t lpn = base + i;
        if (lpn >= d.l2p.size()) break;
        d.l2p[lpn] = DecodeFixed32(seg_data + size_t(i) * 4);
      }
    }
    if (!loadable) {
      rep->counters.root_fallbacks++;
      continue;
    }
    size_t off = kRootHeaderSize + size_t(nseg) * 4;
    uint32_t nbad = DecodeFixed32(data + off);
    off += 4;
    for (uint32_t i = 0; i < nbad; ++i, off += 4) {
      d.bad_list.push_back(DecodeFixed32(data + off));
    }
    uint32_t nactive = DecodeFixed32(data + off);
    off += 4;
    for (uint32_t i = 0; i < nactive; ++i, off += 8) {
      d.root_active[DecodeFixed32(data + off)] = DecodeFixed32(data + off + 4);
    }
    d.root_seq = DecodeFixed64(data + 4);
    break;
  }
  if (d.root_seq == 0) {
    // No loadable epoch: recovery starts empty and rolls everything forward.
    std::fill(d.l2p.begin(), d.l2p.end(), flash::kInvalidPpn);
    d.bad_list.clear();
  }
  const std::vector<flash::Ppn> checkpoint_l2p = d.l2p;

  // --- OOB roll-forward over the data region -----------------------------
  struct Cand {
    uint64_t seq = 0;
    flash::Ppn ppn = flash::kInvalidPpn;
  };
  std::unordered_map<uint64_t, Cand> newest;
  for (flash::BlockNum b = opt.ftl.meta_blocks; b < fc.num_blocks; ++b) {
    for (uint32_t p = 0; p < fc.pages_per_block; ++p) {
      flash::Ppn ppn = flash::Ppn(uint64_t(b) * fc.pages_per_block + p);
      if (dev.PageStateOf(ppn) != PageState::kProgrammed) continue;
      auto oob_opt = dev.PeekOob(ppn);
      if (!oob_opt.has_value()) continue;
      const flash::PageOob& oob = *oob_opt;
      if (oob.tag != ftl::kTagData) continue;  // tx pages resolve via X-L2P
      if (oob.seq <= d.root_seq) continue;
      if (oob.lpn >= opt.ftl.num_logical_pages) continue;
      Cand& c = newest[oob.lpn];
      if (oob.seq > c.seq) c = Cand{oob.seq, ppn};
    }
  }
  for (const auto& [lpn, c] : newest) d.l2p[lpn] = c.ppn;

  // --- stale-mapping validation (mirror of RebuildBlockState) ------------
  for (uint64_t lpn = 0; lpn < d.l2p.size(); ++lpn) {
    flash::Ppn ppn = d.l2p[lpn];
    if (ppn == flash::kInvalidPpn) continue;
    bool keep = false;
    if (ppn < fc.TotalPages() && fc.BlockOf(ppn) >= opt.ftl.meta_blocks &&
        dev.PageStateOf(ppn) == PageState::kProgrammed) {
      auto oob_opt = dev.PeekOob(ppn);
      keep = oob_opt.has_value() && oob_opt->lpn == lpn &&
             (oob_opt->tag == ftl::kTagData ||
              oob_opt->tag == ftl::kTagTxData ||
              oob_opt->tag == ftl::kTagSccData);
    }
    if (!keep) d.l2p[lpn] = flash::kInvalidPpn;
  }

  // --- newest complete X-L2P snapshot ------------------------------------
  for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
    const Snap& snap = it->second;
    if (snap.pages.size() != snap.total_pages || snap.total_pages == 0) {
      rep->counters.snapshots_skipped++;
      continue;
    }
    for (const auto& [pg, sp] : snap.pages) {
      d.xentries.insert(d.xentries.end(), sp.entries.begin(),
                        sp.entries.end());
    }
    d.snapshot_id = it->first;
    break;
  }

  // --- what a checkpoint-bounded boot cannot trust ------------------------
  // A data block whose page-0 stamp is newer than the root (or unknown) was
  // (re)opened after it; a block the root lists as active gained the pages
  // from its recorded next page on. X-L2P recovery also consults each
  // committed or prepared entry's page and its lpn's checkpointed copy.
  std::set<flash::Ppn> untrusted;
  auto add = [&](flash::Ppn ppn) {
    if (ppn < fc.TotalPages() && fc.BlockOf(ppn) >= opt.ftl.meta_blocks &&
        fc.PageInBlock(ppn) != 0 &&
        dev.PageStateOf(ppn) != PageState::kErased) {
      untrusted.insert(ppn);
    }
  };
  for (flash::BlockNum b = opt.ftl.meta_blocks; b < fc.num_blocks; ++b) {
    const flash::Ppn base = flash::Ppn(uint64_t(b) * fc.pages_per_block);
    auto head = dev.PeekOob(base);
    if (!head.has_value()) continue;
    uint32_t from = fc.pages_per_block;
    if (head->block_seq == 0 || head->block_seq > d.root_seq) {
      from = 0;
    } else if (auto it = d.root_active.find(b); it != d.root_active.end()) {
      from = it->second;
    }
    for (uint32_t p = from; p < fc.pages_per_block; ++p) add(base + p);
  }
  for (const XEntry& e : d.xentries) {
    if (e.status != kSlotCommitted && e.status != kSlotPrepared) continue;
    add(e.ppn);
    if (e.lpn < checkpoint_l2p.size()) add(checkpoint_l2p[e.lpn]);
  }
  rep->counters.post_root_pages = untrusted.size();
  return d;
}

// Applies the committed X-L2P entries the way recovery does, and validates
// invariant 2 (committed reachable, active discarded) along the way.
void ApplyAndCheckXl2p(const FlashDevice& dev, const FsckOptions& opt,
                       Derived* d, FsckReport* rep) {
  const flash::FlashConfig& fc = dev.config();
  std::vector<XEntry> active;
  for (const XEntry& e : d->xentries) {
    if (e.status == kSlotActive) {
      rep->counters.active_entries++;
      active.push_back(e);
      continue;
    }
    if (e.status == kSlotCommitRecord) {
      rep->counters.commit_records++;
      if (e.ppn != flash::kInvalidPpn) {
        AddError(rep, "commit record for tid " + std::to_string(e.tid) +
                          " claims a page (ppn " + std::to_string(e.ppn) +
                          "); records own no pages");
      }
      d->record_tids.insert(e.tid);
      continue;
    }
    if (e.status == kSlotPrepared) {
      // Mirror of recovery's in-doubt handling: retain the entry (page kept
      // valid, NOT applied to the l2p — both versions survive) unless the
      // durable state already shows the outcome.
      rep->counters.in_doubt_entries++;
      if (e.lpn >= d->l2p.size()) {
        AddError(rep, "PREPARED X-L2P entry lpn " + std::to_string(e.lpn) +
                          " beyond the logical space");
        continue;
      }
      bool target_sound =
          e.ppn < fc.TotalPages() &&
          fc.BlockOf(e.ppn) >= opt.ftl.meta_blocks &&
          dev.PageStateOf(e.ppn) == PageState::kProgrammed;
      std::optional<flash::PageOob> oob;
      if (target_sound) {
        oob = dev.PeekOob(e.ppn);
        target_sound = oob.has_value() && oob->lpn == e.lpn &&
                       oob->tag == ftl::kTagTxData;
      }
      if (!target_sound) continue;  // aborted or GC'd long ago: discarded
      flash::Ppn cur = d->l2p[e.lpn];
      if (cur == e.ppn) {
        // The fold is already durable: this member committed the transaction.
        d->committed_tids.insert(e.tid);
        continue;
      }
      if (cur != flash::kInvalidPpn) {
        auto cur_oob = dev.PeekOob(cur);
        if (cur_oob.has_value() &&
            ftl::DataVersion(*cur_oob) >= ftl::DataVersion(*oob)) {
          continue;  // superseded by a newer durable write: resolved long ago
        }
      }
      d->retained_in_doubt.push_back(e.ppn);
      d->in_doubt_tids.insert(e.tid);
      continue;
    }
    if (e.status != kSlotCommitted) {
      AddError(rep, "X-L2P entry (tid " + std::to_string(e.tid) + ", lpn " +
                        std::to_string(e.lpn) + ") has invalid status " +
                        std::to_string(e.status));
      continue;
    }
    rep->counters.committed_entries++;
    d->committed_tids.insert(e.tid);
    if (e.lpn >= d->l2p.size()) {
      AddError(rep, "COMMITTED X-L2P entry lpn " + std::to_string(e.lpn) +
                        " beyond the logical space");
      continue;
    }
    flash::Ppn cur = d->l2p[e.lpn];
    if (cur == e.ppn) continue;  // already reachable via the checkpoint
    bool target_sound =
        e.ppn < fc.TotalPages() &&
        fc.BlockOf(e.ppn) >= opt.ftl.meta_blocks &&
        dev.PageStateOf(e.ppn) == PageState::kProgrammed;
    std::optional<flash::PageOob> oob;
    if (target_sound) {
      oob = dev.PeekOob(e.ppn);
      target_sound = oob.has_value() && oob->lpn == e.lpn &&
                     oob->tag == ftl::kTagTxData;
    }
    if (!target_sound) {
      // The snapshot's copy is gone (GC moved it and folded the mapping, or
      // a newer write superseded it). That is only consistent if the lpn is
      // durably mapped some other way; a committed page that simply
      // vanished is exactly the corruption fsck exists to catch.
      if (cur == flash::kInvalidPpn) {
        AddError(rep,
                 "COMMITTED X-L2P entry (tid " + std::to_string(e.tid) +
                     ", lpn " + std::to_string(e.lpn) + ") -> ppn " +
                     std::to_string(e.ppn) +
                     " is unreachable: target page erased/invalid and no "
                     "superseding mapping exists");
      }
      continue;
    }
    if (cur != flash::kInvalidPpn) {
      auto cur_oob = dev.PeekOob(cur);
      if (cur_oob.has_value() &&
          ftl::DataVersion(*cur_oob) >= ftl::DataVersion(*oob)) {
        continue;  // superseded by a newer durable write
      }
    }
    d->l2p[e.lpn] = e.ppn;
  }

  // ACTIVE entries must be unreachable once recovery is done.
  std::set<flash::Ppn> reachable(d->l2p.begin(), d->l2p.end());
  for (const XEntry& e : active) {
    if (reachable.count(e.ppn) != 0) {
      AddError(rep, "ACTIVE X-L2P entry (tid " + std::to_string(e.tid) +
                        ", lpn " + std::to_string(e.lpn) + ") -> ppn " +
                        std::to_string(e.ppn) +
                        " is still reachable after recovery");
    }
  }
}

// Invariant 1: the final table maps only to programmed pages that claim the
// same lpn, and no page is claimed twice.
void CheckMappings(const FlashDevice& dev, const Derived& d,
                   FsckReport* rep) {
  std::unordered_map<flash::Ppn, uint64_t> owner;
  for (uint64_t lpn = 0; lpn < d.l2p.size(); ++lpn) {
    flash::Ppn ppn = d.l2p[lpn];
    if (ppn == flash::kInvalidPpn) continue;
    rep->counters.mapped_lpns++;
    PageState st = dev.PageStateOf(ppn);
    if (st != PageState::kProgrammed) {
      AddError(rep, "lpn " + std::to_string(lpn) + " maps to " +
                        (st == PageState::kErased ? "erased" : "torn") +
                        " ppn " + std::to_string(ppn));
      continue;
    }
    auto oob = dev.PeekOob(ppn);
    if (!oob.has_value() || oob->lpn != lpn) {
      AddError(rep, "lpn " + std::to_string(lpn) + " maps to ppn " +
                        std::to_string(ppn) +
                        " whose OOB claims a different lpn");
    }
    auto [it, inserted] = owner.emplace(ppn, lpn);
    if (!inserted) {
      AddError(rep, "ppn " + std::to_string(ppn) + " double-mapped by lpns " +
                        std::to_string(it->second) + " and " +
                        std::to_string(lpn));
    }
  }
}

// Invariant 4: the persisted grown-bad-block table.
void CheckBadBlocks(const FlashDevice& dev, const Derived& d,
                    FsckReport* rep) {
  const flash::FlashConfig& fc = dev.config();
  std::set<flash::BlockNum> seen;
  for (flash::BlockNum b : d.bad_list) {
    rep->counters.persisted_bad_blocks++;
    if (b >= fc.num_blocks) {
      AddError(rep, "persisted bad block " + std::to_string(b) +
                        " is out of range");
      continue;
    }
    if (!seen.insert(b).second) {
      AddError(rep, "persisted bad block " + std::to_string(b) +
                        " listed twice");
    }
    if (!dev.IsBadBlock(b)) {
      AddError(rep, "persisted bad block " + std::to_string(b) +
                        " is not reported bad by the device");
    }
  }
}

// Invariant 5: every readable page of a good data block carries the block
// stamp of its page 0.
void CheckBlockStamps(const FlashDevice& dev, const FsckOptions& opt,
                      FsckReport* rep) {
  const flash::FlashConfig& fc = dev.config();
  for (flash::BlockNum b = opt.ftl.meta_blocks; b < fc.num_blocks; ++b) {
    if (dev.IsBadBlock(b)) continue;
    const flash::Ppn base = flash::Ppn(uint64_t(b) * fc.pages_per_block);
    auto head = dev.PeekOob(base);
    if (!head.has_value()) continue;
    for (uint32_t p = 1; p < fc.pages_per_block; ++p) {
      if (dev.PageStateOf(base + p) != PageState::kProgrammed) continue;
      const uint64_t stamp = dev.PeekOob(base + p)->block_seq;
      if (stamp != head->block_seq) {
        AddError(rep, "block " + std::to_string(b) + " page " +
                          std::to_string(p) + " carries block stamp " +
                          std::to_string(stamp) + ", its page 0 " +
                          std::to_string(head->block_seq));
      }
    }
  }
}

// Derives recovery's end state from the image and checks invariants 1, 2,
// 4 and 5 on it.
Derived DeriveAndCheck(const FlashDevice& dev, const FsckOptions& opt,
                       FsckReport* rep) {
  Derived d = Derive(dev, opt, rep);
  ApplyAndCheckXl2p(dev, opt, &d, rep);
  CheckMappings(dev, d, rep);
  CheckBadBlocks(dev, d, rep);
  CheckBlockStamps(dev, opt, rep);
  return d;
}

}  // namespace

std::string FsckReport::Summary() const {
  std::ostringstream os;
  os << (ok() ? "clean" : "INCONSISTENT") << ": " << counters.mapped_lpns
     << " mapped lpns, " << counters.roots_found << " roots ("
     << counters.root_fallbacks << " fallbacks), "
     << counters.committed_entries << " committed / "
     << counters.active_entries << " active / "
     << counters.in_doubt_entries << " in-doubt X-L2P entries, "
     << counters.commit_records << " commit records ("
     << counters.snapshots_skipped << " torn epochs), "
     << counters.torn_meta_pages << " torn meta pages, "
     << counters.persisted_bad_blocks << " persisted bad blocks, "
     << counters.post_root_pages << " post-root pages";
  for (const std::string& e : errors) os << "\n  error: " << e;
  return os.str();
}

FsckReport CheckImage(const flash::FlashDevice& dev, const FsckOptions& opt) {
  FsckReport rep;
  DeriveAndCheck(dev, opt, &rep);
  return rep;
}

FsckReport CheckRecovered(const flash::FlashDevice& dev,
                          const FsckOptions& opt, const ftl::PageFtl& ftl) {
  FsckReport rep;
  Derived d = DeriveAndCheck(dev, opt, &rep);

  const flash::FlashConfig& fc = dev.config();
  // The recovered FTL must have picked the same checkpoint and snapshot.
  if (ftl.last_root_seq() != d.root_seq) {
    AddError(&rep, "recovered FTL loaded root seq " +
                       std::to_string(ftl.last_root_seq()) +
                       ", image derives " + std::to_string(d.root_seq));
  }
  const auto* xftl = dynamic_cast<const ftl::XFtl*>(&ftl);
  if (xftl != nullptr && xftl->complete_snapshot_id() != d.snapshot_id) {
    AddError(&rep, "recovered X-FTL loaded snapshot " +
                       std::to_string(xftl->complete_snapshot_id()) +
                       ", image derives " + std::to_string(d.snapshot_id));
  }
  // The recovered FTL must have arrived at the same table.
  std::vector<uint32_t> valid_per_block(fc.num_blocks, 0);
  for (uint64_t lpn = 0; lpn < d.l2p.size(); ++lpn) {
    flash::Ppn derived = d.l2p[lpn];
    flash::Ppn actual = ftl.MappingOf(lpn);
    if (derived != actual) {
      AddError(&rep, "lpn " + std::to_string(lpn) + ": recovered FTL maps " +
                         std::to_string(actual) + ", image derives " +
                         std::to_string(derived));
    }
    if (derived != flash::kInvalidPpn && derived < fc.TotalPages()) {
      valid_per_block[fc.BlockOf(derived)]++;
    }
  }
  // In-doubt pages recovery keeps valid without mapping them: both versions
  // of a PREPARED transaction stay alive until the array resolves it.
  for (flash::Ppn ppn : d.retained_in_doubt) {
    if (ppn < fc.TotalPages()) valid_per_block[fc.BlockOf(ppn)]++;
  }
  // Invariant 3: GC validity accounting agrees with the union of the
  // mapping tables.
  for (flash::BlockNum b = opt.ftl.meta_blocks; b < fc.num_blocks; ++b) {
    uint32_t actual = ftl.BlockValidCount(b);
    if (actual != valid_per_block[b]) {
      AddError(&rep, "block " + std::to_string(b) + ": FTL counts " +
                         std::to_string(actual) + " valid pages, tables say " +
                         std::to_string(valid_per_block[b]));
    }
  }
  // Bad-block agreement, both directions: everything the device reports bad
  // must be known to the FTL after recovery, and the FTL must not invent
  // bad blocks the device never failed.
  std::set<flash::BlockNum> ftl_bad(ftl.bad_blocks().begin(),
                                    ftl.bad_blocks().end());
  for (flash::BlockNum b = 0; b < fc.num_blocks; ++b) {
    if (dev.IsBadBlock(b) && ftl_bad.count(b) == 0) {
      AddError(&rep, "device-bad block " + std::to_string(b) +
                         " unknown to the recovered FTL");
    }
  }
  for (flash::BlockNum b : ftl_bad) {
    if (b >= fc.num_blocks || !dev.IsBadBlock(b)) {
      AddError(&rep, "FTL bad block " + std::to_string(b) +
                         " is not reported bad by the device");
    }
  }
  return rep;
}

FsckReport CheckArray(const std::vector<LoadedImage>& members) {
  FsckReport rep;
  if (members.empty()) {
    AddError(&rep, "array check needs at least one image");
    return rep;
  }

  // --- stripe bijection: the member set must cover {0..N-1} exactly, with
  // identical geometry, or the stripe map is not a bijection.
  const ImageParams& ref = members[0].params;
  const flash::FlashConfig& refc = members[0].config;
  std::vector<const LoadedImage*> by_index(ref.num_devices, nullptr);
  for (size_t i = 0; i < members.size(); ++i) {
    const LoadedImage& m = members[i];
    std::string who = "image " + std::to_string(i);
    if (m.params.num_devices != ref.num_devices) {
      AddError(&rep, who + ": claims " + std::to_string(m.params.num_devices) +
                         " devices, image 0 claims " +
                         std::to_string(ref.num_devices));
      continue;
    }
    if (m.params.stripe_pages != ref.stripe_pages ||
        m.params.num_logical_pages != ref.num_logical_pages ||
        m.params.meta_blocks != ref.meta_blocks ||
        m.params.transactional != ref.transactional ||
        m.config.page_size != refc.page_size ||
        m.config.pages_per_block != refc.pages_per_block ||
        m.config.num_blocks != refc.num_blocks) {
      AddError(&rep, who + ": geometry differs from image 0");
      continue;
    }
    if (m.params.device_index >= ref.num_devices) {
      AddError(&rep, who + ": device index " +
                         std::to_string(m.params.device_index) +
                         " out of range for " +
                         std::to_string(ref.num_devices) + " devices");
      continue;
    }
    if (by_index[m.params.device_index] != nullptr) {
      AddError(&rep, who + ": duplicate device index " +
                         std::to_string(m.params.device_index));
      continue;
    }
    by_index[m.params.device_index] = &m;
  }
  for (uint32_t i = 0; i < ref.num_devices; ++i) {
    if (by_index[i] == nullptr) {
      AddError(&rep, "member " + std::to_string(i) + " missing from the set");
    }
  }
  if (members.size() != ref.num_devices) {
    AddError(&rep, "got " + std::to_string(members.size()) +
                       " images for a " + std::to_string(ref.num_devices) +
                       "-device array");
  }
  if (!rep.ok()) return rep;  // per-member derivation needs a sane set

  // --- per-member epoch consistency: every member must individually pass
  // the single-image checks; their counters aggregate into the report.
  std::vector<Derived> derived;
  derived.reserve(ref.num_devices);
  for (uint32_t i = 0; i < ref.num_devices; ++i) {
    const LoadedImage& m = *by_index[i];
    FsckOptions opt;
    opt.ftl.meta_blocks = m.params.meta_blocks;
    opt.ftl.num_logical_pages = m.params.num_logical_pages;
    opt.transactional = m.params.transactional;
    FsckReport mrep;
    Derived d = DeriveAndCheck(*m.dev, opt, &mrep);
    for (const std::string& e : mrep.errors) {
      AddError(&rep, "member " + std::to_string(i) + ": " + e);
    }
    rep.counters.roots_found += mrep.counters.roots_found;
    rep.counters.root_fallbacks += mrep.counters.root_fallbacks;
    rep.counters.torn_meta_pages += mrep.counters.torn_meta_pages;
    rep.counters.snapshots_skipped += mrep.counters.snapshots_skipped;
    rep.counters.mapped_lpns += mrep.counters.mapped_lpns;
    rep.counters.committed_entries += mrep.counters.committed_entries;
    rep.counters.active_entries += mrep.counters.active_entries;
    rep.counters.in_doubt_entries += mrep.counters.in_doubt_entries;
    rep.counters.commit_records += mrep.counters.commit_records;
    rep.counters.persisted_bad_blocks += mrep.counters.persisted_bad_blocks;
    rep.counters.post_root_pages += mrep.counters.post_root_pages;
    derived.push_back(std::move(d));
  }

  // --- cross-device atomicity. Commit records live only on the
  // coordinator (member 0). A transaction in doubt on one member while
  // durably committed on another needs the record: recovery resolves
  // in-doubt members by its presence, and without it the abort would tear a
  // transaction half the array already made visible.
  for (uint32_t i = 1; i < ref.num_devices; ++i) {
    for (uint32_t tid : derived[i].record_tids) {
      AddError(&rep, "member " + std::to_string(i) +
                         " holds a commit record for tid " +
                         std::to_string(tid) +
                         "; records belong on the coordinator (member 0)");
    }
  }
  const std::set<uint32_t>& records = derived[0].record_tids;
  for (uint32_t i = 0; i < ref.num_devices; ++i) {
    for (uint32_t tid : derived[i].in_doubt_tids) {
      if (records.count(tid) != 0) continue;  // will resolve forward
      for (uint32_t j = 0; j < ref.num_devices; ++j) {
        if (j == i) continue;
        if (derived[j].committed_tids.count(tid) != 0) {
          AddError(&rep, "tid " + std::to_string(tid) + " is in doubt on " +
                             "member " + std::to_string(i) +
                             " but committed on member " + std::to_string(j) +
                             " with no commit record: recovery would tear it");
        }
      }
    }
  }
  return rep;
}

}  // namespace xftl::check
