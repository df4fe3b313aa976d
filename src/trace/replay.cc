#include "trace/replay.h"

#include <unordered_map>
#include <vector>

#include "common/coding.h"

namespace xftl::trace {

namespace {

// Deterministic page image for a replayed write: the capture records
// addresses, not payloads, so replay fills each page from (lpn, ordinal)
// with a splitmix64-style mix. Any two replays of one trace produce the
// same bytes.
void FillPage(uint64_t lpn, uint64_t ordinal, std::vector<uint8_t>* page) {
  uint64_t x = lpn * 0x9e3779b97f4a7c15ull + ordinal + 1;
  for (size_t off = 0; off + 8 <= page->size(); off += 8) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    EncodeFixed64(page->data() + off, x);
  }
}

}  // namespace

StatusOr<ReplayResult> ReplayTrace(const std::string& path,
                                   const storage::SsdSpec& spec) {
  XFTL_ASSIGN_OR_RETURN(auto reader, TraceReader::Open(path));

  SimClock clock;
  storage::SimSsd ssd(spec, &clock);
  storage::SataDevice* dev = ssd.device();

  ReplayResult r;
  std::vector<uint8_t> page(dev->page_size());
  // Snapshot epochs are device-assigned, so the replayed device may hand out
  // different numbers than the captured run (e.g. when replaying against a
  // different FTL). Map captured epoch -> replayed epoch at each pin.
  std::unordered_map<uint64_t, uint64_t> epoch_map;
  uint64_t ordinal = 0;
  TraceEvent e;
  while (reader->Next(&e)) {
    if (e.layer != Layer::kSata) continue;
    ordinal++;
    Status s;
    switch (e.op) {
      case Op::kRead:
        r.reads++;
        s = dev->Read(e.a, page.data());
        break;
      case Op::kTxRead:
        r.reads++;
        s = dev->TxRead(e.tid, e.a, page.data());
        break;
      case Op::kWrite:
        r.writes++;
        FillPage(e.a, ordinal, &page);
        s = dev->Write(e.a, page.data());
        break;
      case Op::kTxWrite:
        r.writes++;
        FillPage(e.a, ordinal, &page);
        s = dev->TxWrite(e.tid, e.a, page.data());
        break;
      case Op::kTrim:
        r.trims++;
        s = dev->Trim(e.a);
        break;
      case Op::kFlush:
        r.flushes++;
        // `a` = 1 marks the completion-wait flavor (AwaitDurable): under
        // barrier firmware a plain FlushBarrier would replay order-only and
        // diverge from the captured run.
        s = e.a == 1 ? dev->AwaitDurable() : dev->FlushBarrier();
        break;
      case Op::kBarrier:
        // Captured from a FlushBarrier that barrier firmware served
        // order-only; the replay drive's firmware does the same.
        r.flushes++;
        s = dev->FlushBarrier();
        break;
      case Op::kTxCommit:
        r.commits++;
        s = dev->TxCommit(e.tid);
        break;
      case Op::kTxAbort:
        if (!dev->SupportsTransactions()) {
          // The original FTL has no rollback verb; the host-side journal
          // would have handled this. Nothing to re-issue.
          r.skipped++;
          continue;
        }
        r.aborts++;
        s = dev->TxAbort(e.tid);
        break;
      case Op::kSnapPin: {
        if (!dev->SupportsSnapshots()) {
          r.skipped++;
          continue;
        }
        r.snap_pins++;
        auto pin = dev->SnapPin();
        s = pin.status();
        if (s.ok()) epoch_map[e.b] = pin.value();
        break;
      }
      case Op::kSnapUnpin: {
        if (!dev->SupportsSnapshots()) {
          r.skipped++;
          continue;
        }
        r.snap_pins++;
        auto it = epoch_map.find(e.b);
        s = dev->SnapUnpin(it != epoch_map.end() ? it->second : e.b);
        if (it != epoch_map.end()) epoch_map.erase(it);
        break;
      }
      case Op::kSnapRead: {
        if (!dev->SupportsSnapshots()) {
          r.skipped++;
          continue;
        }
        r.reads++;
        auto it = epoch_map.find(e.b);
        s = dev->SnapRead(it != epoch_map.end() ? it->second : e.b, e.a,
                          page.data());
        break;
      }
      case Op::kLinkFault:
      case Op::kLinkReset:
      case Op::kDegrade:
        // Link-fault bookkeeping from the captured run, not host commands.
        // The replayed device has its own (possibly empty) fault model; what
        // must match between replays is the command stream above, which
        // already includes the captured run's REDO reissues as plain writes.
        r.skipped++;
        continue;
      default:
        // Not a device command (should not appear at the sata layer).
        r.skipped++;
        continue;
    }
    if (!s.ok()) r.errors++;
  }
  r.truncated = reader->truncated();
  r.elapsed = clock.Now();
  r.ftl = ssd.ftl()->stats();
  r.flash = ssd.flash()->stats();
  r.sata = dev->stats();
  return r;
}

}  // namespace xftl::trace
