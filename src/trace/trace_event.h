// The event schema of the trace subsystem: one structured record per
// instrumented operation, tagged with the stack layer it happened in, the
// simulated time, the transaction id (when the layer has one), up to two
// addresses, the operation latency and the resulting status.
//
// The same schema serves three purposes:
//   * full-stack tracing (every layer records what it did and how long it
//     took, feeding per-layer latency histograms),
//   * device-command capture (the SATA-layer events alone are a complete
//     replayable record of what the host asked the drive to do), and
//   * offline analysis (tools/xftl_trace dump/summary).
#ifndef XFTL_TRACE_TRACE_EVENT_H_
#define XFTL_TRACE_TRACE_EVENT_H_

#include <cstdint>

#include "common/status.h"
#include "common/units.h"

namespace xftl::trace {

// Stack layer an event originated in, top to bottom.
enum class Layer : uint8_t {
  kSql = 0,    // sql/pager: transaction begin/commit/rollback, checkpoints
  kFs = 1,     // fs/ext_fs: fsync, ioctl-abort, sync
  kSata = 2,   // storage/sata_device: the host<->drive command stream
  kXftl = 3,   // xftl/xftl: extended transactional commands
  kFtl = 4,    // ftl/page_ftl: logical page ops, GC, mapping persistence
  kFlash = 5,  // flash/flash_device: raw page reads/programs, block erases
  kHost = 6,   // host/session: whole transactions as a session saw them
};
inline constexpr int kNumLayers = 7;
const char* LayerName(Layer layer);

// Operation verb. One shared namespace across layers; each layer uses the
// subset that makes sense for it.
enum class Op : uint8_t {
  kRead = 0,        // sata/ftl: logical read; flash: raw page read
  kWrite = 1,       // sata/ftl: logical write; flash: page program
  kTrim = 2,
  kFlush = 3,       // barrier (sata/ftl); fs: SyncAll
  kTxRead = 4,      // transactional command set (sata/xftl)
  kTxWrite = 5,
  kTxCommit = 6,
  kTxAbort = 7,
  kFsync = 8,       // fs layer
  kBegin = 9,       // sql layer
  kCommit = 10,     // sql layer
  kRollback = 11,   // sql layer
  kCheckpoint = 12, // sql layer (WAL)
  kGc = 13,         // ftl layer: one collected victim block
  kErase = 14,      // flash layer
  kRecover = 15,    // ftl/sql: post-crash recovery pass (ftl: a = pages the
                    //   OOB scan sensed, b = OOB reads the recovery issued)
  kLinkFault = 16,  // sata: one injected link fault (b = kind: 0 crc,
                    //   1 timeout, 2 abort; latency = backoff paid, if any)
  kLinkReset = 17,  // sata: NCQ error protocol pass (a = failed tag,
                    //   b = pages REDO-reissued)
  kDegrade = 18,    // sata: ladder transition (a = 1 enter qd=1 mode,
                    //   0 restore full depth, 2 link failed; b = resets)
  kTxn = 19,        // host: one whole application transaction as a session
                    //   saw it (a = txns completed by that session so far,
                    //   b = host-busy share of the latency)
  kTxPrepare = 20,  // sata/xftl: array two-phase commit prepare (a = entries)
  kCommitRecord = 21,  // xftl: coordinator commit record (a = 1 write,
                       //   0 release)
  kResolve = 22,    // sata/xftl: in-doubt resolution (a = 1 forward REDO,
                    //   0 abort; b = entries resolved)
  kMemberFault = 23,   // host: array member state change (a = member index,
                       //   b = 1 offline, 0 back online)
  kBarrier = 24,    // sata/fs/ftl: order-preserving barrier (no drain);
                    //   flash: barrier-ordering bookkeeping, discriminated
                    //   by b (0 = epoch opened, a = epoch id, tid = epochs
                    //   in flight; 1 = program stalled for order; 2 =
                    //   stalled for bank, a = ppn, latency = stall paid)
  kSnapPin = 25,    // sata/xftl: MVCC snapshot pin (b = epoch pinned)
  kSnapUnpin = 26,  // sata/xftl: MVCC snapshot unpin (b = epoch released)
  kSnapRead = 27,   // sata/xftl: snapshot read (a = lpn, b = 1 when served
                    //   from a retained pre-image, 0 from the live L2P)
  kSnapDefer = 28,  // xftl: a release scan kept committed slots alive for a
                    //   pinned snapshot (a = slots deferred, b = oldest pin)
  kRecoverBlocks = 29,  // ftl: block split of a power-on scan, recorded with
                        //   its kRecover (a = programmed data blocks trusted
                        //   from the loaded checkpoint, b = blocks scanned as
                        //   written after it, tid = partial blocks resumed)
};
inline constexpr int kNumOps = 30;
const char* OpName(Op op);

// One trace record. Field meaning by layer:
//   a: lpn (sata/ftl/xftl), ppn or block (flash: kErase/kGc), pgno (sql),
//      inode (fs).
//   b: secondary address/size — resulting ppn (ftl), valid pages moved (gc),
//      dirty pages committed (sql/fs), frames checkpointed (sql), NCQ queue
//      occupancy after submit (sata kWrite/kTxWrite).
//   tid: transaction id; at the flash layer it carries the bank number
//      instead (flash has no transactions, and per-bank attribution is what
//      the queued-command pipeline analysis needs).
struct TraceEvent {
  SimNanos time = 0;        // simulated time at operation start
  Layer layer = Layer::kSql;
  Op op = Op::kRead;
  uint32_t tid = 0;         // transaction id; 0 = untagged
  uint32_t sid = 0;         // host session id; 0 = single-session / untagged
  uint64_t a = 0;
  uint64_t b = 0;
  SimNanos latency = 0;     // simulated nanoseconds the operation took
  StatusCode status = StatusCode::kOk;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

}  // namespace xftl::trace

#endif  // XFTL_TRACE_TRACE_EVENT_H_
