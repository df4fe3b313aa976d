// SataDevice models the host <-> SSD boundary: every command pays a fixed
// command overhead plus per-page transfer time over the link, then executes
// on the FTL. The paper's extended commands (read/write with a transaction
// id, commit, abort) travel the same wire; commit and abort are encoded in
// the parameter set of trim commands, exactly as §5.2 describes for SATA.
//
// Write commands are queued NCQ-style: a write returns to the host as soon
// as its data crossed the link and the FTL accepted it; the device-side
// program drains in the background. The host stalls only when all
// `ncq_depth` queue slots are occupied (it then waits for the EARLIEST
// completion, so commands retire out of submission order) or at a barrier,
// which drains the whole queue. Reads stay synchronous: their latency is
// data-dependent and the flash layer already serializes them against
// in-flight programs on the same bank. ncq_depth = 1 reproduces the legacy
// fully synchronous front-end.
//
// Link faults (LinkFaultModel, seeded, scripted + probabilistic) model the
// transient failures a real SATA link suffers, composable with the flash
// layer's NAND FaultModel:
//   * CRC transfer errors — a data FIS is corrupted on the wire. The device
//     detects it and rejects the frame, so the data never reaches the FTL;
//     for a batch, pages that crossed before the bad frame ARE accepted and
//     only the unacknowledged suffix retransfers. Detected at submit.
//   * command timeouts — a queued tag's completion FIS is lost; the host
//     only notices when the command's deadline expires at a wait point.
//   * spurious device aborts — the device raises an error for a queued tag,
//     which (per the NCQ protocol) aborts the whole queue.
//
// Recovery follows the NCQ error protocol: on a failed tag the device
// aborts the queue, the host reads the error log (one small read command)
// to learn which tags completed, and reissues the killed ones exactly once
// from host-held copies — REDO-only: data is retained host-side until its
// completion is seen, and a reissue of the same (lpn, data) is idempotent
// through the FTL's copy-on-write path. The host escalates through a
// degradation ladder, every transition counted in SataStats and traced:
//   retry (bounded exponential backoff) -> link reset + queue rebuild ->
//   degraded qd=1 synchronous mode (restored after a clean probation) ->
//   link failed (writes rejected, reads still served — composing with the
//   FTL's read-only degradation).
// A queued write whose reissue exhausts every rung is an acknowledged write
// lost in the background: it latches an errseq-style deferred error that
// fails the NEXT FlushBarrier/TxCommit, never silently dropped.
//
// Order-preserving barriers (ftl::CommitMode::kBarrier firmware): the host
// issues the same FlushBarrier on every drive, and the firmware alone
// decides what it means. On barrier firmware it bumps the host's epoch
// counter, passes an ordered-flush verb down to the FTL (which fences the
// flash program scheduler — epoch membership lives there, not per queued
// tag) and returns without draining the queue, so the pipeline stays full
// across fsync points. TxCommit/TxPrepare are order-only too; a deferred
// background loss surfaces at the first flush or commit of the next epoch.
// AwaitDurable() keeps the classic completion-wait semantics for the callers
// that genuinely need the result in the cells (the array controller's 2PC
// commit record and its multi-member flushes).
#ifndef XFTL_STORAGE_SATA_DEVICE_H_
#define XFTL_STORAGE_SATA_DEVICE_H_

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "storage/block_device.h"
#include "trace/tracer.h"
#include "xftl/xftl.h"

namespace xftl::storage {

struct SataTimings {
  // Command issue, DMA setup and completion interrupt.
  SimNanos command_overhead = Micros(20);
  // Moving one 8 KB page across the link (SATA 2.0, ~300 MB/s).
  SimNanos transfer_per_page = Micros(27);
  // Native-command-queuing slots for writes (SATA NCQ tops out at 32).
  uint32_t ncq_depth = 32;
};

// Transient-fault model of the host<->device link. Probabilities apply
// independently (CRC per page transferred, timeout/abort per queued
// command); deterministic scripted injection (ScriptCrcError /
// ScriptTimeout / ScriptDeviceAbort) composes with them. Everything is
// drawn from `seed`, so a faulty run is reproducible.
struct LinkFaultModel {
  double crc_error_prob = 0.0;  // per page moved across the link
  double timeout_prob = 0.0;    // per queued command: completion FIS lost
  double abort_prob = 0.0;      // per queued command: spurious device abort
  uint64_t seed = 0x5a7a11;
};

// Host-side recovery policy: how hard the host fights before escalating a
// rung on the degradation ladder. The retry backoff and the queued-command
// deadline are fixed (SataDevice's kBackoffBase and kCommandDeadline).
struct LinkRecoveryPolicy {
  // Inline re-transfers per command before the submit fails.
  uint32_t max_retries = 4;
  // Consecutive link resets before dropping to qd=1 synchronous mode.
  uint32_t degrade_after_resets = 3;
  // Consecutive resets before the link is declared dead (writes rejected).
  uint32_t fail_after_resets = 12;
  // Clean commands in degraded mode before full queue depth is restored.
  uint64_t reprobe_after = 256;
};

struct SataStats {
  uint64_t read_commands = 0;
  // Host pages written through the front-end (a batch of n counts n here
  // and 1 in batch_commands).
  uint64_t write_commands = 0;
  uint64_t trim_commands = 0;
  uint64_t barrier_commands = 0;
  // Extended-parameter trims carrying commit/abort (paper §5.2).
  uint64_t commit_commands = 0;
  uint64_t abort_commands = 0;
  // --- array two-phase commit (extended trims, like commit/abort) ----------
  uint64_t prepare_commands = 0;        // durable PREPARE markings
  uint64_t commit_record_commands = 0;  // coordinator record writes+releases
  uint64_t resolve_commands = 0;        // in-doubt resolutions after reboot
  // --- queued-command accounting -----------------------------------------
  uint64_t queued_commands = 0;    // writes accepted into an NCQ slot
  uint64_t queue_full_stalls = 0;  // submits that had to wait for a slot
  uint64_t batch_commands = 0;     // WriteBatch/TxWriteBatch wire commands
  uint64_t batched_pages = 0;      // pages moved by those batches
  // --- link faults and NCQ error recovery ---------------------------------
  uint64_t crc_errors = 0;        // CRC-rejected transfers (submit side)
  uint64_t command_timeouts = 0;  // queued tags whose completion was lost
  uint64_t device_aborts = 0;     // spurious device-side tag errors
  uint64_t link_retries = 0;      // inline re-transfers after a CRC error
  uint64_t link_resets = 0;       // queue aborts + error-log reads + rebuilds
  uint64_t aborted_tags = 0;      // in-flight tags killed by a queue abort
  uint64_t reissued_commands = 0; // REDO reissues of killed tags
  uint64_t reissued_pages = 0;    // pages those reissues carried
  uint64_t backoff_nanos = 0;     // simulated time spent backing off
  uint64_t degraded_entries = 0;  // transitions into qd=1 synchronous mode
  uint64_t degraded_exits = 0;    // probation passed, full depth restored
  uint64_t link_failures = 0;     // final rung: writes rejected for good
  // Acknowledged writes lost in the background (errseq-style latch).
  uint64_t deferred_errors = 0;           // failures latched
  uint64_t deferred_errors_reported = 0;  // surfaced at a barrier/commit
  // In-flight NCQ state dropped by a power cut (ResetVolatile).
  uint64_t dropped_on_power_cut = 0;        // tags
  uint64_t dropped_pages_on_power_cut = 0;  // pages those tags carried
  // --- MVCC snapshot reads (extended commands) -----------------------------
  uint64_t snap_pin_commands = 0;    // pins opened on the device
  uint64_t snap_unpin_commands = 0;  // pins released
  uint64_t snap_read_commands = 0;   // version-aware page reads

  // Every counter, for AddCounters and CounterDelta.
  static constexpr std::array kCounters = {
      &SataStats::read_commands,
      &SataStats::write_commands,
      &SataStats::trim_commands,
      &SataStats::barrier_commands,
      &SataStats::commit_commands,
      &SataStats::abort_commands,
      &SataStats::prepare_commands,
      &SataStats::commit_record_commands,
      &SataStats::resolve_commands,
      &SataStats::queued_commands,
      &SataStats::queue_full_stalls,
      &SataStats::batch_commands,
      &SataStats::batched_pages,
      &SataStats::crc_errors,
      &SataStats::command_timeouts,
      &SataStats::device_aborts,
      &SataStats::link_retries,
      &SataStats::link_resets,
      &SataStats::aborted_tags,
      &SataStats::reissued_commands,
      &SataStats::reissued_pages,
      &SataStats::backoff_nanos,
      &SataStats::degraded_entries,
      &SataStats::degraded_exits,
      &SataStats::link_failures,
      &SataStats::deferred_errors,
      &SataStats::deferred_errors_reported,
      &SataStats::dropped_on_power_cut,
      &SataStats::dropped_pages_on_power_cut,
      &SataStats::snap_pin_commands,
      &SataStats::snap_unpin_commands,
      &SataStats::snap_read_commands,
  };
};
static_assert(ListsEveryCounter<SataStats>());

class SataDevice : public TxBlockDevice {
 public:
  // `ftl` must outlive this device. If it is an XFtl, the transactional
  // command set is available; otherwise Tx* commands degrade (TxRead/TxWrite
  // act untagged, TxCommit acts as a barrier, TxAbort fails).
  SataDevice(ftl::PageFtl* ftl, const SataTimings& timings,
             SimClock* clock, const LinkFaultModel& fault = {},
             const LinkRecoveryPolicy& policy = {});

  uint32_t page_size() const override { return ftl_->page_size(); }
  uint64_t num_pages() const override { return ftl_->num_logical_pages(); }

  Status Read(uint64_t page, uint8_t* data) override;
  Status Write(uint64_t page, const uint8_t* data) override;
  Status WriteBatch(const uint64_t* pages, const uint8_t* const* datas,
                    size_t n, size_t* accepted = nullptr) override;
  Status Trim(uint64_t page) override;
  // Drains the queue and runs a full FTL flush; on kBarrier firmware it is
  // order-only instead (see header comment).
  Status FlushBarrier() override;
  // Completion-wait durability point regardless of commit mode: drains the
  // queue, surfaces any deferred error, and runs a full FTL flush. Under
  // kBarrier firmware FlushBarrier and the commit verbs are order-only;
  // callers that must have the bits in the cells before proceeding (2PC
  // commit records) use this instead.
  Status AwaitDurable();

  bool SupportsTransactions() const override { return xftl_ != nullptr; }
  Status TxRead(TxId t, uint64_t page, uint8_t* data) override;
  Status TxWrite(TxId t, uint64_t page, const uint8_t* data) override;
  Status TxWriteBatch(TxId t, const uint64_t* pages,
                      const uint8_t* const* datas, size_t n,
                      size_t* accepted = nullptr) override;
  Status TxCommit(TxId t) override;
  Status TxAbort(TxId t) override;

  // --- array two-phase commit ----------------------------------------------
  // The cross-device commands host::StripedVolume uses to commit one
  // transaction atomically across members. They travel the wire as extended
  // trims, exactly like commit/abort. All require a transactional FTL.
  // Phase 1: durably retain both versions of `t`'s pages (XFtl::TxPrepare).
  // Pays the same barrier discipline as TxCommit (drain, or PLP poll).
  Status TxPrepare(TxId t);
  // Coordinator-only commit record (write / release). Queries are free: they
  // read controller DRAM, no wire command.
  Status WriteCommitRecord(TxId t);
  Status ReleaseCommitRecord(TxId t);
  bool HasCommitRecord(TxId t) const;
  std::vector<TxId> CommitRecords() const;
  std::vector<TxId> InDoubtTransactions() const;
  // Post-reboot resolution of an in-doubt transaction (REDO forward when
  // `commit`, abort to the pre-image otherwise). Idempotent per member.
  Status ResolveInDoubt(TxId t, bool commit);

  // --- MVCC snapshot reads -------------------------------------------------
  // Pin/unpin travel the wire as extended trims (like commit/abort); the
  // snapshot read is a read command with the epoch in the parameter set.
  // All require a transactional FTL with version retention.
  bool SupportsSnapshots() const override { return xftl_ != nullptr; }
  StatusOr<uint64_t> SnapPin() override;
  Status SnapUnpin(uint64_t epoch) override;
  Status SnapRead(uint64_t epoch, uint64_t page, uint8_t* data) override;

  // --- NCQ observability ---------------------------------------------------
  // Writes whose device-side program has not yet drained at the current
  // simulated time (lazy: retires completed slots first, but never triggers
  // error recovery — safe to call on a dead device).
  size_t InflightCommands();
  uint32_t queue_depth() const { return timings_.ncq_depth; }
  // Waits for every queued command to complete, running the NCQ error
  // protocol on any tag that faults along the way. FlushBarrier/TxCommit do
  // this implicitly on drain firmware; exposed for tests and workloads that
  // want a quiesce point without paying a full mapping-table flush.
  void DrainQueue();

  // --- link-fault injection ------------------------------------------------
  // One-shot scripted faults, composing with the probabilistic model:
  // the `countdown`-th page transferred from now is CRC-corrupted (1 = the
  // very next transfer)…
  void ScriptCrcError(uint64_t countdown);
  // …or the `countdown`-th command accepted into an NCQ slot from now loses
  // its completion / is spuriously aborted by the device.
  void ScriptTimeout(uint64_t countdown);
  void ScriptDeviceAbort(uint64_t countdown);

  // Degradation-ladder state (see header comment).
  bool degraded() const { return degraded_; }
  bool link_failed() const { return link_failed_; }
  // Pending errseq-style error from an acknowledged write lost in the
  // background; the next FlushBarrier/TxCommit will report and clear it.
  bool has_deferred_error() const { return !deferred_error_.ok(); }

  const SataStats& stats() const { return stats_; }
  ftl::PageFtl* ftl() const { return ftl_; }
  ftl::CommitMode commit_mode() const { return ftl_->commit_mode(); }

  // Transactions with at least one write issued and no commit/abort yet.
  // This is volatile front-end state: it does not survive a power cycle.
  const std::set<TxId>& open_transactions() const { return open_txns_; }
  // Drops all volatile front-end state: in-flight transaction ids, the
  // command queue (counted in dropped_on_power_cut /
  // dropped_pages_on_power_cut), the deferred-error latch and the
  // degradation-ladder state (a reboot re-trains the link). Called by
  // SimSsd::PowerCycle(); the FTL learns the same fact from recovery, which
  // discards the uncommitted pages those transactions wrote.
  void ResetVolatile();

  // Optional command tracing; kSata events are the capture stream a
  // TraceReplayer re-drives. Null disables.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  trace::Tracer* tracer() const { return tracer_; }

 private:
  // How a queued tag will end: sampled at enqueue, discovered by the host
  // when the completion (or its absence) becomes visible.
  enum class TagFate : uint8_t { kClean, kTimeout, kAbort };
  // Fault kinds as recorded in the `b` field of kLinkFault trace events.
  enum LinkFaultKind : uint64_t { kCrc = 0, kTimeoutKind = 1, kAbortKind = 2 };

  struct InflightCmd {
    SimNanos submitted = 0;
    SimNanos done = 0;  // device-side completion time
    TagFate fate = TagFate::kClean;
    TxId txn = ftl::kNoTx;
    std::vector<uint64_t> pages;
    // Host-held page images (REDO source), pages.size() * page_size bytes.
    std::vector<uint8_t> data;
  };

  void ChargeCommand(bool with_transfer);
  // Records a host-visible command ending now (issue at `t0`, so the
  // latency spans link transfer plus FTL execution). `occupancy` lands in
  // the event's `b` field; for writes it is the queue depth in use at
  // completion, for kLinkFault the fault kind, for kLinkReset the reissued
  // page count, for kDegrade the new mode (1 enter qd=1, 0 restore, 2 link
  // failed); 0 for everything else.
  void Note(trace::Op op, SimNanos t0, TxId t, uint64_t page, StatusCode code,
            uint64_t occupancy = 0);
  // Fails fast once the final ladder rung rejected the link for writes.
  Status CheckLink() const;
  // Synchronous read with CRC retransfer retries (bounded backoff): runs the
  // device-side `read` once per attempt; `t` and `page` label the
  // kLinkFault events. Read CRC faults never climb the ladder: they say
  // nothing about queued-write loss, and reads must keep working under the
  // read-only degradations.
  template <typename DeviceRead>
  Status LinkRead(TxId t, uint64_t page, const DeviceRead& read);
  // Whether a non-data command first reports a latched deferred error
  // (errseq) instead of executing.
  enum Gate : bool { kUngated = false, kGated = true };
  // The one routine behind every non-data command (the trim-class verbs and
  // the flushes). `queue` orders the command against queued writes
  // (PollQueue, DrainQueue, OrderCommit; null = not at all), then it pays
  // one command overhead and counts once in its class (barrier_commands for
  // kFlush/kBarrier, trim_commands otherwise) and in `verb` (null = none).
  // `body` does the device work unless the gate fails first. One capture
  // event records (op, t, a, status) and `occupancy`, read after `body`.
  template <typename Body>
  Status NonData(trace::Op op, TxId t, uint64_t a,
                 void (SataDevice::*queue)(), Gate gate,
                 uint64_t SataStats::*verb, Body body,
                 const uint64_t& occupancy = 0);
  // NotSupported naming `verb` unless the FTL is an XFtl.
  Status RequireXftl(const char* verb) const;
  // The completion-wait flush behind FlushBarrier (drain/PLP firmware) and
  // AwaitDurable: drain the queue, surface any deferred error, full FTL
  // flush. The kFlush event's `a` is 1 for AwaitDurable, 0 otherwise.
  Status DrainAndFlush(bool await_durable);
  uint32_t EffectiveDepth() const { return degraded_ ? 1 : timings_.ncq_depth; }
  // True if the `countdown`-th transfer fault (scripted or sampled) fires.
  bool TransferFaults();
  TagFate SampleFate();
  // Host-visible event time of a queued tag: completion for clean tags,
  // error signal for aborts, deadline expiry for timeouts.
  SimNanos EventTime(const InflightCmd& cmd) const;
  bool Discoverable(const InflightCmd& cmd, SimNanos now) const;
  SimNanos NextQueueEvent() const;
  // Retires clean tags whose completion time has passed. Never recovers.
  void RetireClean();
  // RetireClean + run the NCQ error protocol on any discoverable fault.
  void PollQueue();
  // Blocks (advances the clock) until a queue slot is free under the
  // effective depth, polling faults along the way.
  void WaitForSlot();
  // The NCQ error protocol for the discoverable tag `failed_tag`: abort the
  // queue, read the error log, retire tags the log reports complete, and
  // REDO-reissue the killed ones from host-held data.
  void RecoverQueue(uint64_t failed_tag);
  // The one write command behind Write/WriteBatch/TxWrite/TxWriteBatch:
  // `n` pages cross the wire as a single queued command. `op` is the capture
  // op (kTxWrite only for a Tx* verb on a transactional drive, which also
  // records `t` as open); `batch` counts the command in batch_commands /
  // batched_pages. Stops at the first rejected page; `accepted` (optional)
  // reports the torn-batch boundary, and only the accepted pages occupy
  // the queue slot.
  Status SubmitWrite(trace::Op op, TxId t, const uint64_t* pages,
                     const uint8_t* const* datas, size_t n, size_t* accepted,
                     bool batch);
  // Wire + FTL submit of `n` pages as one command (or a retried suffix):
  // per-page CRC sampling, bounded exponential backoff, partial-acceptance
  // tracking. `*accepted` is the count of pages durably accepted by the FTL.
  Status SubmitPayload(TxId t, const uint64_t* pages,
                       const uint8_t* const* datas, size_t n,
                       size_t* accepted);
  // Hands the pages to the FTL one at a time (Write, or TxWrite under a
  // transaction), stopping at the first error; `*ftl_accepted` counts the
  // pages that took effect.
  Status ExecuteWrite(TxId t, const uint64_t* pages,
                      const uint8_t* const* datas, size_t n,
                      size_t* ftl_accepted);
  // Accounts a successful submit: occupies a slot until the flash
  // completion time reported by the FTL, holding the page images for REDO
  // and sampling the tag's fate. In degraded mode the write then completes
  // synchronously.
  void EnqueueCompletion(TxId t, const uint64_t* pages,
                         const uint8_t* const* datas, size_t n);
  void NoteCleanCommand();
  // Ladder rungs 2 and 3: qd=1 synchronous mode, then link failure.
  void EnterDegraded();
  void ExitDegraded();
  void EscalateLadder();
  // Latches an errseq-style error for an acknowledged write lost in the
  // background; reported (and cleared) by the next barrier/commit.
  void DeferError(const Status& s);
  Status TakeDeferredError();
  // The pre-commit queue discipline shared by TxCommit/TxPrepare: kDrain
  // waits for every queued write, kBarrier and kPlp only poll (the verb is
  // ordered behind them inside the controller).
  void OrderCommit();

  ftl::PageFtl* const ftl_;
  ftl::XFtl* const xftl_;  // non-null when ftl_ is transactional
  const SataTimings timings_;
  const LinkFaultModel fault_;
  const LinkRecoveryPolicy policy_;
  SimClock* const clock_;
  trace::Tracer* tracer_ = nullptr;
  SataStats stats_;
  std::set<TxId> open_txns_;
  // tag -> queued command. Tag order is submission order; completion order
  // is whatever the times say.
  std::map<uint64_t, InflightCmd> inflight_;
  uint64_t next_tag_ = 1;
  // lpn -> newest tag that wrote it (including already-retired tags). The
  // host consults this during queue recovery so a REDO reissue of an old
  // killed tag never rolls back a newer acknowledged write to the same lpn.
  std::unordered_map<uint64_t, uint64_t> last_write_tag_;
  // Link-fault state.
  Rng fault_rng_;
  std::vector<uint64_t> scripted_crc_;       // absolute transfer numbers
  std::vector<uint64_t> scripted_timeouts_;  // absolute enqueue numbers
  std::vector<uint64_t> scripted_aborts_;
  uint64_t transfer_ops_ = 0;
  uint64_t enqueue_ops_ = 0;
  // Barrier epoch counter (kBarrier firmware); bumped by every order-only
  // FlushBarrier and carried in its kBarrier event. Volatile: ResetVolatile
  // restarts it, and recovery re-derives ordering from what reached the
  // cells.
  uint64_t barrier_epoch_ = 0;
  // Degradation-ladder state.
  bool in_recovery_ = false;
  bool degraded_ = false;
  bool link_failed_ = false;
  uint32_t consecutive_resets_ = 0;
  uint64_t clean_streak_ = 0;
  Status deferred_error_;
};

}  // namespace xftl::storage

#endif  // XFTL_STORAGE_SATA_DEVICE_H_
