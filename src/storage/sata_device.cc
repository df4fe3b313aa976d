#include "storage/sata_device.h"

#include <algorithm>
#include <string>
#include <utility>

namespace xftl::storage {

namespace {

// Exponential backoff between link retries: kBackoffBase << attempt.
constexpr SimNanos kBackoffBase = Micros(50);
// A queued command with no completion after this long is timed out.
constexpr SimNanos kCommandDeadline = Millis(5);

// One-shot scripted fault lists hold absolute operation numbers; a match
// consumes the entry so each script fires exactly once.
bool Fires(std::vector<uint64_t>* scripted, uint64_t op) {
  auto it = std::find(scripted->begin(), scripted->end(), op);
  if (it == scripted->end()) return false;
  scripted->erase(it);
  return true;
}

}  // namespace

SataDevice::SataDevice(ftl::PageFtl* ftl, const SataTimings& timings,
                       SimClock* clock, const LinkFaultModel& fault,
                       const LinkRecoveryPolicy& policy)
    : ftl_(ftl),
      xftl_(dynamic_cast<ftl::XFtl*>(ftl)),
      timings_(timings),
      fault_(fault),
      policy_(policy),
      clock_(clock),
      fault_rng_(fault.seed) {
  CHECK(ftl_ != nullptr);
  CHECK(timings_.ncq_depth >= 1);
  CHECK(policy_.fail_after_resets > policy_.degrade_after_resets);
}

void SataDevice::ChargeCommand(bool with_transfer) {
  SimNanos cost = timings_.command_overhead;
  if (with_transfer) cost += timings_.transfer_per_page;
  clock_->Advance(cost);
}

void SataDevice::Note(trace::Op op, SimNanos t0, TxId t, uint64_t page,
                      StatusCode code, uint64_t occupancy) {
  if (tracer_ != nullptr) {
    tracer_->Record(trace::Layer::kSata, op, t0, static_cast<uint32_t>(t),
                    page, occupancy, clock_->Now() - t0, code);
  }
}

Status SataDevice::CheckLink() const {
  if (link_failed_) {
    return Status::IoError("SATA link failed: write commands rejected");
  }
  return Status::OK();
}

// --- link-fault sampling ---------------------------------------------------

void SataDevice::ScriptCrcError(uint64_t countdown) {
  CHECK(countdown >= 1);
  scripted_crc_.push_back(transfer_ops_ + countdown);
}

void SataDevice::ScriptTimeout(uint64_t countdown) {
  CHECK(countdown >= 1);
  scripted_timeouts_.push_back(enqueue_ops_ + countdown);
}

void SataDevice::ScriptDeviceAbort(uint64_t countdown) {
  CHECK(countdown >= 1);
  scripted_aborts_.push_back(enqueue_ops_ + countdown);
}

bool SataDevice::TransferFaults() {
  transfer_ops_++;
  if (Fires(&scripted_crc_, transfer_ops_)) return true;
  return fault_.crc_error_prob > 0 &&
         fault_rng_.Bernoulli(fault_.crc_error_prob);
}

SataDevice::TagFate SataDevice::SampleFate() {
  enqueue_ops_++;
  if (Fires(&scripted_timeouts_, enqueue_ops_)) return TagFate::kTimeout;
  if (Fires(&scripted_aborts_, enqueue_ops_)) return TagFate::kAbort;
  if (fault_.timeout_prob > 0 && fault_rng_.Bernoulli(fault_.timeout_prob)) {
    return TagFate::kTimeout;
  }
  if (fault_.abort_prob > 0 && fault_rng_.Bernoulli(fault_.abort_prob)) {
    return TagFate::kAbort;
  }
  return TagFate::kClean;
}

// --- queue bookkeeping -----------------------------------------------------

SimNanos SataDevice::EventTime(const InflightCmd& cmd) const {
  // A timed-out tag has no completion FIS: the host only sees its deadline
  // expire. Aborts surface when the device would have finished the command.
  if (cmd.fate == TagFate::kTimeout) {
    return cmd.submitted + kCommandDeadline;
  }
  return cmd.done;
}

bool SataDevice::Discoverable(const InflightCmd& cmd, SimNanos now) const {
  return cmd.fate != TagFate::kClean && EventTime(cmd) <= now;
}

SimNanos SataDevice::NextQueueEvent() const {
  CHECK(!inflight_.empty());
  SimNanos earliest = EventTime(inflight_.begin()->second);
  for (const auto& [tag, cmd] : inflight_) {
    earliest = std::min(earliest, EventTime(cmd));
  }
  return earliest;
}

void SataDevice::RetireClean() {
  SimNanos now = clock_->Now();
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->second.fate == TagFate::kClean && it->second.done <= now) {
      it = inflight_.erase(it);
    } else {
      ++it;
    }
  }
}

void SataDevice::PollQueue() {
  RetireClean();
  if (in_recovery_) return;
  bool again = true;
  while (again) {
    again = false;
    for (const auto& [tag, cmd] : inflight_) {
      if (Discoverable(cmd, clock_->Now())) {
        RecoverQueue(tag);
        RetireClean();
        again = true;
        break;
      }
    }
  }
}

void SataDevice::WaitForSlot() {
  PollQueue();
  if (inflight_.size() < EffectiveDepth()) return;
  // Queue full: wait for the EARLIEST host-visible event among the queued
  // commands, whatever its submission order - this is what makes completion
  // out-of-order. After PollQueue every remaining event is in the future,
  // so each pass advances the clock.
  stats_.queue_full_stalls++;
  while (inflight_.size() >= EffectiveDepth()) {
    clock_->AdvanceTo(NextQueueEvent());
    PollQueue();
  }
}

void SataDevice::DrainQueue() {
  PollQueue();
  while (!inflight_.empty()) {
    clock_->AdvanceTo(NextQueueEvent());
    PollQueue();
  }
}

size_t SataDevice::InflightCommands() {
  // Deliberately no PollQueue: callers (the crash sweep in particular) read
  // this on a device that may already be dead, and observation must not
  // kick off recovery I/O.
  RetireClean();
  return inflight_.size();
}

void SataDevice::EnqueueCompletion(TxId t, const uint64_t* pages,
                                   const uint8_t* const* datas, size_t n) {
  stats_.queued_commands++;
  InflightCmd cmd;
  cmd.submitted = clock_->Now();
  cmd.done = ftl_->LastCompletionTime();
  cmd.txn = t;
  cmd.fate = SampleFate();
  cmd.pages.assign(pages, pages + n);
  const uint32_t psz = ftl_->page_size();
  cmd.data.resize(size_t{n} * psz);
  for (size_t i = 0; i < n; ++i) {
    std::copy(datas[i], datas[i] + psz, cmd.data.begin() + i * psz);
  }
  for (size_t i = 0; i < n; ++i) last_write_tag_[pages[i]] = next_tag_;
  inflight_[next_tag_++] = std::move(cmd);
  // Degraded rung: qd=1 synchronous mode - the command (and any fault it
  // suffers) resolves before the submit returns. Recovery's own reissues
  // are drained by the enclosing Wait/Drain loop instead.
  if (degraded_ && !in_recovery_) DrainQueue();
}

// --- degradation ladder ----------------------------------------------------

void SataDevice::NoteCleanCommand() {
  if (in_recovery_) return;
  clean_streak_++;
  if (degraded_) {
    if (!link_failed_ && clean_streak_ >= policy_.reprobe_after) {
      ExitDegraded();
    }
  } else if (clean_streak_ >= 32) {
    // A healthy stretch forgives past resets so isolated faults spread over
    // a long run do not creep toward degradation.
    consecutive_resets_ = 0;
  }
}

void SataDevice::EnterDegraded() {
  degraded_ = true;
  clean_streak_ = 0;
  stats_.degraded_entries++;
  Note(trace::Op::kDegrade, clock_->Now(), ftl::kNoTx, 1, StatusCode::kOk,
       consecutive_resets_);
}

void SataDevice::ExitDegraded() {
  degraded_ = false;
  consecutive_resets_ = 0;
  clean_streak_ = 0;
  stats_.degraded_exits++;
  Note(trace::Op::kDegrade, clock_->Now(), ftl::kNoTx, 0, StatusCode::kOk, 0);
}

void SataDevice::EscalateLadder() {
  if (!degraded_) {
    EnterDegraded();
  } else if (!link_failed_) {
    link_failed_ = true;
    stats_.link_failures++;
    Note(trace::Op::kDegrade, clock_->Now(), ftl::kNoTx, 2,
         StatusCode::kIoError, consecutive_resets_);
  }
}

void SataDevice::DeferError(const Status& s) {
  stats_.deferred_errors++;
  if (deferred_error_.ok()) deferred_error_ = s;
}

Status SataDevice::TakeDeferredError() {
  if (deferred_error_.ok()) return Status::OK();
  stats_.deferred_errors_reported++;
  Status s = deferred_error_;
  deferred_error_ = Status::OK();
  return s;
}

// --- submit path -----------------------------------------------------------

Status SataDevice::SubmitWrite(trace::Op op, TxId t, const uint64_t* pages,
                               const uint8_t* const* datas, size_t n,
                               size_t* accepted, bool batch) {
  if (accepted != nullptr) *accepted = 0;
  if (n == 0) return Status::OK();
  SimNanos t0 = clock_->Now();
  XFTL_RETURN_IF_ERROR(CheckLink());
  WaitForSlot();
  // One wire command moves all n pages and occupies one queue slot, which
  // drains when the slowest program finishes. write_commands counts host
  // pages written (one per page even in a batch); batch_commands counts the
  // batched wire commands that moved them.
  stats_.write_commands += n;
  if (batch) {
    stats_.batch_commands++;
    stats_.batched_pages += n;
  }
  size_t acc = 0;
  Status s = SubmitPayload(t, pages, datas, n, &acc);
  if (accepted != nullptr) *accepted = acc;
  if (acc > 0) {
    if (op == trace::Op::kTxWrite) open_txns_.insert(t);
    EnqueueCompletion(t, pages, datas, acc);
  }
  // Per-page capture events keep trace replay page-accurate (the replayer
  // re-drives each page as an individual write command). Pages the device
  // durably accepted report kOk even when the command as a whole failed.
  for (size_t i = 0; i < n; ++i) {
    Note(op, t0, t, pages[i], i < acc ? StatusCode::kOk : s.code(),
         inflight_.size());
  }
  return s;
}

Status SataDevice::ExecuteWrite(TxId t, const uint64_t* pages,
                                const uint8_t* const* datas, size_t n,
                                size_t* ftl_accepted) {
  // Each program is submit-only, so this loop is what stripes a batch's
  // cell programs across banks; the host pays one transfer per page.
  *ftl_accepted = 0;
  for (size_t i = 0; i < n; ++i) {
    Status s = (t == ftl::kNoTx || xftl_ == nullptr)
                   ? ftl_->Write(pages[i], datas[i])
                   : xftl_->TxWrite(t, pages[i], datas[i]);
    if (!s.ok()) return s;
    *ftl_accepted = i + 1;
  }
  return Status::OK();
}

Status SataDevice::SubmitPayload(TxId t, const uint64_t* pages,
                                 const uint8_t* const* datas, size_t n,
                                 size_t* accepted) {
  size_t acc = 0;
  uint32_t attempt = 0;
  while (true) {
    // One command frame, then per-page data FISes until a CRC fault kills
    // the stream. The corrupted frame's transfer time is still paid.
    const size_t remaining = n - acc;
    size_t crossed = 0;
    bool faulted = false;
    SimNanos wire = timings_.command_overhead;
    for (size_t i = 0; i < remaining; ++i) {
      wire += timings_.transfer_per_page;
      if (TransferFaults()) {
        faulted = true;
        break;
      }
      crossed++;
    }
    clock_->Advance(wire);
    if (crossed > 0) {
      // Frames before the bad one were accepted by the device: hand them to
      // the FTL now, so a retry moves only the unacknowledged suffix.
      size_t ftl_acc = 0;
      Status fs = ExecuteWrite(t, pages + acc, datas + acc, crossed, &ftl_acc);
      acc += ftl_acc;
      if (!fs.ok()) {
        if (accepted != nullptr) *accepted = acc;
        return fs;
      }
    }
    if (!faulted) break;
    stats_.crc_errors++;
    SimNanos f0 = clock_->Now();
    if (attempt >= policy_.max_retries) {
      Note(trace::Op::kLinkFault, f0, t, pages[acc], StatusCode::kIoError,
           kCrc);
      EscalateLadder();
      if (accepted != nullptr) *accepted = acc;
      return Status::IoError("SATA link: CRC retries exhausted");
    }
    SimNanos backoff = kBackoffBase << attempt;
    clock_->Advance(backoff);
    stats_.backoff_nanos += backoff;
    stats_.link_retries++;
    attempt++;
    // The kLinkFault event's latency carries the backoff this retry cost.
    Note(trace::Op::kLinkFault, f0, t, pages[acc], StatusCode::kOk, kCrc);
  }
  if (accepted != nullptr) *accepted = n;
  if (attempt == 0) NoteCleanCommand();
  return Status::OK();
}

// --- NCQ error protocol ----------------------------------------------------

void SataDevice::RecoverQueue(uint64_t failed_tag) {
  in_recovery_ = true;
  SimNanos t0 = clock_->Now();
  TxId failed_txn;
  {
    const InflightCmd& failed = inflight_.at(failed_tag);
    failed_txn = failed.txn;
    LinkFaultKind kind;
    if (failed.fate == TagFate::kTimeout) {
      stats_.command_timeouts++;
      kind = kTimeoutKind;
    } else {
      stats_.device_aborts++;
      kind = kAbortKind;
    }
    Note(trace::Op::kLinkFault, t0, failed.txn,
         failed.pages.empty() ? 0 : failed.pages.front(),
         StatusCode::kIoError, kind);
  }
  // The device aborts the whole queue; the host reads the NCQ error log
  // (one small synchronous read) to learn which tags completed.
  clock_->Advance(timings_.command_overhead + timings_.transfer_per_page);
  stats_.link_resets++;
  consecutive_resets_++;
  clean_streak_ = 0;

  // Partition by what the log says. A tag whose device-side work finished
  // before the abort is complete - even a timed-out one (only its
  // completion FIS was lost) - and retires WITHOUT reissue: exactly-once.
  // Aborted tags and tags the abort caught mid-flight are killed.
  const SimNanos now = clock_->Now();
  std::vector<std::pair<uint64_t, InflightCmd>> redo;
  for (auto& [tag, cmd] : inflight_) {
    const bool completed = cmd.fate != TagFate::kAbort && cmd.done <= now;
    if (!completed) redo.emplace_back(tag, std::move(cmd));
  }
  stats_.aborted_tags += redo.size();
  inflight_.clear();

  if (!degraded_ && consecutive_resets_ >= policy_.degrade_after_resets) {
    EnterDegraded();
  }
  const bool give_up = consecutive_resets_ >= policy_.fail_after_resets;

  // REDO-only reissue in submission order, exactly once per killed tag: the
  // host still holds every unacknowledged page image, and re-writing the
  // same (lpn, data) is idempotent through the FTL's copy-on-write path.
  // Reissues execute in the CURRENT flash epoch even when the killed tag
  // was queued epochs ago — moving a write later never violates
  // epoch-prefix ordering, so the host tracks no per-tag epoch.
  uint64_t reissued_pages = 0;
  for (auto& [tag, cmd] : redo) {
    // A transaction that committed or aborted since its tag was queued is
    // finished: the FTL accepted the write before that verb ran, so the
    // device state already reflects it, and a reissue would reopen it.
    if (cmd.txn != ftl::kNoTx && !open_txns_.contains(cmd.txn)) continue;
    // Drop pages a newer tag also wrote (whether that tag already retired,
    // completed per the error log, or is itself about to be reissued later
    // in this loop): REDOing the older image would silently roll the newer
    // acknowledged write back.
    const uint32_t psz = ftl_->page_size();
    std::vector<uint64_t> pages;
    std::vector<const uint8_t*> ptrs;
    for (size_t i = 0; i < cmd.pages.size(); ++i) {
      auto it = last_write_tag_.find(cmd.pages[i]);
      if (it != last_write_tag_.end() && it->second > tag) continue;
      pages.push_back(cmd.pages[i]);
      ptrs.push_back(cmd.data.data() + i * psz);
    }
    if (pages.empty()) continue;  // fully superseded: nothing to redo
    if (give_up || link_failed_) {
      // Past the last rung: these acknowledged writes are lost for good.
      // Latch the loss so the next barrier/commit reports it.
      if (!link_failed_) {
        link_failed_ = true;
        stats_.link_failures++;
        Note(trace::Op::kDegrade, clock_->Now(), ftl::kNoTx, 2,
             StatusCode::kIoError, consecutive_resets_);
      }
      DeferError(Status::IoError("SATA link dead: queued write dropped"));
      continue;
    }
    const size_t n = pages.size();
    stats_.reissued_commands++;
    stats_.reissued_pages += n;
    reissued_pages += n;
    size_t acc = 0;
    SimNanos w0 = clock_->Now();
    Status s = SubmitPayload(cmd.txn, pages.data(), ptrs.data(), n, &acc);
    // Reissues are real wire commands: capture them so replay reproduces
    // the exact stream, duplicate (idempotent) writes included.
    trace::Op op =
        cmd.txn == ftl::kNoTx ? trace::Op::kWrite : trace::Op::kTxWrite;
    for (size_t i = 0; i < n; ++i) {
      Note(op, w0, cmd.txn, pages[i],
           i < acc ? StatusCode::kOk : s.code(), inflight_.size() + 1);
    }
    if (acc > 0) EnqueueCompletion(cmd.txn, pages.data(), ptrs.data(), acc);
    if (!s.ok()) {
      // The host acknowledged this write long ago; losing it now is a
      // background failure - errseq semantics, never silent. (SubmitPayload
      // already climbed the ladder if the loss was a CRC exhaustion.)
      DeferError(s);
    }
  }
  Note(trace::Op::kLinkReset, t0, failed_txn, failed_tag, StatusCode::kOk,
       reissued_pages);
  in_recovery_ = false;
}

// --- command set -----------------------------------------------------------

template <typename DeviceRead>
Status SataDevice::LinkRead(TxId t, uint64_t page, const DeviceRead& read) {
  for (uint32_t attempt = 0;; ++attempt) {
    ChargeCommand(true);
    Status s = read();
    if (!s.ok()) return s;         // device-side error, not a link problem
    if (!TransferFaults()) return s;  // data crossed intact
    stats_.crc_errors++;
    SimNanos f0 = clock_->Now();
    if (attempt >= policy_.max_retries) {
      Note(trace::Op::kLinkFault, f0, t, page, StatusCode::kIoError, kCrc);
      return Status::IoError("SATA link: read CRC retries exhausted");
    }
    SimNanos backoff = kBackoffBase << attempt;
    clock_->Advance(backoff);
    stats_.backoff_nanos += backoff;
    stats_.link_retries++;
    Note(trace::Op::kLinkFault, f0, t, page, StatusCode::kOk, kCrc);
  }
}

Status SataDevice::Read(uint64_t page, uint8_t* data) {
  SimNanos t0 = clock_->Now();
  stats_.read_commands++;
  Status s =
      LinkRead(ftl::kNoTx, page, [&] { return ftl_->Read(page, data); });
  Note(trace::Op::kRead, t0, ftl::kNoTx, page, s.code());
  return s;
}

Status SataDevice::Write(uint64_t page, const uint8_t* data) {
  return SubmitWrite(trace::Op::kWrite, ftl::kNoTx, &page, &data, 1, nullptr,
                     /*batch=*/false);
}

Status SataDevice::WriteBatch(const uint64_t* pages,
                              const uint8_t* const* datas, size_t n,
                              size_t* accepted) {
  return SubmitWrite(trace::Op::kWrite, ftl::kNoTx, pages, datas, n, accepted,
                     /*batch=*/true);
}

template <typename Body>
Status SataDevice::NonData(trace::Op op, TxId t, uint64_t a,
                           void (SataDevice::*queue)(), Gate gate,
                           uint64_t SataStats::*verb, Body body,
                           const uint64_t& occupancy) {
  SimNanos t0 = clock_->Now();
  if (queue != nullptr) (this->*queue)();
  ChargeCommand(false);
  const bool flush = op == trace::Op::kFlush || op == trace::Op::kBarrier;
  (flush ? stats_.barrier_commands : stats_.trim_commands)++;
  if (verb != nullptr) (stats_.*verb)++;
  // errseq semantics: a queued write lost in the background fails the next
  // gated command, so the host learns about it before trusting durability.
  Status s = gate == kGated ? TakeDeferredError() : Status::OK();
  if (s.ok()) s = body();
  Note(op, t0, t, a, s.code(), occupancy);
  return s;
}

Status SataDevice::RequireXftl(const char* verb) const {
  if (xftl_ != nullptr) return Status::OK();
  return Status::NotSupported(std::string(verb) +
                              " on a non-transactional device");
}

Status SataDevice::Trim(uint64_t page) {
  XFTL_RETURN_IF_ERROR(CheckLink());
  return NonData(trace::Op::kTrim, ftl::kNoTx, page,
                 nullptr, kUngated, nullptr,
                 [&] { return ftl_->Trim(page); });
}

Status SataDevice::FlushBarrier() {
  // kBarrier firmware serves FLUSH order-only: the fsync path is the whole
  // point of the barrier rework, and callers that truly need completion-wait
  // semantics use AwaitDurable().
  if (ftl_->commit_mode() != ftl::CommitMode::kBarrier) {
    return DrainAndFlush(/*await_durable=*/false);
  }
  // No drain: polling retires what already finished and discovers faults,
  // but queued programs keep running behind the epoch fence. A background
  // loss latched in the closing epoch fails this barrier — the first command
  // of the next epoch — and its event carries the epoch it opens.
  barrier_epoch_++;
  return NonData(trace::Op::kBarrier, ftl::kNoTx, barrier_epoch_,
                 &SataDevice::PollQueue, kGated, nullptr,
                 [&] { return ftl_->Barrier(); });
}

Status SataDevice::AwaitDurable() {
  return DrainAndFlush(/*await_durable=*/true);
}

Status SataDevice::DrainAndFlush(bool await_durable) {
  return NonData(trace::Op::kFlush, ftl::kNoTx, await_durable ? 1 : 0,
                 &SataDevice::DrainQueue, kGated, nullptr,
                 [&] { return ftl_->Flush(); });
}

Status SataDevice::TxRead(TxId t, uint64_t page, uint8_t* data) {
  if (xftl_ == nullptr) return Read(page, data);
  SimNanos t0 = clock_->Now();
  stats_.read_commands++;
  Status s = LinkRead(t, page, [&] {
    return t == ftl::kNoTx ? ftl_->Read(page, data)
                           : xftl_->TxRead(t, page, data);
  });
  Note(trace::Op::kTxRead, t0, t, page, s.code());
  return s;
}

Status SataDevice::TxWrite(TxId t, uint64_t page, const uint8_t* data) {
  if (xftl_ == nullptr) return Write(page, data);
  return SubmitWrite(trace::Op::kTxWrite, t, &page, &data, 1, nullptr,
                     /*batch=*/false);
}

Status SataDevice::TxWriteBatch(TxId t, const uint64_t* pages,
                                const uint8_t* const* datas, size_t n,
                                size_t* accepted) {
  if (xftl_ == nullptr) return WriteBatch(pages, datas, n, accepted);
  return SubmitWrite(trace::Op::kTxWrite, t, pages, datas, n, accepted,
                     /*batch=*/true);
}

Status SataDevice::TxCommit(TxId t) {
  if (xftl_ == nullptr) return FlushBarrier();
  // One extended trim command carries the commit verb. The commit's data
  // barrier must cover every acknowledged write; OrderCommit applies the
  // firmware's discipline (drain, or poll for barrier/PLP modes where the
  // verb is ordered behind queued writes inside the controller). A deferred
  // background loss fails the commit without executing it.
  return NonData(trace::Op::kTxCommit, t, 0,
                 &SataDevice::OrderCommit, kGated, &SataStats::commit_commands,
                 [&] {
                   Status s = xftl_->TxCommit(t);
                   if (s.ok()) open_txns_.erase(t);
                   return s;
                 });
}

Status SataDevice::TxPrepare(TxId t) {
  XFTL_RETURN_IF_ERROR(RequireXftl("prepare"));
  // Same barrier discipline as TxCommit: PREPARE promises both versions are
  // retained, so every acknowledged queued write must be ordered before it.
  return NonData(trace::Op::kTxPrepare, t, 0,
                 &SataDevice::OrderCommit, kGated, &SataStats::prepare_commands,
                 [&] { return xftl_->TxPrepare(t); });
}

// `a` mirrors the XFtl-layer convention: 1 = record write, 0 = release.
Status SataDevice::WriteCommitRecord(TxId t) {
  XFTL_RETURN_IF_ERROR(RequireXftl("commit record"));
  return NonData(trace::Op::kCommitRecord, t, 1,
                 nullptr, kUngated, &SataStats::commit_record_commands,
                 [&] { return xftl_->WriteCommitRecord(t); });
}

Status SataDevice::ReleaseCommitRecord(TxId t) {
  XFTL_RETURN_IF_ERROR(RequireXftl("commit record"));
  return NonData(trace::Op::kCommitRecord, t, 0,
                 nullptr, kUngated, &SataStats::commit_record_commands,
                 [&] { return xftl_->ReleaseCommitRecord(t); });
}

bool SataDevice::HasCommitRecord(TxId t) const {
  return xftl_ != nullptr && xftl_->HasCommitRecord(t);
}

std::vector<TxId> SataDevice::CommitRecords() const {
  if (xftl_ == nullptr) return {};
  return xftl_->CommitRecords();
}

std::vector<TxId> SataDevice::InDoubtTransactions() const {
  if (xftl_ == nullptr) return {};
  return xftl_->InDoubtTransactions();
}

Status SataDevice::ResolveInDoubt(TxId t, bool commit) {
  XFTL_RETURN_IF_ERROR(RequireXftl("resolve"));
  return NonData(trace::Op::kResolve, t, commit ? 1 : 0,
                 nullptr, kUngated, &SataStats::resolve_commands,
                 [&] { return xftl_->ResolveInDoubt(t, commit); });
}

StatusOr<uint64_t> SataDevice::SnapPin() {
  XFTL_RETURN_IF_ERROR(RequireXftl("snapshot pin"));
  // The pin must not see a commit that is still in the queue ahead of it;
  // the same ordering discipline as a commit verb keeps the epoch exact.
  uint64_t epoch = 0;
  XFTL_RETURN_IF_ERROR(NonData(
      trace::Op::kSnapPin, ftl::kNoTx, 0,
      &SataDevice::OrderCommit, kUngated, &SataStats::snap_pin_commands,
      [&] {
        epoch = xftl_->PinSnapshot();
        return Status::OK();
      },
      epoch));
  return epoch;
}

Status SataDevice::SnapUnpin(uint64_t epoch) {
  XFTL_RETURN_IF_ERROR(RequireXftl("snapshot unpin"));
  return NonData(trace::Op::kSnapUnpin, ftl::kNoTx, 0,
                 nullptr, kUngated, &SataStats::snap_unpin_commands,
                 [&] {
                   xftl_->UnpinSnapshot(epoch);
                   return Status::OK();
                 },
                 epoch);
}

Status SataDevice::SnapRead(uint64_t epoch, uint64_t page, uint8_t* data) {
  XFTL_RETURN_IF_ERROR(RequireXftl("snapshot read"));
  // Synchronous like every read, with the same CRC retransfer policy; the
  // epoch rides in the command's parameter set.
  SimNanos t0 = clock_->Now();
  stats_.read_commands++;
  stats_.snap_read_commands++;
  Status s = LinkRead(ftl::kNoTx, page, [&] {
    return xftl_->SnapshotRead(epoch, page, data);
  });
  Note(trace::Op::kSnapRead, t0, ftl::kNoTx, page, s.code(), epoch);
  return s;
}

void SataDevice::OrderCommit() {
  switch (ftl_->commit_mode()) {
    case ftl::CommitMode::kDrain:
      // Classic completion-wait: the commit verb may not pass the device
      // until every acknowledged queued write reached the cells.
      DrainQueue();
      break;
    case ftl::CommitMode::kBarrier:
    case ftl::CommitMode::kPlp:
      // The verb is ordered behind queued writes inside the controller
      // (epoch fence, or the capacitor-backed buffer). Polling retires what
      // already finished and surfaces discoverable link faults so a failed
      // queue never hides behind a fast commit.
      PollQueue();
      break;
  }
}

Status SataDevice::TxAbort(TxId t) {
  XFTL_RETURN_IF_ERROR(RequireXftl("abort"));
  return NonData(trace::Op::kTxAbort, t, 0,
                 nullptr, kUngated, &SataStats::abort_commands,
                 [&] {
                   Status s = xftl_->TxAbort(t);
                   if (s.ok()) open_txns_.erase(t);
                   return s;
                 });
}

void SataDevice::ResetVolatile() {
  stats_.dropped_on_power_cut += inflight_.size();
  for (const auto& [tag, cmd] : inflight_) {
    stats_.dropped_pages_on_power_cut += cmd.pages.size();
  }
  inflight_.clear();
  last_write_tag_.clear();
  open_txns_.clear();
  // A reboot re-trains the link: the degradation ladder and the deferred
  // error latch are volatile host state. What the latch was protecting is
  // moot after a power cut - recovery discards the unacknowledged suffix
  // anyway, and the fsck pass re-derives durable state from flash.
  in_recovery_ = false;
  degraded_ = false;
  link_failed_ = false;
  consecutive_resets_ = 0;
  clean_streak_ = 0;
  deferred_error_ = Status::OK();
  // Barrier-epoch tagging restarts with the link: ordering across the cut
  // is moot (recovery re-derives durable state from the cells).
  barrier_epoch_ = 0;
}

}  // namespace xftl::storage
