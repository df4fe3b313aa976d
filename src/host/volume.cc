#include "host/volume.h"

#include "check/flash_image.h"

namespace xftl::host {

StripedVolume::StripedVolume(const VolumeConfig& config, SimClock* clock)
    : config_(config), clock_(clock) {
  CHECK(clock != nullptr);
  CHECK_GE(config.num_devices, 1u);
  CHECK_GE(config.stripe_pages, 1u);
  if (!config.member_specs.empty()) {
    CHECK_EQ(config.member_specs.size(), size_t(config.num_devices))
        << "member_specs must cover every member";
  }
  members_.reserve(config.num_devices);
  for (uint32_t i = 0; i < config.num_devices; ++i) {
    const storage::SsdSpec& spec =
        config.member_specs.empty() ? config.spec : config.member_specs[i];
    members_.push_back(std::make_unique<storage::SimSsd>(spec, clock));
  }
  powered_.assign(config.num_devices, true);
  // The commit disciplines below (FlushBarrier's completion-wait rule,
  // TxCommit's barrier-mode compensation) read member 0's firmware mode and
  // apply it array-wide; a mixed-firmware array would silently get the
  // wrong discipline on some members, so homogeneity is enforced here.
  for (uint32_t i = 1; i < config.num_devices; ++i) {
    CHECK(members_[i]->device()->commit_mode() ==
          members_[0]->device()->commit_mode())
        << "array members must share one commit-mode firmware";
  }
  // Round each member down to whole stripe units so the map is a bijection
  // onto [0, num_pages): a partial tail unit would alias across members.
  uint64_t member_pages = members_[0]->device()->num_pages();
  per_device_pages_ =
      (member_pages / config.stripe_pages) * uint64_t(config.stripe_pages);
  CHECK_GT(per_device_pages_, 0u)
      << "stripe_pages larger than a member's logical space";
  num_pages_ = per_device_pages_ * members_.size();
}

StripedVolume::~StripedVolume() = default;

StripedVolume::Location StripedVolume::Map(uint64_t lpn) const {
  DCHECK_LT(lpn, num_pages_);
  const uint64_t unit = lpn / config_.stripe_pages;
  const uint64_t n = members_.size();
  Location loc;
  loc.device = uint32_t(unit % n);
  loc.lpn = (unit / n) * config_.stripe_pages + lpn % config_.stripe_pages;
  return loc;
}

uint64_t StripedVolume::Unmap(uint32_t device, uint64_t dev_lpn) const {
  DCHECK_LT(device, members_.size());
  DCHECK_LT(dev_lpn, per_device_pages_);
  const uint64_t unit =
      (dev_lpn / config_.stripe_pages) * members_.size() + device;
  return unit * config_.stripe_pages + dev_lpn % config_.stripe_pages;
}

uint32_t StripedVolume::page_size() const {
  return members_[0]->device()->page_size();
}

Status StripedVolume::CheckMember(uint32_t dev) const {
  if (!powered_[dev]) {
    return Status::IoError("member " + std::to_string(dev) +
                           " is powered off");
  }
  return Status::OK();
}

void StripedVolume::DeferError(const Status& s) {
  DCHECK(!s.ok());
  // errseq semantics, one level up from the per-device SATA latch: first
  // loss wins, the next barrier/commit reports it once.
  if (deferred_error_.ok()) deferred_error_ = s;
}

Status StripedVolume::TakeDeferredError() {
  Status s = deferred_error_;
  deferred_error_ = Status::OK();
  return s;
}

void StripedVolume::NoteMemberFault(uint32_t member, bool offline) {
  if (tracer_ != nullptr) {
    tracer_->Record(trace::Layer::kHost, trace::Op::kMemberFault,
                    clock_->Now(), 0, member, offline ? 1 : 0, 0,
                    StatusCode::kOk);
  }
}

Status StripedVolume::Read(uint64_t page, uint8_t* data) {
  Location loc = Map(page);
  // Degraded array: surviving stripes keep serving; a dead stripe fails
  // fast instead of touching the powered-off member.
  XFTL_RETURN_IF_ERROR(CheckMember(loc.device));
  return members_[loc.device]->device()->Read(loc.lpn, data);
}

Status StripedVolume::Write(uint64_t page, const uint8_t* data) {
  Location loc = Map(page);
  Status s = CheckMember(loc.device);
  if (!s.ok()) {
    DeferError(s);
    return s;
  }
  return members_[loc.device]->device()->Write(loc.lpn, data);
}

Status StripedVolume::Trim(uint64_t page) {
  Location loc = Map(page);
  Status s = CheckMember(loc.device);
  if (!s.ok()) {
    DeferError(s);
    return s;
  }
  return members_[loc.device]->device()->Trim(loc.lpn);
}

Status StripedVolume::FlushBarrier() {
  // Every online member takes the barrier: it is an array-wide durability
  // point. All are visited even after a failure so the survivors still
  // reach their barrier (and surface their own deferred errors). A write
  // lost against an offline member surfaces here via the volume latch.
  //
  // Epoch-prefix durability is a PER-MEMBER promise: with several members,
  // order-only barriers cannot stop member A from persisting a later-epoch
  // write while member B loses an earlier one, and a cut in that window
  // tears exactly the cross-member orderings the fsync callers rely on
  // (checkpoint before journal overwrite, commit record before checkpoint,
  // SQL journal before db pages). Until a cross-member epoch protocol
  // exists, a multi-member array completion-waits every member on barrier
  // firmware; a single member keeps the order-only fast path. kDrain
  // members already completion-wait in FlushBarrier and kPlp members lose
  // nothing at a cut, so only kBarrier firmware needs the stronger verb
  // (commit modes are homogeneous across members — checked at
  // construction).
  const bool completion_wait =
      members_.size() > 1 &&
      members_[0]->device()->commit_mode() == ftl::CommitMode::kBarrier;
  Status first = TakeDeferredError();
  for (uint32_t dev = 0; dev < members_.size(); ++dev) {
    if (!powered_[dev]) continue;
    Status s = completion_wait ? members_[dev]->device()->AwaitDurable()
                               : members_[dev]->device()->FlushBarrier();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

bool StripedVolume::SupportsTransactions() const {
  return members_[0]->device()->SupportsTransactions();
}

Status StripedVolume::TxRead(storage::TxId t, uint64_t page, uint8_t* data) {
  Location loc = Map(page);
  XFTL_RETURN_IF_ERROR(CheckMember(loc.device));
  return members_[loc.device]->device()->TxRead(t, loc.lpn, data);
}

bool StripedVolume::SupportsSnapshots() const {
  for (const auto& m : members_) {
    if (!m->device()->SupportsSnapshots()) return false;
  }
  return true;
}

StatusOr<uint64_t> StripedVolume::SnapPin() {
  // Pin every member at one simulated instant (no member command advances
  // the clock between pins); ascending order keeps fan-out deterministic.
  // Any failure unwinds the members already pinned — a token either covers
  // the whole array or does not exist.
  std::vector<uint64_t> epochs(members_.size(), 0);
  for (uint32_t dev = 0; dev < members_.size(); ++dev) {
    Status s = CheckMember(dev);
    if (s.ok()) {
      auto pin = members_[dev]->device()->SnapPin();
      if (!pin.ok()) {
        s = pin.status();
      } else {
        epochs[dev] = pin.value();
      }
    }
    if (!s.ok()) {
      for (uint32_t j = 0; j < dev; ++j) {
        if (powered_[j]) members_[j]->device()->SnapUnpin(epochs[j]);
      }
      return s;
    }
  }
  uint64_t token = next_snap_token_++;
  snap_pins_[token] = std::move(epochs);
  return token;
}

Status StripedVolume::SnapUnpin(uint64_t token) {
  auto it = snap_pins_.find(token);
  if (it == snap_pins_.end()) return Status::OK();  // lenient, like members
  for (uint32_t dev = 0; dev < members_.size(); ++dev) {
    // A member that power-cycled since the pin already dropped its epochs;
    // its SnapUnpin is a no-op we can skip while it is offline.
    if (!powered_[dev]) continue;
    members_[dev]->device()->SnapUnpin(it->second[dev]);
  }
  snap_pins_.erase(it);
  return Status::OK();
}

Status StripedVolume::SnapRead(uint64_t token, uint64_t page, uint8_t* data) {
  auto it = snap_pins_.find(token);
  if (it == snap_pins_.end()) {
    return Status::FailedPrecondition("snapshot token " +
                                      std::to_string(token) +
                                      " is not pinned on this volume");
  }
  Location loc = Map(page);
  XFTL_RETURN_IF_ERROR(CheckMember(loc.device));
  // A rebooted member rejects the stale epoch (FailedPrecondition) — the
  // reader's snapshot died with the member's pins, never silently serving
  // newer data.
  return members_[loc.device]->device()->SnapRead(it->second[loc.device],
                                                  loc.lpn, data);
}

Status StripedVolume::TxWrite(storage::TxId t, uint64_t page,
                              const uint8_t* data) {
  Location loc = Map(page);
  Status s = CheckMember(loc.device);
  if (!s.ok()) {
    DeferError(s);
    return s;
  }
  s = members_[loc.device]->device()->TxWrite(t, loc.lpn, data);
  if (s.ok()) participants_[t].insert(loc.device);
  return s;
}

Status StripedVolume::WriteBatch(const uint64_t* pages,
                                 const uint8_t* const* datas, size_t n,
                                 size_t* accepted) {
  return FanOutBatch(ftl::kNoTx, pages, datas, n, accepted);
}

Status StripedVolume::TxWriteBatch(storage::TxId t, const uint64_t* pages,
                                   const uint8_t* const* datas, size_t n,
                                   size_t* accepted) {
  return FanOutBatch(t, pages, datas, n, accepted);
}

Status StripedVolume::FanOutBatch(storage::TxId t, const uint64_t* pages,
                                  const uint8_t* const* datas, size_t n,
                                  size_t* accepted) {
  if (members_.size() == 1 && t == ftl::kNoTx && powered_[0]) {
    // Single member, untagged: pages still need remapping but the batch
    // passes through whole.
    std::vector<uint64_t> local(n);
    for (size_t i = 0; i < n; ++i) local[i] = Map(pages[i]).lpn;
    return members_[0]->device()->WriteBatch(local.data(), datas, n, accepted);
  }

  // Group into per-member sub-batches, keeping input order inside each.
  struct SubBatch {
    std::vector<uint64_t> local_pages;
    std::vector<const uint8_t*> data;
    std::vector<size_t> input_index;
  };
  std::vector<SubBatch> subs(members_.size());
  for (size_t i = 0; i < n; ++i) {
    Location loc = Map(pages[i]);
    SubBatch& sb = subs[loc.device];
    sb.local_pages.push_back(loc.lpn);
    sb.data.push_back(datas[i]);
    sb.input_index.push_back(i);
  }

  // Issue in ascending device order. A member failing mid-batch accepts a
  // prefix of ITS pages; pages already accepted by other members are not a
  // prefix of the caller's input, so the reported `accepted` is the longest
  // input prefix that is fully durable — the reissued suffix may repeat
  // pages a member already holds, which is idempotent through the FTL's
  // copy-on-write path (and invisible pre-commit under a TxId).
  std::vector<bool> page_ok(n, false);
  Status first;
  for (uint32_t dev = 0; dev < members_.size(); ++dev) {
    SubBatch& sb = subs[dev];
    if (sb.local_pages.empty()) continue;
    Status s = CheckMember(dev);
    if (!s.ok()) {
      // Offline member: its pages fail fast and latch the volume errseq;
      // other members' sub-batches still land (surviving stripes work).
      DeferError(s);
      if (first.ok()) first = s;
      continue;
    }
    size_t dev_accepted = 0;
    if (t == ftl::kNoTx) {
      s = members_[dev]->device()->WriteBatch(sb.local_pages.data(),
                                              sb.data.data(),
                                              sb.local_pages.size(),
                                              &dev_accepted);
    } else {
      s = members_[dev]->device()->TxWriteBatch(t, sb.local_pages.data(),
                                                sb.data.data(),
                                                sb.local_pages.size(),
                                                &dev_accepted);
      if (dev_accepted > 0) participants_[t].insert(dev);
    }
    if (s.ok() && dev_accepted < sb.local_pages.size()) {
      // A member must not report success for a partially-accepted batch:
      // silently counting it fully accepted would let the caller skip the
      // reissue and lose the rejected suffix.
      s = Status::IoError("member " + std::to_string(dev) +
                          " accepted a partial batch without an error");
    }
    for (size_t k = 0; k < dev_accepted; ++k) page_ok[sb.input_index[k]] = true;
    if (!s.ok() && first.ok()) first = s;
  }

  if (accepted != nullptr) {
    size_t prefix = 0;
    while (prefix < n && page_ok[prefix]) ++prefix;
    *accepted = prefix;
  }
  return first;
}

void StripedVolume::AbortOn(const std::set<uint32_t>& parts,
                            storage::TxId t) {
  for (uint32_t dev : parts) {
    if (!powered_[dev]) continue;  // resolved at that member's reboot
    (void)members_[dev]->device()->TxAbort(t);
  }
}

Status StripedVolume::TxCommit(storage::TxId t) {
  // errseq: an acknowledged write lost against an offline member fails the
  // commit before any member executes it (mirrors SataDevice::TxCommit).
  XFTL_RETURN_IF_ERROR(TakeDeferredError());
  auto it = participants_.find(t);
  if (it == participants_.end()) {
    // Read-only or empty transaction: nothing reached any member; the
    // single-device front-end treats this as an error only on abort, and a
    // commit of nothing is trivially durable.
    return Status::OK();
  }
  const std::set<uint32_t> parts = it->second;

  if (!config_.two_phase_commit || parts.size() == 1) {
    // A single participant commits atomically inside its own X-FTL — no
    // cross-device window exists, so the protocol overhead is skipped.
    // With two_phase_commit off this is the unsafe serial fan-out: a power
    // cut mid-loop leaves the transaction committed on a prefix of its
    // participants (the baseline bench/ablation_array_faults measures).
    Status first;
    for (uint32_t dev : parts) {
      Status s = CheckMember(dev);
      if (s.ok()) s = members_[dev]->device()->TxCommit(t);
      if (!s.ok() && first.ok()) first = s;
    }
    // Barrier-firmware member commits are order-only, and epoch-prefix
    // durability is a PER-MEMBER promise: a volatile ack here could be lost
    // while a later transaction on a different member survives, breaking
    // the array's global prefix. The volume therefore keeps ack == durable
    // by completion-waiting the member(s) before acknowledging. Member 0
    // speaks for the whole array: commit modes are homogeneous, checked at
    // construction.
    if (first.ok() &&
        members_[0]->device()->commit_mode() == ftl::CommitMode::kBarrier) {
      for (uint32_t dev : parts) {
        Status s = CheckMember(dev);
        if (s.ok()) s = members_[dev]->device()->AwaitDurable();
        if (!s.ok() && first.ok()) first = s;
      }
    }
    participants_.erase(t);
    return first;
  }

  // --- phase 1: PREPARE every participant, ascending. Any failure aborts
  // the whole transaction — nothing is visible yet on any member.
  for (uint32_t dev : parts) {
    Status s = CheckMember(dev);
    if (s.ok()) s = members_[dev]->device()->TxPrepare(t);
    if (!s.ok()) {
      AbortOn(parts, t);
      participants_.erase(t);
      return s;
    }
  }

  // Barrier-firmware prepares are order-only: the PREPARED markers are
  // still volatile when TxPrepare returns. The protocol's promise — a
  // prepared member can go either way after a crash — needs them in the
  // cells before the commit record exists, so the coordinator
  // completion-waits every participant here. The waits overlap: each
  // member's programs have been running concurrently on the shared clock,
  // so the pass costs roughly the slowest member, not the sum. (Member 0's
  // mode decides for all — homogeneity is checked at construction.)
  const bool ordered =
      members_[0]->device()->commit_mode() == ftl::CommitMode::kBarrier;
  if (ordered) {
    for (uint32_t dev : parts) {
      Status s = CheckMember(dev);
      if (s.ok()) s = members_[dev]->device()->AwaitDurable();
      if (!s.ok()) {
        AbortOn(parts, t);
        participants_.erase(t);
        return s;
      }
    }
  }

  // Crash-scripting hooks: the window between PREPARE and the commit
  // record is where the protocol earns its keep.
  if (cut_after_prepare_ >= 0) {
    uint32_t victim = uint32_t(cut_after_prepare_);
    cut_after_prepare_ = -1;
    CutPowerMember(victim);
  }
  if (tear_commit_record_) {
    tear_commit_record_ = false;
    // The next program on the coordinator — the first page of the commit
    // record's X-L2P snapshot — tears mid-write.
    members_[0]->flash()->ArmCrashPlan(
        {.crash_after_programs = 1, .persist_prob = 1.0});
  }

  // --- commit point: the record on the coordinator. Not durable → the
  // transaction never happened; recovery aborts every prepared member.
  Status rs = CheckMember(0);
  if (rs.ok()) rs = members_[0]->device()->WriteCommitRecord(t);
  // Under barrier firmware the record snapshot is still in flight; it must
  // be in the cells before any member executes phase 2, or a coordinator
  // crash could erase the commit point after members already committed.
  if (rs.ok() && ordered) rs = members_[0]->device()->AwaitDurable();
  if (!rs.ok()) {
    AbortOn(parts, t);
    participants_.erase(t);
    return rs;
  }

  // --- phase 2: COMMIT fan-out, continuing past per-member errors — a
  // member that misses phase 2 is exactly what the retained record is for
  // (its reboot resolves the transaction forward).
  Status first;
  bool all_acked = true;
  for (uint32_t dev : parts) {
    Status s = CheckMember(dev);
    if (s.ok()) s = members_[dev]->device()->TxCommit(t);
    if (!s.ok()) {
      all_acked = false;
      if (first.ok()) first = s;
    }
  }
  if (all_acked && ordered) {
    // Barrier-mode member commits are order-only; the record may not be
    // released while any member's commit snapshot could still be lost, or a
    // crash would leave that member's entries PREPARED with no record —
    // resolving to abort a transaction the others committed.
    for (uint32_t dev : parts) {
      Status s = members_[dev]->device()->AwaitDurable();
      if (!s.ok()) {
        all_acked = false;
        if (first.ok()) first = s;
      }
    }
  }
  if (all_acked) {
    // Every participant's commit is durable (or PLP-protected), so the
    // record has no one left to redirect; release is lazy and idempotent.
    (void)members_[0]->device()->ReleaseCommitRecord(t);
  }
  participants_.erase(t);
  return first;
}

Status StripedVolume::TxAbort(storage::TxId t) {
  auto it = participants_.find(t);
  if (it == participants_.end()) return Status::OK();
  Status first;
  for (uint32_t dev : it->second) {
    if (!powered_[dev]) continue;  // nothing to abort: resolved at reboot
    Status s = members_[dev]->device()->TxAbort(t);
    if (!s.ok() && first.ok()) first = s;
  }
  participants_.erase(it);
  return first;
}

std::set<uint32_t> StripedVolume::Participants(storage::TxId t) const {
  auto it = participants_.find(t);
  if (it == participants_.end()) return {};
  return it->second;
}

bool StripedVolume::Degraded() const {
  for (bool p : powered_) {
    if (!p) return true;
  }
  return false;
}

void StripedVolume::CutPowerMember(uint32_t i) {
  CHECK_LT(i, members_.size());
  if (!powered_[i]) return;
  // CutPower never advances the shared clock, so this cut lands at the
  // same simulated instant no matter how many members a caller loops over
  // — only Reboot (recovery) moves time.
  members_[i]->CutPower();
  powered_[i] = false;
  NoteMemberFault(i, true);
}

Status StripedVolume::RebootMember(uint32_t i) {
  CHECK_LT(i, members_.size());
  if (powered_[i]) return Status::OK();
  Status s = members_[i]->Reboot();
  powered_[i] = true;
  NoteMemberFault(i, false);
  XFTL_RETURN_IF_ERROR(s);
  // Transactions the dead member participated in are doomed: their writes
  // there were discarded by recovery. Abort the survivors' halves so stale
  // ACTIVE X-L2P slots from abandoned transactions cannot pin conflicts.
  for (auto it = participants_.begin(); it != participants_.end();) {
    if (it->second.count(i) != 0) {
      AbortOn(it->second, it->first);
      it = participants_.erase(it);
    } else {
      ++it;
    }
  }
  return ResolveInDoubtArray();
}

Status StripedVolume::PowerCycleMember(uint32_t i) {
  CutPowerMember(i);
  return RebootMember(i);
}

Status StripedVolume::ResolveInDoubtArray() {
  // In-doubt state can only be resolved against the coordinator's records;
  // while member 0 is offline every prepared transaction stays in doubt
  // (both versions retained) until it returns.
  if (!powered_[0]) return Status::OK();
  storage::SataDevice* coord = members_[0]->device();
  Status first;
  std::vector<bool> rolled_forward(members_.size(), false);
  for (uint32_t dev = 0; dev < members_.size(); ++dev) {
    if (!powered_[dev]) continue;
    for (storage::TxId t : members_[dev]->device()->InDoubtTransactions()) {
      bool commit = coord->HasCommitRecord(t);
      Status s = members_[dev]->device()->ResolveInDoubt(t, commit);
      if (!s.ok() && first.ok()) first = s;
      if (s.ok() && commit) rolled_forward[dev] = true;
    }
  }
  // A record may only be released once no member still needs it for REDO —
  // and the roll-forwards must be durable first, or a later crash would
  // resurface the prepared entries with the record already gone and abort
  // a transaction other members committed.
  bool all_online = !Degraded();
  for (uint32_t dev = 0; dev < members_.size(); ++dev) {
    if (rolled_forward[dev]) {
      // Completion-wait regardless of commit mode: with barrier firmware a
      // member's FlushBarrier is order-only, which is not enough here.
      Status s = members_[dev]->device()->AwaitDurable();
      if (!s.ok() && first.ok()) first = s;
    }
  }
  if (all_online && first.ok()) {
    for (storage::TxId t : coord->CommitRecords()) {
      bool settled = true;
      for (uint32_t dev = 0; dev < members_.size() && settled; ++dev) {
        for (storage::TxId d : members_[dev]->device()->InDoubtTransactions()) {
          if (d == t) settled = false;
        }
      }
      if (settled) {
        Status s = coord->ReleaseCommitRecord(t);
        if (!s.ok() && first.ok()) first = s;
      }
    }
  }
  return first;
}

Status StripedVolume::PowerCycle() {
  // One rail: every member loses power at the same instant. CutPower does
  // not advance the clock; Reboot (recovery) does, so all cuts land before
  // the first reboot starts — the per-member loop is safe precisely
  // because cutting is instantaneous on the shared timeline.
  for (uint32_t i = 0; i < members_.size(); ++i) CutPowerMember(i);
  participants_.clear();
  snap_pins_.clear();  // pins are volatile on every member; tokens die too
  Status first;
  for (uint32_t i = 0; i < members_.size(); ++i) {
    // Ascending order brings the coordinator back first, but resolution
    // waits for the full set: RebootMember's array scan is idempotent.
    Status s = RebootMember(i);
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

Status StripedVolume::SaveMemberImages(const std::string& prefix) {
  for (uint32_t i = 0; i < members_.size(); ++i) {
    const storage::SsdSpec& spec =
        config_.member_specs.empty() ? config_.spec : config_.member_specs[i];
    check::ImageParams p;
    p.meta_blocks = spec.ftl.meta_blocks;
    p.num_logical_pages = spec.ftl.num_logical_pages;
    p.transactional = spec.transactional;
    p.num_devices = uint32_t(members_.size());
    p.device_index = i;
    p.stripe_pages = config_.stripe_pages;
    XFTL_RETURN_IF_ERROR(check::SaveImage(
        *members_[i]->flash(), p, prefix + "." + std::to_string(i) + ".img"));
  }
  return Status::OK();
}

void StripedVolume::SetTracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  for (auto& m : members_) m->SetTracer(tracer);
}

}  // namespace xftl::host
