// StripedVolume: an array controller that presents N SimSsd members as one
// TxBlockDevice, striping the logical page space RAID-0 style.
//
// Geometry: the logical space is divided into stripe units of `stripe_pages`
// consecutive pages; unit k lives on device k % N at per-device unit k / N.
// With N = 1 this degenerates to an offset-free identity (modulo rounding
// the member's capacity down to whole stripe units), and the mapping is a
// bijection at every stripe size — tests/host_test.cc round-trips it.
//
// Transactions: a TxId's writes may touch several members. The volume tracks
// the participant set per open transaction. A single-participant commit is
// already atomic inside that member's X-FTL; a multi-participant commit runs
// a two-phase protocol over the extended command set:
//
//   1. PREPARE every participant (ascending device order). Each member
//      durably retains BOTH versions of the transaction's pages; any
//      failure aborts the transaction on every online participant.
//   2. Write the commit record for the TxId on the coordinator (member 0).
//      The record is the commit point: a failure before it is durable
//      resolves to abort everywhere, a failure after resolves to commit.
//   3. COMMIT fan-out to every participant, continuing past per-member
//      errors. Only when every participant acknowledged is the record
//      released; otherwise it is retained so reboot recovery can REDO the
//      member that missed phase 2.
//
// After any reboot (member or array), recovery asks each member for its
// in-doubt (PREPARED) transactions and resolves each one by consulting the
// coordinator's records: REDO forward if the record is durable, abort to
// the pre-image otherwise — exactly once per member, idempotent on replay.
// Members that rolled forward are flushed before the settled record is
// released, so a second crash can never see a released record with a
// non-durable resolution. VolumeConfig::two_phase_commit = false restores
// the unsafe serial fan-out (the baseline bench/ablation_array_faults
// measures prepare overhead against).
//
// Power and fault domains: each member is its own fault domain.
// CutPowerMember(i) / RebootMember(i) / PowerCycleMember(i) fail and
// recover exactly one member; all members share one SimClock, and CutPower
// never advances it, so cutting any subset of members happens at a single
// simulated instant regardless of loop order — only Reboot (recovery) moves
// time. PowerCycle() (the whole-array rail failure) is the degenerate case:
// cut every member, then reboot every member.
//
// Degraded arrays: while a member is powered off (or its link has failed),
// reads on surviving stripes succeed, reads on dead stripes fail fast with
// an I/O error, and writes/trims touching the dead member fail fast AND
// latch an errseq-style deferred error that the next FlushBarrier/TxCommit
// reports once — mirroring the per-device SATA latch one level up.
// RebootMember() re-integrates the member and resolves its in-doubt state.
#ifndef XFTL_HOST_VOLUME_H_
#define XFTL_HOST_VOLUME_H_

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/sim_clock.h"
#include "storage/block_device.h"
#include "storage/sim_ssd.h"
#include "trace/tracer.h"

namespace xftl::host {

struct VolumeConfig {
  uint32_t num_devices = 1;
  // Pages per stripe unit. Small units spread one database across members
  // (bank-style parallelism); large units approximate per-file placement.
  uint32_t stripe_pages = 64;
  // Device profile; every member is built from this one spec.
  storage::SsdSpec spec;
  // Cross-device two-phase commit for multi-participant transactions.
  // false = unsafe serial fan-out, kept as the ablation baseline.
  bool two_phase_commit = true;
};

class StripedVolume : public storage::TxBlockDevice {
 public:
  // All members share `clock`; there is exactly one timeline, so members
  // cannot drift (see SimClock's ownership notes).
  StripedVolume(const VolumeConfig& config, SimClock* clock);
  ~StripedVolume() override;

  StripedVolume(const StripedVolume&) = delete;
  StripedVolume& operator=(const StripedVolume&) = delete;

  // --- geometry ------------------------------------------------------------
  struct Location {
    uint32_t device = 0;
    uint64_t lpn = 0;  // member-local logical page
  };
  Location Map(uint64_t lpn) const;
  // Inverse of Map (bijection round-trip; tests exercise it).
  uint64_t Unmap(uint32_t device, uint64_t dev_lpn) const;

  uint32_t num_devices() const { return uint32_t(members_.size()); }
  uint32_t stripe_pages() const { return config_.stripe_pages; }
  uint64_t pages_per_device() const { return per_device_pages_; }
  storage::SimSsd* member(uint32_t i) { return members_[i].get(); }
  const storage::SimSsd* member(uint32_t i) const { return members_[i].get(); }
  SimClock* clock() { return clock_; }

  // --- BlockDevice ---------------------------------------------------------
  uint32_t page_size() const override;
  uint64_t num_pages() const override { return num_pages_; }
  Status Read(uint64_t page, uint8_t* data) override;
  Status Write(uint64_t page, const uint8_t* data) override;
  Status WriteBatch(const uint64_t* pages, const uint8_t* const* datas,
                    size_t n, size_t* accepted = nullptr) override;
  Status Trim(uint64_t page) override;
  // Durability barrier across the online members; reports (and clears) the
  // volume's deferred error from writes that hit an offline member. Each
  // member's FlushBarrier decides its own meaning (order-only on barrier
  // firmware), except that with several barrier-firmware members the epochs
  // cannot order writes ACROSS members, so the volume completion-waits
  // (AwaitDurable per member) to keep the cross-member orderings the fsync
  // paths depend on.
  Status FlushBarrier() override;

  // --- TxBlockDevice -------------------------------------------------------
  bool SupportsTransactions() const override;
  Status TxRead(storage::TxId t, uint64_t page, uint8_t* data) override;
  Status TxWrite(storage::TxId t, uint64_t page, const uint8_t* data) override;
  Status TxWriteBatch(storage::TxId t, const uint64_t* pages,
                      const uint8_t* const* datas, size_t n,
                      size_t* accepted = nullptr) override;
  // Two-phase across multi-member participant sets (see header comment);
  // plain member-local commit for a single participant.
  Status TxCommit(storage::TxId t) override;
  Status TxAbort(storage::TxId t) override;

  // Members a transaction has written (and not yet committed/aborted) on.
  // Empty set = unknown/idle transaction.
  std::set<uint32_t> Participants(storage::TxId t) const;

  // --- MVCC snapshot reads -------------------------------------------------
  // A volume-level pin is one pin on every member taken back to back on the
  // shared timeline; the returned token maps to the per-member epochs. Pins
  // are volatile per member: a member power cut discards its side of every
  // pin, so SnapRead on that member's stripes fails until the reader
  // re-pins (SnapUnpin of the half-dead token stays a clean no-op there).
  bool SupportsSnapshots() const override;
  StatusOr<uint64_t> SnapPin() override;
  Status SnapUnpin(uint64_t token) override;
  Status SnapRead(uint64_t token, uint64_t page, uint8_t* data) override;

  // --- power and fault domains ---------------------------------------------
  // Same-instant array power cycle: cut every member, then reboot every
  // member (ascending, so the coordinator's records are back first), then
  // resolve in-doubt transactions array-wide. Open-transaction participant
  // tracking is volatile and resets with the members' front-ends.
  Status PowerCycle();
  // Per-member fault domain. CutPowerMember pulls one member's plug (no
  // clock advance — the cut is instantaneous on the shared timeline);
  // RebootMember recovers it, aborts survivors' halves of transactions the
  // dead member doomed, resolves in-doubt state against the coordinator's
  // commit records, and releases records that settled.
  void CutPowerMember(uint32_t i);
  Status RebootMember(uint32_t i);
  Status PowerCycleMember(uint32_t i);
  bool MemberOnline(uint32_t i) const { return powered_[i]; }
  // True while any member is offline (reads on its stripes fail fast).
  bool Degraded() const;

  // Pending errseq-style error latched by a write/trim that touched an
  // offline member; the next FlushBarrier/TxCommit reports and clears it.
  bool has_deferred_error() const { return !deferred_error_.ok(); }

  // --- crash-scripting hooks (tests) ---------------------------------------
  // One-shot: during the next multi-participant TxCommit, cut power on
  // `member` after every participant prepared but before the commit record
  // is written — the canonical "member dies between PREPARE and COMMIT".
  void ScriptCutAfterPrepare(uint32_t member) { cut_after_prepare_ = member; }
  // One-shot: arm the coordinator's flash so the very next program — the
  // first page of the commit record's X-L2P snapshot — tears mid-write.
  // The record never becomes durable and recovery must abort everywhere.
  void ScriptTearCommitRecord() { tear_commit_record_ = true; }

  // Dumps every member's flash to "<prefix>.<k>.img" with the array
  // placement recorded (image format v2), so `xftl_fsck --image=... ×N`
  // can cross-check the set offline (check::CheckArray). The members keep
  // running; the dump is the powered-off view of this instant.
  Status SaveMemberImages(const std::string& prefix);

  // Fans the tracer into every member's in-drive layers and keeps it for
  // volume-level kMemberFault events.
  void SetTracer(trace::Tracer* tracer);

 private:
  // Distributes `n` (page, data) pairs into per-member batches, preserving
  // input order within each member, issues them in ascending device order,
  // and reports `accepted` as the longest *prefix* of the input whose pages
  // were all durably accepted (the contract callers reissue against).
  Status FanOutBatch(storage::TxId t, const uint64_t* pages,
                     const uint8_t* const* datas, size_t n, size_t* accepted);
  // IoError for an offline member, OK otherwise.
  Status CheckMember(uint32_t dev) const;
  // Aborts `t` on every ONLINE member of `parts` (offline members resolve
  // at reboot); returns the first abort failure, for logging only.
  void AbortOn(const std::set<uint32_t>& parts, storage::TxId t);
  // Post-reboot array recovery: resolve every online member's in-doubt
  // transactions against the coordinator's records (REDO forward when the
  // record is durable, abort otherwise), flush members that rolled forward,
  // then release records with no in-doubt member left. Skipped entirely
  // while the coordinator is offline — in-doubt state must wait for it.
  Status ResolveInDoubtArray();
  void DeferError(const Status& s);
  Status TakeDeferredError();
  void NoteMemberFault(uint32_t member, bool offline);

  const VolumeConfig config_;
  SimClock* const clock_;
  std::vector<std::unique_ptr<storage::SimSsd>> members_;
  std::vector<bool> powered_;  // per-member fault domain state
  uint64_t per_device_pages_ = 0;  // whole stripe units only
  uint64_t num_pages_ = 0;
  // TxId -> members with uncommitted writes; std::map for deterministic
  // fan-out order independent of allocation behavior.
  std::map<storage::TxId, std::set<uint32_t>> participants_;
  Status deferred_error_;
  trace::Tracer* tracer_ = nullptr;
  // Volume snapshot pins: token -> per-member pinned epoch. Tokens are
  // host-side state (the members only know their own epochs), so they do
  // not survive an array power cycle — matching the members' volatile pins.
  uint64_t next_snap_token_ = 1;
  std::map<uint64_t, std::vector<uint64_t>> snap_pins_;
  // Crash-scripting hooks (one-shot).
  int64_t cut_after_prepare_ = -1;
  bool tear_commit_record_ = false;
};

}  // namespace xftl::host

#endif  // XFTL_HOST_VOLUME_H_
