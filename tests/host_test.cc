// Host layer tests: striped-volume geometry, the session scheduler's
// determinism and overlap model, and concurrent-session transaction
// isolation across an array power cut.
//
//   * Stripe geometry — Map/Unmap is a bijection between the volume's
//     logical space and (device, local-lpn) pairs at several stripe sizes
//     and device counts, and batches fan out to the right members.
//   * Isolation + crash — multiple sessions on their own databases,
//     interleaved by the scheduler over a striped array, survive a mid-run
//     power cut of the WHOLE array (same simulated instant, every member)
//     with crash-sweep ACID invariants per session; fsck runs on every
//     member at reboot.
//   * Determinism — two identical seeded runs produce bit-identical
//     per-device FtlStats and identical makespans.
//   * Overlap — N sessions finish N * K transactions in less simulated
//     time than N * (time one session needs for K): device waits overlap,
//     host occupancy serializes per session.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "check/flash_image.h"
#include "check/xftl_fsck.h"
#include "common/sim_clock.h"
#include "host/scheduler.h"
#include "host/session.h"
#include "host/volume.h"
#include "workload/harness.h"

namespace xftl::host {
namespace {

// Small geometry (the crash-sweep spec): fast to build, quick to fill, and
// already proven out by the single-device ACID sweep.
storage::SsdSpec SmallSpec() {
  storage::SsdSpec spec = storage::OpenSsdSpec(64, 0.6);
  spec.flash.page_size = 1024;
  spec.flash.pages_per_block = 16;
  spec.flash.num_blocks = 256;
  spec.ftl.meta_blocks = 6;
  spec.ftl.min_free_blocks = 4;
  spec.ftl.num_logical_pages = 2600;
  spec.xftl.xl2p_capacity = 180;
  spec.transactional = true;
  return spec;
}

// --- stripe geometry --------------------------------------------------------

TEST(StripedVolumeTest, MapUnmapBijection) {
  for (uint32_t devices : {1u, 2u, 3u, 4u, 8u}) {
    for (uint32_t stripe : {1u, 7u, 64u, 256u}) {
      SimClock clock;
      VolumeConfig vc;
      vc.num_devices = devices;
      vc.stripe_pages = stripe;
      vc.spec = SmallSpec();
      StripedVolume vol(vc, &clock);

      ASSERT_GT(vol.num_pages(), 0u);
      ASSERT_EQ(vol.num_pages() % (uint64_t(stripe) * devices), 0u)
          << "capacity is whole stripe rows";
      // Every lpn maps to a unique (device, local) pair and back.
      std::vector<std::set<uint64_t>> seen(devices);
      for (uint64_t lpn = 0; lpn < vol.num_pages(); ++lpn) {
        StripedVolume::Location loc = vol.Map(lpn);
        ASSERT_LT(loc.device, devices);
        ASSERT_LT(loc.lpn, vol.pages_per_device());
        ASSERT_TRUE(seen[loc.device].insert(loc.lpn).second)
            << "collision at lpn " << lpn;
        ASSERT_EQ(vol.Unmap(loc.device, loc.lpn), lpn);
      }
      // Onto: every member page in range is hit exactly once.
      for (uint32_t d = 0; d < devices; ++d) {
        EXPECT_EQ(seen[d].size(), vol.pages_per_device());
      }
      // Consecutive pages within one stripe unit stay on one device;
      // consecutive units rotate.
      if (stripe > 1) {
        EXPECT_EQ(vol.Map(0).device, vol.Map(stripe - 1).device);
      }
      if (devices > 1) {
        EXPECT_NE(vol.Map(0).device, vol.Map(stripe).device);
      }
    }
  }
}

TEST(StripedVolumeTest, WriteReadAcrossMembers) {
  SimClock clock;
  VolumeConfig vc;
  vc.num_devices = 4;
  vc.stripe_pages = 2;
  vc.spec = SmallSpec();
  StripedVolume vol(vc, &clock);

  const uint32_t ps = vol.page_size();
  std::vector<uint8_t> buf(ps), back(ps);
  // One page per member, via the volume's flat space.
  for (uint64_t lpn : {0ull, 2ull, 4ull, 6ull, 8ull}) {
    std::fill(buf.begin(), buf.end(), uint8_t(0xA0 + lpn));
    ASSERT_TRUE(vol.Write(lpn, buf.data()).ok());
  }
  ASSERT_TRUE(vol.FlushBarrier().ok());
  for (uint64_t lpn : {0ull, 2ull, 4ull, 6ull, 8ull}) {
    ASSERT_TRUE(vol.Read(lpn, back.data()).ok());
    EXPECT_EQ(back[0], uint8_t(0xA0 + lpn)) << "lpn " << lpn;
  }
  // lpns 0,2,4,6 land on members 0..3; 8 wraps to member 0 again.
  EXPECT_EQ(vol.Map(0).device, 0u);
  EXPECT_EQ(vol.Map(2).device, 1u);
  EXPECT_EQ(vol.Map(6).device, 3u);
  EXPECT_EQ(vol.Map(8).device, 0u);
}

TEST(StripedVolumeTest, BatchFansOutAndCommitReachesParticipantsOnly) {
  SimClock clock;
  VolumeConfig vc;
  vc.num_devices = 4;
  vc.stripe_pages = 1;
  vc.spec = SmallSpec();
  StripedVolume vol(vc, &clock);
  ASSERT_TRUE(vol.SupportsTransactions());

  const uint32_t ps = vol.page_size();
  std::vector<std::vector<uint8_t>> bufs;
  std::vector<const uint8_t*> datas;
  std::vector<uint64_t> pages;
  // Six pages touching members 0,1,2 but not 3 (stripe=1: lpn % 4).
  for (uint64_t lpn : {0ull, 1ull, 2ull, 4ull, 5ull, 6ull}) {
    pages.push_back(lpn);
    bufs.emplace_back(ps, uint8_t(lpn + 1));
    datas.push_back(bufs.back().data());
  }
  const storage::TxId t = 77;
  size_t accepted = 0;
  ASSERT_TRUE(
      vol.TxWriteBatch(t, pages.data(), datas.data(), pages.size(), &accepted)
          .ok());
  EXPECT_EQ(accepted, pages.size());
  EXPECT_EQ(vol.Participants(t), (std::set<uint32_t>{0, 1, 2}));

  ASSERT_TRUE(vol.TxCommit(t).ok());
  EXPECT_TRUE(vol.Participants(t).empty());
  // Committed data reads back through the volume.
  std::vector<uint8_t> back(ps);
  for (size_t i = 0; i < pages.size(); ++i) {
    ASSERT_TRUE(vol.Read(pages[i], back.data()).ok());
    EXPECT_EQ(back[0], uint8_t(pages[i] + 1));
  }
}

// --- barrier ordering across members ----------------------------------------

// Epoch-prefix durability is a per-member promise, so a multi-member volume
// must serve FlushBarrier() with completion-wait semantics under barrier
// firmware: when it returns, no member still holds an in-flight program an
// earlier-ordered write on a DIFFERENT member could be lost behind. A cut
// right after the barrier must never persist a post-barrier write on one
// member while a pre-barrier write on another is lost.
TEST(ArrayBarrierTest, MultiMemberBarrierCompletionWaits) {
  SimClock clock;
  VolumeConfig vc;
  vc.num_devices = 3;
  vc.stripe_pages = 1;
  vc.spec = SmallSpec();
  vc.spec.ftl.commit_mode = ftl::CommitMode::kBarrier;
  StripedVolume vol(vc, &clock);

  const uint32_t ps = vol.page_size();
  std::vector<uint8_t> buf(ps, 0x5a);
  // Three pages per member (stripe=1: lpn % 3); tPROG far outlasts the
  // host-side submits, so programs are still in flight when the barrier
  // runs.
  for (uint64_t lpn = 0; lpn < 9; ++lpn) {
    ASSERT_TRUE(vol.Write(lpn, buf.data()).ok());
  }
  ASSERT_TRUE(vol.FlushBarrier().ok());
  for (uint32_t m = 0; m < vc.num_devices; ++m) {
    EXPECT_EQ(vol.member(m)->device()->InflightCommands(), 0u)
        << "member " << m << " still had queued programs after the barrier";
  }
}

TEST(ArrayBarrierTest, SingleMemberBarrierStaysOrderOnly) {
  SimClock clock;
  VolumeConfig vc;
  vc.num_devices = 1;
  vc.stripe_pages = 1;
  vc.spec = SmallSpec();
  vc.spec.ftl.commit_mode = ftl::CommitMode::kBarrier;
  StripedVolume vol(vc, &clock);

  const uint32_t ps = vol.page_size();
  std::vector<uint8_t> buf(ps, 0xa5);
  for (uint64_t lpn = 0; lpn < 8; ++lpn) {
    ASSERT_TRUE(vol.Write(lpn, buf.data()).ok());
  }
  // One member: epoch ordering inside its controller suffices, the barrier
  // pays only the command overhead and leaves the pipeline full.
  const SimNanos t0 = clock.Now();
  ASSERT_TRUE(vol.FlushBarrier().ok());
  EXPECT_EQ(clock.Now() - t0, vc.spec.sata.command_overhead);
  EXPECT_GT(vol.member(0)->device()->InflightCommands(), 0u)
      << "order-only barrier must not drain the queue";
}

// --- scheduler: overlap and determinism -------------------------------------

workload::HarnessConfig ArrayConfig(uint32_t devices, uint64_t seed = 42) {
  workload::HarnessConfig hc;
  hc.setup = workload::Setup::kXftl;
  hc.device_blocks = 128;
  hc.num_devices = devices;
  hc.stripe_pages = 8;
  hc.fs_cache_pages = 128;
  hc.db_cache_pages = 64;
  hc.seed = seed;
  return hc;
}

workload::MultiSessionConfig Fleet(uint32_t sessions, uint64_t txns) {
  workload::MultiSessionConfig mc;
  mc.sessions = sessions;
  mc.txns_per_session = txns;
  mc.open_loop = true;
  mc.rate_per_sec = 2000.0;  // arrivals outrun service: the array saturates
  mc.rows_per_txn = 3;
  mc.explicit_txn = true;
  return mc;
}

TEST(SessionSchedulerTest, DeviceWaitsOverlapAcrossSessions) {
  // One session running 4K transactions...
  SimNanos solo;
  {
    workload::Harness h(ArrayConfig(2));
    ASSERT_TRUE(h.Setup().ok());
    auto r = h.RunMultiSession(Fleet(1, 40));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->run_status.ok()) << r->run_status.ToString();
    EXPECT_EQ(r->committed, 40u);
    solo = r->makespan;
  }
  // ...versus four sessions running 4 x 1K: same total work, but the device
  // waits overlap, so the array finishes in well under 4x the solo time.
  SimNanos fleet;
  {
    workload::Harness h(ArrayConfig(2));
    ASSERT_TRUE(h.Setup().ok());
    auto r = h.RunMultiSession(Fleet(4, 10));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->run_status.ok()) << r->run_status.ToString();
    EXPECT_EQ(r->committed, 40u);
    fleet = r->makespan;
    // Every session actually waited on the device at some point (the split
    // is being measured, not defaulted).
    for (const auto& s : r->sessions) {
      EXPECT_GT(s.busy, 0u) << "session " << s.id;
      EXPECT_EQ(s.dispatched, 10u);
    }
  }
  EXPECT_LT(fleet, solo) << "4 concurrent sessions should beat 1 session "
                            "doing the same total work";
}

TEST(SessionSchedulerTest, SeededRunsAreBitDeterministic) {
  auto run = [](std::vector<ftl::FtlStats>* stats, SimNanos* makespan,
                uint64_t* committed) {
    workload::Harness h(ArrayConfig(3, /*seed=*/1234));
    ASSERT_TRUE(h.Setup().ok());
    workload::MultiSessionConfig mc = Fleet(5, 12);
    auto r = h.RunMultiSession(mc);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->run_status.ok()) << r->run_status.ToString();
    *makespan = r->makespan;
    *committed = r->committed;
    for (uint32_t i = 0; i < h.num_devices(); ++i) {
      stats->push_back(h.ssd(i)->ftl()->stats());
    }
  };
  std::vector<ftl::FtlStats> first, second;
  SimNanos mk1 = 0, mk2 = 0;
  uint64_t c1 = 0, c2 = 0;
  run(&first, &mk1, &c1);
  run(&second, &mk2, &c2);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(mk1, mk2);
  EXPECT_EQ(c1, c2);
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(first[i] == second[i])
        << "per-device FtlStats diverged on device " << i;
  }
}

// --- concurrent sessions across an array power cut --------------------------

TEST(HostCrashTest, SessionsRecoverAfterArrayPowerCut) {
  // Two sessions, two databases, interleaved commits on a 2-device array;
  // the cut fires mid-run on member 0's flash (one rail: CrashAndRecover
  // cuts EVERY member at that same instant). Every member runs xftl_fsck on
  // reboot.
  workload::HarnessConfig hc;
  hc.setup = workload::Setup::kXftl;
  hc.device_blocks = 64;
  hc.num_devices = 2;
  hc.stripe_pages = 4;
  hc.fs_cache_pages = 64;
  hc.db_cache_pages = 16;  // small: forces steals mid-transaction
  hc.seed = 99;
  workload::Harness h(hc);
  ASSERT_TRUE(h.Setup().ok());

  // Arm the power failure a few hundred programs in, on member 0. The
  // whole array dies together when the harness power-cycles the volume.
  h.ssd(0)->flash()->ArmCrashPlan(
      {.crash_after_programs = 400, .persist_prob = 1.0});

  workload::MultiSessionConfig mc;
  mc.sessions = 2;
  mc.txns_per_session = 400;  // far beyond the failure point
  mc.open_loop = false;       // closed loop: steady interleaving
  mc.think_time = 0;
  mc.rows_per_txn = 3;
  mc.explicit_txn = true;
  auto r = h.RunMultiSession(mc);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->run_status.ok()) << "armed cut should have fired mid-run";
  std::vector<uint64_t> acked(mc.sessions);
  uint64_t total_acked = 0;
  for (const auto& s : r->sessions) {
    acked[s.id - 1] = s.committed;
    total_acked += s.committed;
  }
  ASSERT_GT(total_acked, 0u) << "cut fired before any commit";

  // Same-instant array power cycle + remount (fsck on both members inside).
  ASSERT_TRUE(h.CrashAndRecover().ok());

  // Each session's database recovers independently with full crash-sweep
  // ACID invariants. X-FTL acknowledges a commit only after it is durable,
  // and the scheduler dispatches whole transactions, so nothing
  // acknowledged may be lost (tolerance 0).
  for (uint32_t k = 1; k <= mc.sessions; ++k) {
    auto db = h.OpenDatabase("s" + std::to_string(k) + ".db");
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto survived =
        Session::VerifyRecovered(*db, mc.rows_per_txn, acked[k - 1]);
    ASSERT_TRUE(survived.ok())
        << "session " << k << ": " << survived.status().ToString();
    EXPECT_GE(*survived, acked[k - 1]) << "session " << k;
  }

  // And the array keeps working: a fresh fleet on the recovered stack.
  workload::MultiSessionConfig again;
  again.sessions = 2;
  again.txns_per_session = 5;
  again.open_loop = false;
  again.rows_per_txn = 3;
  again.explicit_txn = true;
  // Fresh database files (the harness reuses "s<k>.db" names; sessions
  // there already hold rows, so reuse the same files by driving sessions
  // directly instead).
  for (uint32_t k = 1; k <= again.sessions; ++k) {
    auto db = h.OpenDatabase("s" + std::to_string(k) + ".db");
    ASSERT_TRUE(db.ok());
    auto ins = (*db)->Exec("INSERT INTO t VALUES (99991, 699937, 'v99991')");
    // Post-recovery writes may only fail with a clean media-exhaustion
    // signal (same contract as the single-device sweep).
    if (!ins.ok()) {
      EXPECT_EQ(ins.status().code(), StatusCode::kResourceExhausted);
    } else {
      ASSERT_TRUE((*db)->Exec("DELETE FROM t WHERE id = 99991").ok());
    }
  }
}

// --- cross-device atomic commit ----------------------------------------------

// Builds a 3-member, stripe-1 volume (lpn k lives on member k % 3) with an
// already-committed baseline value in pages 0..2, one per member.
struct ArrayFixture {
  SimClock clock;
  std::unique_ptr<StripedVolume> vol;
  uint32_t ps = 0;

  explicit ArrayFixture(VolumeConfig vc) {
    vol = std::make_unique<StripedVolume>(vc, &clock);
    ps = vol->page_size();
  }
  static VolumeConfig ThreeWide() {
    VolumeConfig vc;
    vc.num_devices = 3;
    vc.stripe_pages = 1;
    vc.spec = SmallSpec();
    return vc;
  }
  void SeedBaseline(uint8_t value) {
    std::vector<uint8_t> buf(ps, value);
    for (uint64_t lpn : {0ull, 1ull, 2ull}) {
      ASSERT_TRUE(vol->Write(lpn, buf.data()).ok()) << "lpn " << lpn;
    }
    ASSERT_TRUE(vol->FlushBarrier().ok());
  }
  // Opens transaction `t` with one dirty page on every member.
  void WriteAllMembers(storage::TxId t, uint8_t value) {
    std::vector<uint8_t> buf(ps, value);
    for (uint64_t lpn : {0ull, 1ull, 2ull}) {
      ASSERT_TRUE(vol->TxWrite(t, lpn, buf.data()).ok()) << "lpn " << lpn;
    }
    ASSERT_EQ(vol->Participants(t), (std::set<uint32_t>{0, 1, 2}));
  }
  // The committed value visible at `lpn`, or nullopt if the read fails.
  void ExpectValue(uint64_t lpn, uint8_t want) {
    std::vector<uint8_t> back(ps);
    ASSERT_TRUE(vol->Read(lpn, back.data()).ok()) << "lpn " << lpn;
    EXPECT_EQ(back[0], want) << "lpn " << lpn;
  }
};

TEST(ArrayCommitTest, MemberDiesBetweenPrepareAndCommitRollsForward) {
  ArrayFixture f(ArrayFixture::ThreeWide());
  f.SeedBaseline(0x11);

  const storage::TxId t = 500;
  f.WriteAllMembers(t, 0x22);
  // Member 1's plug is pulled after every participant PREPAREd but before
  // the coordinator's commit record — the classic in-doubt window.
  f.vol->ScriptCutAfterPrepare(1);
  Status cs = f.vol->TxCommit(t);
  ASSERT_FALSE(cs.ok()) << "phase-2 fan-out hit a dead member";
  EXPECT_TRUE(f.vol->Degraded());
  EXPECT_FALSE(f.vol->MemberOnline(1));

  // The record was durable before the fan-out, so the transaction IS
  // committed: survivors already show the new value, and the record is
  // retained for the member that missed phase 2.
  EXPECT_TRUE(f.vol->member(0)->device()->HasCommitRecord(t));
  f.ExpectValue(0, 0x22);
  f.ExpectValue(2, 0x22);
  std::vector<uint8_t> back(f.ps);
  EXPECT_FALSE(f.vol->Read(1, back.data()).ok()) << "dead stripe fails fast";

  // Reboot resolves the in-doubt member FORWARD off the record, then
  // releases it: all members end identical, exactly-once.
  ASSERT_TRUE(f.vol->RebootMember(1).ok());
  EXPECT_FALSE(f.vol->Degraded());
  for (uint64_t lpn : {0ull, 1ull, 2ull}) f.ExpectValue(lpn, 0x22);
  EXPECT_EQ(f.vol->member(1)->device()->stats().resolve_commands, 1u);
  EXPECT_FALSE(f.vol->member(0)->device()->HasCommitRecord(t));
  EXPECT_TRUE(f.vol->member(0)->device()->CommitRecords().empty());
  for (uint32_t m = 0; m < 3; ++m) {
    EXPECT_TRUE(f.vol->member(m)->device()->InDoubtTransactions().empty())
        << "member " << m;
  }
}

TEST(ArrayCommitTest, FullArrayCutAfterPrepareResolvesIdentically) {
  // Same in-doubt window, but the whole rail dies before the victim is
  // rebooted: array recovery must reach the same outcome as the
  // member-only reboot (commit everywhere — the record was durable).
  ArrayFixture f(ArrayFixture::ThreeWide());
  f.SeedBaseline(0x11);

  const storage::TxId t = 501;
  f.WriteAllMembers(t, 0x33);
  f.vol->ScriptCutAfterPrepare(1);
  ASSERT_FALSE(f.vol->TxCommit(t).ok());
  ASSERT_TRUE(f.vol->member(0)->device()->HasCommitRecord(t));

  ASSERT_TRUE(f.vol->PowerCycle().ok());
  for (uint64_t lpn : {0ull, 1ull, 2ull}) f.ExpectValue(lpn, 0x33);
  EXPECT_TRUE(f.vol->member(0)->device()->CommitRecords().empty());
  for (uint32_t m = 0; m < 3; ++m) {
    EXPECT_TRUE(f.vol->member(m)->device()->InDoubtTransactions().empty())
        << "member " << m;
  }
}

TEST(ArrayCommitTest, TornCommitRecordAbortsEverywhere) {
  // The coordinator's flash tears mid-way through the commit record
  // program: the record never becomes durable, so the transaction never
  // happened — recovery must abort every prepared member back to the
  // baseline (no member may keep the new version).
  ArrayFixture f(ArrayFixture::ThreeWide());
  f.SeedBaseline(0x44);

  const storage::TxId t = 502;
  f.WriteAllMembers(t, 0x55);
  f.vol->ScriptTearCommitRecord();
  ASSERT_FALSE(f.vol->TxCommit(t).ok())
      << "record write tore on the coordinator";

  ASSERT_TRUE(f.vol->PowerCycle().ok());
  for (uint64_t lpn : {0ull, 1ull, 2ull}) f.ExpectValue(lpn, 0x44);
  EXPECT_TRUE(f.vol->member(0)->device()->CommitRecords().empty());
  for (uint32_t m = 0; m < 3; ++m) {
    EXPECT_TRUE(f.vol->member(m)->device()->InDoubtTransactions().empty())
        << "member " << m;
  }
}

TEST(ArrayCommitTest, FsckCrossChecksMemberImages) {
  // End-to-end offline check: dump the member images mid-in-doubt-window
  // and run check::CheckArray over them — exactly what
  // `xftl_fsck --image=a.0.img --image=a.1.img --image=a.2.img` does.
  ArrayFixture f(ArrayFixture::ThreeWide());
  f.SeedBaseline(0x11);
  const storage::TxId t = 600;
  f.WriteAllMembers(t, 0x22);
  f.vol->ScriptCutAfterPrepare(1);
  ASSERT_FALSE(f.vol->TxCommit(t).ok());
  // State now: record durable on member 0, members 0/2 committed, member 1
  // powered off holding durable PREPARED (in-doubt) entries.

  const std::string prefix = ::testing::TempDir() + "xftl_array_fsck";
  ASSERT_TRUE(f.vol->SaveMemberImages(prefix).ok());
  SimClock img_clock;
  std::vector<check::LoadedImage> members;
  for (uint32_t m = 0; m < 3; ++m) {
    auto img = check::LoadImage(prefix + "." + std::to_string(m) + ".img",
                                &img_clock);
    ASSERT_TRUE(img.ok()) << img.status().ToString();
    members.push_back(std::move(*img));
  }

  // The in-doubt window is CONSISTENT: the record covers the prepared tid.
  check::FsckReport rep = check::CheckArray(members);
  EXPECT_TRUE(rep.ok()) << rep.Summary();
  EXPECT_GE(rep.counters.in_doubt_entries, 1u);
  EXPECT_GE(rep.counters.commit_records, 1u);

  // An incomplete member set is a bijection failure.
  std::vector<check::LoadedImage> partial;
  partial.push_back(std::move(members[0]));
  partial.push_back(std::move(members[2]));
  check::FsckReport bad = check::CheckArray(partial);
  EXPECT_FALSE(bad.ok());

  // Doctor the coordinator: durably release the record while member 1 is
  // still in doubt — now recovery would abort member 1 against a
  // transaction members 0/2 committed, and the checker must say so.
  ASSERT_TRUE(f.vol->member(0)->device()->ReleaseCommitRecord(t).ok());
  ASSERT_TRUE(f.vol->member(0)->device()->FlushBarrier().ok());
  ASSERT_TRUE(f.vol->SaveMemberImages(prefix + "_torn").ok());
  std::vector<check::LoadedImage> torn;
  for (uint32_t m = 0; m < 3; ++m) {
    auto img = check::LoadImage(
        prefix + "_torn." + std::to_string(m) + ".img", &img_clock);
    ASSERT_TRUE(img.ok()) << img.status().ToString();
    torn.push_back(std::move(*img));
  }
  check::FsckReport tear = check::CheckArray(torn);
  ASSERT_FALSE(tear.ok()) << "released record with a member still in doubt";
  bool mentions_record = false;
  for (const std::string& e : tear.errors) {
    if (e.find("commit record") != std::string::npos) mentions_record = true;
  }
  EXPECT_TRUE(mentions_record) << tear.Summary();
}

// --- degraded arrays ---------------------------------------------------------

TEST(DegradedArrayTest, ReadsSurviveWritesLatchDeferredError) {
  ArrayFixture f(ArrayFixture::ThreeWide());
  f.SeedBaseline(0x66);

  f.vol->CutPowerMember(1);
  EXPECT_TRUE(f.vol->Degraded());
  EXPECT_FALSE(f.vol->MemberOnline(1));
  EXPECT_TRUE(f.vol->MemberOnline(0));

  // Surviving stripes keep serving; the dead stripe fails fast.
  f.ExpectValue(0, 0x66);
  f.ExpectValue(2, 0x66);
  std::vector<uint8_t> buf(f.ps, 0x77);
  EXPECT_FALSE(f.vol->Read(1, buf.data()).ok());

  // A write into the dead member fails fast AND latches the volume's
  // errseq: the next barrier reports it once, then the latch is clear.
  EXPECT_FALSE(f.vol->Write(1, buf.data()).ok());
  EXPECT_TRUE(f.vol->has_deferred_error());
  EXPECT_FALSE(f.vol->FlushBarrier().ok());
  EXPECT_FALSE(f.vol->has_deferred_error());
  EXPECT_TRUE(f.vol->FlushBarrier().ok());

  // Surviving stripes still accept writes while degraded.
  ASSERT_TRUE(f.vol->Write(0, buf.data()).ok());
  ASSERT_TRUE(f.vol->FlushBarrier().ok());
  f.ExpectValue(0, 0x77);

  // Re-integration: the member comes back and its stripe serves again.
  ASSERT_TRUE(f.vol->RebootMember(1).ok());
  EXPECT_FALSE(f.vol->Degraded());
  f.ExpectValue(1, 0x66);
}

TEST(DegradedArrayTest, BatchPrefixStopsAtOfflineMember) {
  // Regression for the fan-out `accepted` contract: a batch spanning an
  // offline member must report only the longest durable input PREFIX, not
  // silently count the dead member's pages accepted.
  ArrayFixture f(ArrayFixture::ThreeWide());
  f.SeedBaseline(0x11);
  f.vol->CutPowerMember(1);

  std::vector<std::vector<uint8_t>> bufs;
  std::vector<const uint8_t*> datas;
  std::vector<uint64_t> pages;
  for (uint64_t lpn : {0ull, 1ull, 2ull}) {  // members 0, 1(dead), 2
    pages.push_back(lpn);
    bufs.emplace_back(f.ps, uint8_t(0x80 + lpn));
    datas.push_back(bufs.back().data());
  }
  size_t accepted = 99;
  Status s =
      f.vol->WriteBatch(pages.data(), datas.data(), pages.size(), &accepted);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(accepted, 1u) << "prefix ends at the dead member's page";
  EXPECT_TRUE(f.vol->has_deferred_error());
  EXPECT_FALSE(f.vol->FlushBarrier().ok());

  // The surviving members' pages did land (reissue after repair is
  // idempotent); the dead page kept its baseline.
  f.ExpectValue(0, 0x80);
  f.ExpectValue(2, 0x82);
  ASSERT_TRUE(f.vol->RebootMember(1).ok());
  f.ExpectValue(1, 0x11);
}

TEST(DegradedArrayTest, ReadsSurviveWhileOneMemberLinkFailed) {
  // One member's SATA link is hostile (every transfer CRC-fails, no
  // retries, the first reset kills the link) while the rest of the array
  // is clean: reads on surviving stripes must keep succeeding.
  VolumeConfig vc = ArrayFixture::ThreeWide();
  vc.spec.link_policy.max_retries = 0;
  vc.spec.link_policy.degrade_after_resets = 1;
  vc.spec.link_policy.fail_after_resets = 2;
  ArrayFixture f(vc);
  // Every transfer this test can make on member 1 fails its CRC.
  for (uint64_t n = 1; n <= 16; ++n) {
    f.vol->member(1)->device()->ScriptCrcError(n);
  }

  // Seed only the healthy members (member 1 never accepts a transfer).
  std::vector<uint8_t> buf(f.ps, 0x42);
  ASSERT_TRUE(f.vol->Write(0, buf.data()).ok());
  ASSERT_TRUE(f.vol->Write(2, buf.data()).ok());
  ASSERT_TRUE(f.vol->FlushBarrier().ok());

  // The first command into member 1 dies on the link...
  std::vector<uint8_t> back(f.ps);
  EXPECT_FALSE(f.vol->Read(1, back.data()).ok());
  Status w = f.vol->Write(1, buf.data());
  if (w.ok()) {
    // Queued write: the loss must surface at the next barrier instead.
    EXPECT_FALSE(f.vol->FlushBarrier().ok());
  }
  // ...and the survivors keep serving their stripes regardless.
  f.ExpectValue(0, 0x42);
  f.ExpectValue(2, 0x42);
  EXPECT_GT(f.vol->member(1)->device()->stats().crc_errors, 0u);
}

// --- clock ownership ---------------------------------------------------------

TEST(SimClockOwnershipTest, SingleRewindOwnerIsEnforced) {
  SimClock clock;
  clock.Advance(1000);
  int token_a = 0;
  clock.AcquireRewind(&token_a);
  clock.Rewind(500, &token_a);
  EXPECT_EQ(clock.Now(), 500u);
  // A second owner, rewinding without the token, or resetting under an
  // attached scheduler all CHECK-fail.
  int token_b = 0;
  EXPECT_DEATH(clock.AcquireRewind(&token_b), "");
  EXPECT_DEATH(clock.Rewind(100, &token_b), "");
  EXPECT_DEATH(clock.Reset(), "");
  clock.ReleaseRewind(&token_a);
  clock.Reset();
  EXPECT_EQ(clock.Now(), 0u);
}

TEST(SimClockOwnershipTest, AdvanceToAccumulatesWaited) {
  SimClock clock;
  clock.Advance(100);          // occupancy: not waiting
  EXPECT_EQ(clock.waited(), 0u);
  clock.AdvanceTo(50);         // past: no-op
  EXPECT_EQ(clock.Now(), 100u);
  EXPECT_EQ(clock.waited(), 0u);
  clock.AdvanceTo(300);        // wait for a completion at t=300
  EXPECT_EQ(clock.Now(), 300u);
  EXPECT_EQ(clock.waited(), 200u);
}

}  // namespace
}  // namespace xftl::host
