// Per-member crash sweep: the array-level analogue of crash_sweep_test.
// One member of a 3-device striped volume is armed with a seeded CrashPlan
// (crash point, buffer survival and tear sampling all drawn from the seed),
// a fleet of sessions runs until the dying member fails a dispatch, and then
// ONLY that member power-cycles (CrashMemberAndRecover: the other fault
// domains keep their state). After the member reboots — running xftl_fsck on
// its recovered state and resolving its in-doubt transactions against the
// coordinator's commit records — every session's database must satisfy the
// full crash-sweep ACID contract:
//
//   * atomicity   — no transaction is half-visible across the array: a
//                   commit that was in its cross-device window resolves the
//                   same way on every member (the commit record decides);
//   * durability  — every acknowledged transaction survives (tolerance 0:
//                   X-FTL acks only after durable commit, and survivors
//                   never lost power);
//   * prefix      — surviving transactions form a prefix of the acked ones;
//   * integrity   — all surviving rows are self-consistent.
//
// Every member index takes a turn as the victim — including member 0, the
// commit-record coordinator itself. XFTL_ARRAY_SWEEP_SEEDS overrides the
// seed count per victim (CI runs 100 x 3 members = 300 cut points).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "host/session.h"
#include "workload/harness.h"

namespace xftl::workload {
namespace {

constexpr uint32_t kDevices = 3;

struct ArrayPoint {
  uint32_t victim = 0;             // member whose plug gets pulled
  uint64_t seed = 0;               // pins the plan AND the workload arrivals
  uint64_t crash_after_programs = 0;  // on the victim, from workload start
  double persist_prob = 0.5;
  // Barrier-firmware members: PREPARE rides an ordered barrier instead of a
  // drain, so the coordinator's explicit completion-waits are the only thing
  // standing between the cut and a cross-device atomicity violation. The
  // full ACID contract (tolerance 0 included) must still hold: the volume
  // acks a commit only after completion-waiting every member.
  bool barrier = false;
};

int SeedsPerVictim() {
  if (const char* env = std::getenv("XFTL_ARRAY_SWEEP_SEEDS")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 8;
}

std::vector<ArrayPoint> SweepPoints() {
  const double kPersistProbs[] = {0.25, 0.5, 0.75};
  const int per_victim = SeedsPerVictim();
  std::vector<ArrayPoint> points;
  for (bool barrier : {false, true}) {
    for (uint32_t victim = 0; victim < kDevices; ++victim) {
      for (int i = 0; i < per_victim; ++i) {
        ArrayPoint p;
        p.victim = victim;
        p.barrier = barrier;
        p.seed = (uint64_t(victim + 1) << 56) ^
                 (uint64_t(barrier) << 55) ^
                 ((uint64_t(i) + 1) * 0x9e3779b97f4a7c15ull);
        Rng rng(p.seed);
        // The victim sees ~1/kDevices of the array's programs; the range is
        // sized so essentially every point fires within the workload.
        p.crash_after_programs = 20 + rng.Uniform(400);
        p.persist_prob = kPersistProbs[rng.Uniform(3)];
        points.push_back(p);
      }
    }
  }
  return points;
}

void RunArrayCrashPoint(const ArrayPoint& point) {
  HarnessConfig hc;
  hc.setup = Setup::kXftl;
  hc.device_blocks = 96;
  hc.num_devices = kDevices;
  hc.stripe_pages = 4;  // small units: most transactions span members
  hc.fs_cache_pages = 64;
  hc.db_cache_pages = 16;  // small: forces steals mid-transaction
  hc.seed = point.seed;
  if (point.barrier) hc.commit_mode = ftl::CommitMode::kBarrier;
  Harness h(hc);
  ASSERT_TRUE(h.Setup().ok());

  // Arm the victim AFTER Setup so the crash point counts workload programs,
  // not mkfs traffic. The plan's tear/survival sampling is seed-pinned.
  flash::CrashPlan plan;
  plan.crash_after_programs = point.crash_after_programs;
  plan.seed = point.seed ^ 0xa11ac0deull;
  plan.persist_prob = point.persist_prob;
  h.ssd(point.victim)->flash()->ArmCrashPlan(plan);

  MultiSessionConfig mc;
  mc.sessions = 2;
  mc.txns_per_session = 400;  // far beyond the failure point
  mc.open_loop = false;       // closed loop: steady interleaving
  mc.think_time = 0;
  mc.rows_per_txn = 3;
  mc.explicit_txn = true;
  auto r = h.RunMultiSession(mc);
  std::vector<uint64_t> acked(mc.sessions, 0);
  if (r.ok()) {
    if (r->run_status.ok()) {
      GTEST_SKIP() << "crash point beyond this workload";
    }
    for (const auto& s : r->sessions) acked[s.id - 1] = s.committed;
  }
  // !r.ok(): the cut fired during stack assembly (opening the per-session
  // databases) — nothing was acked, but recovery must still settle the
  // array, so the point proceeds with acked = 0 everywhere.

  // Only the victim's fault domain cycles; its reboot runs fsck and
  // resolves its in-doubt transactions against the coordinator's records.
  Status rec = h.CrashMemberAndRecover(point.victim);
  ASSERT_TRUE(rec.ok()) << rec.ToString();

  // Array-level settlement: nothing may remain in doubt anywhere once every
  // member is online, and every settled record must have been released.
  host::StripedVolume* vol = h.volume();
  ASSERT_NE(vol, nullptr);
  EXPECT_FALSE(vol->Degraded());
  for (uint32_t m = 0; m < kDevices; ++m) {
    EXPECT_TRUE(vol->member(m)->device()->InDoubtTransactions().empty())
        << "member " << m << " still holds in-doubt transactions";
  }
  EXPECT_TRUE(vol->member(0)->device()->CommitRecords().empty())
      << "settled commit records were not released";

  // Per-session ACID. Survivors never lost power and X-FTL acks only after
  // durable commit, so the durability tolerance is 0; a commit that died in
  // its cross-device window may surface as the single unacked +1 (the
  // record was durable, so recovery rolled it forward everywhere).
  for (uint32_t k = 1; k <= mc.sessions; ++k) {
    auto db = h.OpenDatabase("s" + std::to_string(k) + ".db");
    if (!db.ok() && acked[k - 1] == 0) continue;  // never durably created
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto survived =
        host::Session::VerifyRecovered(*db, mc.rows_per_txn, acked[k - 1]);
    if (!survived.ok() && acked[k - 1] == 0) {
      // The cut can land inside this session's CREATE TABLE; with nothing
      // acked there is nothing to verify.
      continue;
    }
    ASSERT_TRUE(survived.ok())
        << "session " << k << ": " << survived.status().ToString();
    EXPECT_GE(*survived, acked[k - 1]) << "session " << k;
  }
}

// A volume-level MVCC pin held across one member's power cut. Per-member
// pins are volatile, so after the victim reboots the token is half dead:
// the rebooted member must reject its stale epoch (FailedPrecondition —
// never silently serving post-pin data), surviving members keep serving
// theirs, unpinning the half-dead token stays a clean no-op, and a fresh
// pin sees exactly the live state on every member.
TEST(ArrayPinnedReaderTest, MemberPowerCutInvalidatesStaleEpoch) {
  constexpr uint32_t kVictim = 1;
  HarnessConfig hc;
  hc.setup = Setup::kXftl;
  hc.device_blocks = 96;
  hc.num_devices = kDevices;
  hc.stripe_pages = 4;
  hc.fs_cache_pages = 64;
  hc.db_cache_pages = 16;
  hc.seed = 7;
  Harness h(hc);
  ASSERT_TRUE(h.Setup().ok());
  host::StripedVolume* vol = h.volume();
  ASSERT_NE(vol, nullptr);

  // Pin the post-setup state on every member, then churn a workload over it
  // so the pin actually retains pre-images while the writers commit.
  auto pin = vol->SnapPin();
  ASSERT_TRUE(pin.ok()) << pin.status().ToString();
  const uint64_t token = pin.value();
  const uint32_t page_size = vol->page_size();
  // One stripe page per member: with stripe_pages = 4 and 3 members, pages
  // 0, 4 and 8 land on members 0, 1 and 2.
  const uint64_t member_page[kDevices] = {0, 4, 8};
  std::vector<uint8_t> pinned[kDevices];
  for (uint32_t m = 0; m < kDevices; ++m) {
    pinned[m].resize(page_size);
    ASSERT_TRUE(
        vol->SnapRead(token, member_page[m], pinned[m].data()).ok());
  }

  MultiSessionConfig mc;
  mc.sessions = 2;
  mc.txns_per_session = 30;
  mc.open_loop = false;
  mc.think_time = 0;
  mc.rows_per_txn = 3;
  mc.explicit_txn = true;
  auto r = h.RunMultiSession(mc);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->run_status.ok()) << r->run_status.ToString();

  // The pin still serves the pre-workload state on every member.
  for (uint32_t m = 0; m < kDevices; ++m) {
    std::vector<uint8_t> buf(page_size);
    ASSERT_TRUE(vol->SnapRead(token, member_page[m], buf.data()).ok());
    EXPECT_EQ(buf, pinned[m]) << "member " << m;
  }

  // Pull one member's plug and let the array settle its reboot.
  Status rec = h.CrashMemberAndRecover(kVictim);
  ASSERT_TRUE(rec.ok()) << rec.ToString();
  EXPECT_FALSE(vol->Degraded());

  // The rebooted member discarded its side of the pin; the survivors kept
  // theirs. The stale epoch is rejected on the victim's stripes only.
  EXPECT_EQ(h.ssd(kVictim)->xftl()->PinnedSnapshotCount(), 0u);
  for (uint32_t m = 0; m < kDevices; ++m) {
    if (m == kVictim) continue;
    EXPECT_EQ(h.ssd(m)->xftl()->PinnedSnapshotCount(), 1u) << "member " << m;
  }
  std::vector<uint8_t> buf(page_size);
  Status stale = vol->SnapRead(token, member_page[kVictim], buf.data());
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition)
      << stale.ToString();
  for (uint32_t m = 0; m < kDevices; ++m) {
    if (m == kVictim) continue;
    ASSERT_TRUE(vol->SnapRead(token, member_page[m], buf.data()).ok())
        << "member " << m;
    EXPECT_EQ(buf, pinned[m]) << "member " << m;
  }

  // Unpinning the half-dead token is a clean no-op on the rebooted member
  // and releases the survivors' pins.
  EXPECT_TRUE(vol->SnapUnpin(token).ok());
  for (uint32_t m = 0; m < kDevices; ++m) {
    EXPECT_EQ(h.ssd(m)->xftl()->PinnedSnapshotCount(), 0u) << "member " << m;
  }

  // A fresh pin covers the whole array again and sees exactly the live
  // state — no snapshot-only version survived the member's recovery.
  auto repin = vol->SnapPin();
  ASSERT_TRUE(repin.ok()) << repin.status().ToString();
  for (uint32_t m = 0; m < kDevices; ++m) {
    std::vector<uint8_t> live(page_size);
    std::vector<uint8_t> snap(page_size);
    ASSERT_TRUE(vol->Read(member_page[m], live.data()).ok());
    ASSERT_TRUE(
        vol->SnapRead(repin.value(), member_page[m], snap.data()).ok());
    EXPECT_EQ(snap, live) << "member " << m;
  }
  EXPECT_TRUE(vol->SnapUnpin(repin.value()).ok());
}

class ArrayCrashSweepTest : public ::testing::TestWithParam<ArrayPoint> {};

TEST_P(ArrayCrashSweepTest, CrossDeviceAtomicityHolds) {
  RunArrayCrashPoint(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, ArrayCrashSweepTest, ::testing::ValuesIn(SweepPoints()),
    [](const auto& info) {
      char hex[24];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(info.param.seed));
      return "victim" + std::to_string(info.param.victim) + "_s" +
             std::string(hex) + (info.param.barrier ? "_bar" : "");
    });

}  // namespace
}  // namespace xftl::workload
