// Tests for X-FTL: transactional visibility, commit/abort semantics, GC
// interaction, crash recovery of committed vs in-flight transactions, and
// the atomic-write FTL baseline.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "flash/flash_device.h"
#include "xftl/atomic_write_ftl.h"
#include "xftl/scc_ftl.h"
#include "xftl/xftl.h"

namespace xftl::ftl {
namespace {

flash::FlashConfig SmallFlash() {
  flash::FlashConfig cfg;
  cfg.page_size = 512;
  cfg.pages_per_block = 8;
  cfg.num_blocks = 64;
  cfg.num_banks = 4;
  return cfg;
}

FtlConfig SmallFtl() {
  FtlConfig cfg;
  cfg.meta_blocks = 4;
  cfg.min_free_blocks = 3;
  cfg.num_logical_pages = 256;
  return cfg;
}

class XFtlTest : public ::testing::Test {
 protected:
  XFtlTest()
      : dev_(SmallFlash(), &clock_),
        ftl_(&dev_, SmallFtl(), XftlConfig{.xl2p_capacity = 24}) {}

  std::vector<uint8_t> Page(uint64_t tag) {
    std::vector<uint8_t> p(dev_.config().page_size, 0);
    std::memcpy(p.data(), &tag, sizeof(tag));
    return p;
  }

  uint64_t ReadTag(TxId t, Lpn lpn) {
    std::vector<uint8_t> out(dev_.config().page_size);
    Status s = ftl_.TxRead(t, lpn, out.data());
    CHECK(s.ok()) << s.ToString();
    uint64_t got;
    std::memcpy(&got, out.data(), sizeof(got));
    return got;
  }

  SimClock clock_;
  flash::FlashDevice dev_;
  XFtl ftl_;
};

TEST_F(XFtlTest, UncommittedWriteVisibleOnlyToWriter) {
  auto base = Page(1);
  ASSERT_TRUE(ftl_.Write(5, base.data()).ok());  // committed baseline

  auto mine = Page(2);
  ASSERT_TRUE(ftl_.TxWrite(7, 5, mine.data()).ok());
  EXPECT_EQ(ReadTag(7, 5), 2u);   // writer sees its own version
  EXPECT_EQ(ReadTag(0, 5), 1u);   // everyone else sees the committed copy
  EXPECT_EQ(ReadTag(9, 5), 1u);   // including other transactions
}

TEST_F(XFtlTest, CommitPublishesAllPages) {
  for (Lpn p = 0; p < 5; ++p) {
    auto d = Page(100 + p);
    ASSERT_TRUE(ftl_.TxWrite(3, p, d.data()).ok());
  }
  ASSERT_TRUE(ftl_.TxCommit(3).ok());
  for (Lpn p = 0; p < 5; ++p) EXPECT_EQ(ReadTag(0, p), 100 + p);
  EXPECT_EQ(ftl_.xstats().commits, 1u);
}

TEST_F(XFtlTest, AbortRestoresOldVersions) {
  for (Lpn p = 0; p < 3; ++p) {
    auto d = Page(10 + p);
    ASSERT_TRUE(ftl_.Write(p, d.data()).ok());
  }
  for (Lpn p = 0; p < 3; ++p) {
    auto d = Page(20 + p);
    ASSERT_TRUE(ftl_.TxWrite(4, p, d.data()).ok());
  }
  ASSERT_TRUE(ftl_.TxAbort(4).ok());
  for (Lpn p = 0; p < 3; ++p) EXPECT_EQ(ReadTag(0, p), 10 + p);
  EXPECT_EQ(ftl_.ActiveTxCount(), 0u);
}

TEST_F(XFtlTest, RewriteSamePageReusesEntry) {
  auto d1 = Page(1), d2 = Page(2);
  ASSERT_TRUE(ftl_.TxWrite(5, 9, d1.data()).ok());
  size_t occ = ftl_.Xl2pOccupancy();
  ASSERT_TRUE(ftl_.TxWrite(5, 9, d2.data()).ok());
  EXPECT_EQ(ftl_.Xl2pOccupancy(), occ);  // same entry, new physical address
  EXPECT_EQ(ReadTag(5, 9), 2u);
  ASSERT_TRUE(ftl_.TxCommit(5).ok());
  EXPECT_EQ(ReadTag(0, 9), 2u);
}

TEST_F(XFtlTest, WriteWriteConflictRejected) {
  auto d = Page(1);
  ASSERT_TRUE(ftl_.TxWrite(1, 3, d.data()).ok());
  Status s = ftl_.TxWrite(2, 3, d.data());
  EXPECT_TRUE(s.IsBusy());
  EXPECT_EQ(ftl_.xstats().write_conflicts, 1u);
  // After the holder commits, the other transaction may proceed.
  ASSERT_TRUE(ftl_.TxCommit(1).ok());
  EXPECT_TRUE(ftl_.TxWrite(2, 3, d.data()).ok());
}

TEST_F(XFtlTest, EmptyCommitDoesNoIo) {
  uint64_t programs = dev_.stats().page_programs;
  ASSERT_TRUE(ftl_.TxCommit(42).ok());
  EXPECT_EQ(dev_.stats().page_programs, programs);
  EXPECT_EQ(ftl_.xstats().empty_commits, 1u);
}

TEST_F(XFtlTest, CommitWritesOneSnapshotPage) {
  auto d = Page(1);
  for (Lpn p = 0; p < 5; ++p) ASSERT_TRUE(ftl_.TxWrite(1, p, d.data()).ok());
  uint64_t before = ftl_.xstats().xl2p_snapshot_pages;
  ASSERT_TRUE(ftl_.TxCommit(1).ok());
  EXPECT_EQ(ftl_.xstats().xl2p_snapshot_pages, before + 1);
}

TEST_F(XFtlTest, TableFullOfActiveTransactionsRejected) {
  auto d = Page(1);
  // Capacity is 24; fill it with one active transaction.
  for (Lpn p = 0; p < 24; ++p) ASSERT_TRUE(ftl_.TxWrite(1, p, d.data()).ok());
  Status s = ftl_.TxWrite(1, 24, d.data());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(ftl_.TxAbort(1).ok());
}

TEST_F(XFtlTest, RetainedCommittedEntriesReclaimedByForcedCheckpoint) {
  auto d = Page(1);
  // Commit enough small transactions to fill the table with retained
  // committed entries, then keep going: X-FTL must checkpoint and reclaim.
  for (TxId t = 1; t <= 40; ++t) {
    ASSERT_TRUE(ftl_.TxWrite(t, Lpn(t % 50), d.data()).ok());
    ASSERT_TRUE(ftl_.TxCommit(t).ok());
  }
  EXPECT_GT(ftl_.xstats().forced_checkpoints, 0u);
}

TEST_F(XFtlTest, CommittedTransactionSurvivesCrash) {
  for (Lpn p = 0; p < 4; ++p) {
    auto d = Page(50 + p);
    ASSERT_TRUE(ftl_.TxWrite(2, p, d.data()).ok());
  }
  ASSERT_TRUE(ftl_.TxCommit(2).ok());
  // Crash without any FTL flush: only the commit's X-L2P snapshot is
  // durable.
  ASSERT_TRUE(ftl_.Recover().ok());
  for (Lpn p = 0; p < 4; ++p) EXPECT_EQ(ReadTag(0, p), 50 + p);
  EXPECT_GT(ftl_.xstats().recovered_committed, 0u);
}

TEST_F(XFtlTest, UncommittedTransactionRolledBackByCrash) {
  for (Lpn p = 0; p < 4; ++p) {
    auto d = Page(60 + p);
    ASSERT_TRUE(ftl_.Write(p, d.data()).ok());
  }
  ASSERT_TRUE(ftl_.Flush().ok());
  for (Lpn p = 0; p < 4; ++p) {
    auto d = Page(70 + p);
    ASSERT_TRUE(ftl_.TxWrite(9, p, d.data()).ok());
  }
  // No commit; crash.
  ASSERT_TRUE(ftl_.Recover().ok());
  for (Lpn p = 0; p < 4; ++p) EXPECT_EQ(ReadTag(0, p), 60 + p);
}

TEST_F(XFtlTest, CrashDuringCommitSnapshotRollsBack) {
  auto base = Page(1);
  ASSERT_TRUE(ftl_.Write(0, base.data()).ok());
  ASSERT_TRUE(ftl_.Flush().ok());

  auto d = Page(2);
  ASSERT_TRUE(ftl_.TxWrite(5, 0, d.data()).ok());
  // Tear the very next program: that is the X-L2P snapshot page itself.
  dev_.ArmCrashPlan({.crash_after_programs = 1, .persist_prob = 1.0});
  Status s = ftl_.TxCommit(5);
  EXPECT_FALSE(s.ok());
  ASSERT_TRUE(ftl_.Recover().ok());
  // The torn commit record means the transaction never committed.
  EXPECT_EQ(ReadTag(0, 0), 1u);
}

TEST_F(XFtlTest, MixedTransactionsRecoverIndependently) {
  auto d = Page(0);
  for (Lpn p = 0; p < 6; ++p) {
    auto base = Page(100 + p);
    ASSERT_TRUE(ftl_.Write(p, base.data()).ok());
  }
  ASSERT_TRUE(ftl_.Flush().ok());

  // T1 commits, T2 stays open.
  for (Lpn p = 0; p < 3; ++p) {
    auto v = Page(200 + p);
    ASSERT_TRUE(ftl_.TxWrite(1, p, v.data()).ok());
  }
  ASSERT_TRUE(ftl_.TxCommit(1).ok());
  for (Lpn p = 3; p < 6; ++p) {
    auto v = Page(300 + p);
    ASSERT_TRUE(ftl_.TxWrite(2, p, v.data()).ok());
  }

  ASSERT_TRUE(ftl_.Recover().ok());
  for (Lpn p = 0; p < 3; ++p) EXPECT_EQ(ReadTag(0, p), 200 + p);  // T1 redone
  for (Lpn p = 3; p < 6; ++p) EXPECT_EQ(ReadTag(0, p), 100 + p);  // T2 undone
}

TEST_F(XFtlTest, GcDoesNotReclaimUncommittedPages) {
  // Open a transaction, then churn the device hard enough to force GC over
  // every block. Both the old committed copy and the new uncommitted copy
  // must survive.
  auto base = Page(1);
  ASSERT_TRUE(ftl_.Write(0, base.data()).ok());
  auto mine = Page(2);
  ASSERT_TRUE(ftl_.TxWrite(7, 0, mine.data()).ok());

  Rng rng(3);
  for (int i = 0; i < 3000; ++i) {
    auto d = Page(1000 + i);
    ASSERT_TRUE(ftl_.Write(1 + rng.Uniform(100), d.data()).ok());
  }
  ASSERT_GT(ftl_.stats().gc_runs, 0u);

  EXPECT_EQ(ReadTag(7, 0), 2u);  // uncommitted version intact
  EXPECT_EQ(ReadTag(0, 0), 1u);  // committed version intact
  ASSERT_TRUE(ftl_.TxCommit(7).ok());
  EXPECT_EQ(ReadTag(0, 0), 2u);
}

TEST_F(XFtlTest, GcChurnThenAbortStillRestoresOldVersion) {
  auto base = Page(1);
  ASSERT_TRUE(ftl_.Write(0, base.data()).ok());
  auto mine = Page(2);
  ASSERT_TRUE(ftl_.TxWrite(7, 0, mine.data()).ok());
  Rng rng(4);
  for (int i = 0; i < 3000; ++i) {
    auto d = Page(1000 + i);
    ASSERT_TRUE(ftl_.Write(1 + rng.Uniform(100), d.data()).ok());
  }
  ASSERT_GT(ftl_.stats().gc_runs, 0u);
  ASSERT_TRUE(ftl_.TxAbort(7).ok());
  EXPECT_EQ(ReadTag(0, 0), 1u);
}

// Regression: GC moved lpn 0's committed copy while a transaction held an
// uncommitted write of it. The moved copy got a fresh seq, newer than the
// transaction's page, so after a cut with no checkpoint in between recovery
// took the committed X-L2P entry for superseded and tore the transaction.
// Recovery must compare data versions, not physical write order.
TEST_F(XFtlTest, GcMovingCommittedCopyUnderOpenTxnKeepsCommitAcrossCut) {
  // Fill the logical space, so GC victims hold live data.
  for (Lpn p = 0; p < 256; ++p) {
    auto d = Page(1);
    ASSERT_TRUE(ftl_.Write(p, d.data()).ok());
  }
  ASSERT_TRUE(ftl_.Flush().ok());  // the last checkpoint before the cut
  const flash::Ppn committed = ftl_.MappingOf(0);
  auto mine = Page(2);
  ASSERT_TRUE(ftl_.TxWrite(7, 0, mine.data()).ok());
  ASSERT_TRUE(ftl_.TxWrite(7, 255, mine.data()).ok());
  // Churn until GC moves the committed copy, and stop there: the moved copy
  // is then the newest page of lpn 0 on flash.
  Rng rng(3);
  for (int i = 0; ftl_.MappingOf(0) == committed; ++i) {
    ASSERT_LT(i, 20000) << "GC never moved the committed copy";
    auto d = Page(1000 + i);
    ASSERT_TRUE(ftl_.Write(1 + rng.Uniform(254), d.data()).ok());
  }
  ASSERT_TRUE(ftl_.TxCommit(7).ok());
  dev_.PowerCut();
  ASSERT_TRUE(ftl_.Recover().ok());
  EXPECT_EQ(ReadTag(0, 0), 2u);
  EXPECT_EQ(ReadTag(0, 255), 2u);
}

TEST_F(XFtlTest, CommitThenChurnThenCrashKeepsCommittedData) {
  for (Lpn p = 0; p < 4; ++p) {
    auto v = Page(500 + p);
    ASSERT_TRUE(ftl_.TxWrite(3, p, v.data()).ok());
  }
  ASSERT_TRUE(ftl_.TxCommit(3).ok());
  // Churn moves the committed pages around via GC (retagging them), with no
  // explicit flush before the crash.
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    auto d = Page(1000 + i);
    ASSERT_TRUE(ftl_.Write(10 + rng.Uniform(100), d.data()).ok());
  }
  ASSERT_TRUE(ftl_.Recover().ok());
  for (Lpn p = 0; p < 4; ++p) EXPECT_EQ(ReadTag(0, p), 500 + p);
}

TEST_F(XFtlTest, NonTransactionalWriteAfterCommitWinsRecovery) {
  auto v1 = Page(1);
  ASSERT_TRUE(ftl_.TxWrite(2, 0, v1.data()).ok());
  ASSERT_TRUE(ftl_.TxCommit(2).ok());
  auto v2 = Page(2);
  ASSERT_TRUE(ftl_.Write(0, v2.data()).ok());  // newer, non-transactional
  ASSERT_TRUE(ftl_.Recover().ok());
  EXPECT_EQ(ReadTag(0, 0), 2u);
}

TEST_F(XFtlTest, TxWriteWithNoTxIdBehavesAsPlainWrite) {
  auto d = Page(3);
  ASSERT_TRUE(ftl_.TxWrite(kNoTx, 1, d.data()).ok());
  EXPECT_EQ(ReadTag(0, 1), 3u);
  EXPECT_EQ(ftl_.Xl2pOccupancy(), 0u);
}

TEST_F(XFtlTest, MetaCompactionDuringCommitKeepsMappings) {
  // Regression test: writing the X-L2P snapshot inside TxCommit can trigger
  // meta-region compaction, whose checkpoint used to release the very slots
  // being committed before their mappings were folded into the L2P -
  // clobbering unrelated mappings (observed as lpn 0 vanishing) and opening
  // a data-loss window. Drive enough commits through a small meta region to
  // force compactions mid-commit, verifying every mapping afterwards.
  auto d = Page(0);
  for (Lpn p = 0; p < 64; ++p) {
    auto base = Page(10000 + p);
    ASSERT_TRUE(ftl_.Write(p, base.data()).ok());
  }
  for (TxId t = 1; t <= 300; ++t) {
    Lpn p = Lpn(t % 64);
    auto v = Page(20000 + t);
    ASSERT_TRUE(ftl_.TxWrite(t, p, v.data()).ok()) << "txn " << t;
    ASSERT_TRUE(ftl_.TxCommit(t).ok()) << "txn " << t;
    // The very first pages must never lose their mapping.
    ASSERT_NE(ftl_.MappingOf(0), flash::kInvalidPpn) << "txn " << t;
  }
  // All mappings intact and recoverable after a crash.
  ASSERT_TRUE(ftl_.Recover().ok());
  for (Lpn p = 0; p < 64; ++p) {
    uint64_t tag = ReadTag(0, p);
    EXPECT_TRUE(tag >= 10000) << "lpn " << p << " lost (tag " << tag << ")";
  }
}

TEST_F(XFtlTest, RecoveryTimeIsTracked) {
  auto d = Page(1);
  ASSERT_TRUE(ftl_.TxWrite(1, 0, d.data()).ok());
  ASSERT_TRUE(ftl_.TxCommit(1).ok());
  ASSERT_TRUE(ftl_.Recover().ok());
  EXPECT_GT(ftl_.xstats().last_recovery_nanos, 0u);
}

// --- MVCC snapshot reads ----------------------------------------------------

TEST_F(XFtlTest, SnapshotReadSeesPreImageAfterLaterCommit) {
  auto v1 = Page(1);
  ASSERT_TRUE(ftl_.TxWrite(1, 0, v1.data()).ok());
  ASSERT_TRUE(ftl_.TxCommit(1).ok());

  uint64_t epoch = ftl_.PinSnapshot();
  auto v2 = Page(2);
  ASSERT_TRUE(ftl_.TxWrite(2, 0, v2.data()).ok());
  ASSERT_TRUE(ftl_.TxCommit(2).ok());

  // Live readers see the new version; the pinned reader still sees v1.
  EXPECT_EQ(ReadTag(0, 0), 2u);
  std::vector<uint8_t> out(dev_.config().page_size);
  ASSERT_TRUE(ftl_.SnapshotRead(epoch, 0, out.data()).ok());
  uint64_t got;
  std::memcpy(&got, out.data(), sizeof(got));
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(ftl_.xstats().version_hits, 1u);
  EXPECT_EQ(ftl_.xstats().pins_opened, 1u);

  ftl_.UnpinSnapshot(epoch);
  EXPECT_EQ(ftl_.xstats().pins_closed, 1u);
  EXPECT_EQ(ftl_.PinnedSnapshotCount(), 0u);
  // A released epoch is no longer a valid snapshot handle.
  Status s = ftl_.SnapshotRead(epoch, 0, out.data());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(XFtlTest, SnapshotReadFallsThroughToLiveWhenUnmodified) {
  auto v1 = Page(7);
  ASSERT_TRUE(ftl_.Write(3, v1.data()).ok());
  uint64_t epoch = ftl_.PinSnapshot();
  std::vector<uint8_t> out(dev_.config().page_size);
  ASSERT_TRUE(ftl_.SnapshotRead(epoch, 3, out.data()).ok());
  uint64_t got;
  std::memcpy(&got, out.data(), sizeof(got));
  EXPECT_EQ(got, 7u);
  EXPECT_EQ(ftl_.xstats().version_hits, 0u);
  ftl_.UnpinSnapshot(epoch);
}

TEST_F(XFtlTest, SnapshotReadOfPageUnmappedAtPinReadsAsErased) {
  uint64_t epoch = ftl_.PinSnapshot();
  auto v = Page(9);
  ASSERT_TRUE(ftl_.TxWrite(1, 5, v.data()).ok());
  ASSERT_TRUE(ftl_.TxCommit(1).ok());
  // The page did not exist when the snapshot was pinned: it reads as
  // erased flash, not as the post-pin content.
  std::vector<uint8_t> out(dev_.config().page_size);
  ASSERT_TRUE(ftl_.SnapshotRead(epoch, 5, out.data()).ok());
  for (uint8_t b : out) ASSERT_EQ(b, 0xff);
  ftl_.UnpinSnapshot(epoch);
}

TEST_F(XFtlTest, SnapshotReadPicksFirstCommitAfterPin) {
  // Three generations of lpn 0; the pin sits before the second. The correct
  // pre-image is the one retained by the FIRST commit after the pin, not
  // the newest.
  auto v1 = Page(1);
  ASSERT_TRUE(ftl_.TxWrite(1, 0, v1.data()).ok());
  ASSERT_TRUE(ftl_.TxCommit(1).ok());
  uint64_t epoch = ftl_.PinSnapshot();
  auto v2 = Page(2);
  ASSERT_TRUE(ftl_.TxWrite(2, 0, v2.data()).ok());
  ASSERT_TRUE(ftl_.TxCommit(2).ok());
  auto v3 = Page(3);
  ASSERT_TRUE(ftl_.TxWrite(3, 0, v3.data()).ok());
  ASSERT_TRUE(ftl_.TxCommit(3).ok());

  std::vector<uint8_t> out(dev_.config().page_size);
  ASSERT_TRUE(ftl_.SnapshotRead(epoch, 0, out.data()).ok());
  uint64_t got;
  std::memcpy(&got, out.data(), sizeof(got));
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(ReadTag(0, 0), 3u);
  ftl_.UnpinSnapshot(epoch);
}

TEST_F(XFtlTest, ForcedCheckpointOnSlotExhaustionKeepsPinnedVersions) {
  // Regression test: the table-full forced checkpoint used to release every
  // folded committed slot unconditionally. With a reader pinned it must
  // defer the slots whose pre-images that reader can still see — the
  // snapshot read below has to survive an arbitrary amount of write
  // pressure on a full table.
  auto v1 = Page(1);
  ASSERT_TRUE(ftl_.TxWrite(1, 0, v1.data()).ok());
  ASSERT_TRUE(ftl_.TxCommit(1).ok());
  uint64_t epoch = ftl_.PinSnapshot();
  auto v2 = Page(2);
  ASSERT_TRUE(ftl_.TxWrite(2, 0, v2.data()).ok());
  ASSERT_TRUE(ftl_.TxCommit(2).ok());

  // Exhaust the 24-slot table many times over with commits hammering a
  // small set of hot pages. Pin-aware reclamation must hold exactly the
  // versions the reader can see (one per lpn) and release the rest, so the
  // writers never stall.
  auto d = Page(99);
  for (TxId t = 10; t < 90; ++t) {
    ASSERT_TRUE(ftl_.TxWrite(t, Lpn(10 + t % 5), d.data()).ok()) << t;
    ASSERT_TRUE(ftl_.TxCommit(t).ok()) << t;
  }
  ASSERT_GT(ftl_.xstats().forced_checkpoints, 0u);
  EXPECT_GT(ftl_.xstats().reclaim_deferrals, 0u);

  std::vector<uint8_t> out(dev_.config().page_size);
  ASSERT_TRUE(ftl_.SnapshotRead(epoch, 0, out.data()).ok());
  uint64_t got;
  std::memcpy(&got, out.data(), sizeof(got));
  EXPECT_EQ(got, 1u);

  // Releasing the pin lets the next checkpoint reclaim the versions.
  ftl_.UnpinSnapshot(epoch);
  ASSERT_TRUE(ftl_.Checkpoint().ok());
  EXPECT_EQ(ftl_.Xl2pOccupancy(), 0u);
}

TEST_F(XFtlTest, GcRelocationKeepsPinnedPreImageReadable) {
  auto v1 = Page(1);
  ASSERT_TRUE(ftl_.TxWrite(1, 0, v1.data()).ok());
  ASSERT_TRUE(ftl_.TxCommit(1).ok());
  uint64_t epoch = ftl_.PinSnapshot();
  auto v2 = Page(2);
  ASSERT_TRUE(ftl_.TxWrite(2, 0, v2.data()).ok());
  ASSERT_TRUE(ftl_.TxCommit(2).ok());

  // Churn until GC has moved blocks around; the retained pre-image must be
  // treated as live (not collected) and its relocation re-pointed.
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    auto d = Page(1000 + i);
    ASSERT_TRUE(ftl_.Write(10 + rng.Uniform(100), d.data()).ok());
  }
  ASSERT_GT(ftl_.stats().gc_runs, 0u);

  std::vector<uint8_t> out(dev_.config().page_size);
  ASSERT_TRUE(ftl_.SnapshotRead(epoch, 0, out.data()).ok());
  uint64_t got;
  std::memcpy(&got, out.data(), sizeof(got));
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(ReadTag(0, 0), 2u);
  ftl_.UnpinSnapshot(epoch);
}

TEST_F(XFtlTest, RecoveryDiscardsPinsAndSnapshotOnlyVersions) {
  auto v1 = Page(1);
  ASSERT_TRUE(ftl_.TxWrite(1, 0, v1.data()).ok());
  ASSERT_TRUE(ftl_.TxCommit(1).ok());
  uint64_t epoch = ftl_.PinSnapshot();
  auto v2 = Page(2);
  ASSERT_TRUE(ftl_.TxWrite(2, 0, v2.data()).ok());
  ASSERT_TRUE(ftl_.TxCommit(2).ok());

  // Power cut: pins are volatile. Recovery must drop them, keep the newest
  // committed data, and never resurrect the snapshot-only pre-image.
  ASSERT_TRUE(ftl_.Recover().ok());
  EXPECT_EQ(ftl_.PinnedSnapshotCount(), 0u);
  std::vector<uint8_t> out(dev_.config().page_size);
  Status s = ftl_.SnapshotRead(epoch, 0, out.data());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ReadTag(0, 0), 2u);
}

TEST_F(XFtlTest, UnpinIsLenientAboutUnknownEpochs) {
  ftl_.UnpinSnapshot(12345);  // never pinned: no-op
  uint64_t epoch = ftl_.PinSnapshot();
  ftl_.UnpinSnapshot(epoch);
  ftl_.UnpinSnapshot(epoch);  // double release: no-op
  EXPECT_EQ(ftl_.PinnedSnapshotCount(), 0u);
  EXPECT_EQ(ftl_.xstats().pins_closed, 1u);
}

TEST(XFtlTornSnapshotTest, TornNewestSnapshotEpochFallsBackToOlder) {
  // The newest X-L2P snapshot spans two pages and the second page tore at
  // the power cut. Recovery must detect the incomplete epoch, count the
  // fallback, and load the previous complete snapshot — so the earlier
  // commit survives while the torn epoch is ignored.
  SimClock clock;
  flash::FlashDevice dev(SmallFlash(), &clock);
  // 512-byte pages hold 29 snapshot entries; capacity 40 lets a commit of
  // 30 pages (plus 4 retained entries) span two snapshot pages.
  XFtl ftl(&dev, SmallFtl(), XftlConfig{.xl2p_capacity = 40});

  auto page = [&](uint64_t tag) {
    std::vector<uint8_t> p(dev.config().page_size, 0);
    std::memcpy(p.data(), &tag, sizeof(tag));
    return p;
  };
  auto read_tag = [&](Lpn lpn) {
    std::vector<uint8_t> out(dev.config().page_size);
    Status s = ftl.TxRead(kNoTx, lpn, out.data());
    CHECK(s.ok()) << s.ToString();
    uint64_t got;
    std::memcpy(&got, out.data(), sizeof(got));
    return got;
  };

  for (Lpn p = 0; p < 4; ++p) {
    auto d = page(50 + p);
    ASSERT_TRUE(ftl.TxWrite(1, p, d.data()).ok());
  }
  ASSERT_TRUE(ftl.TxCommit(1).ok());  // snapshot A: one page
  for (Lpn p = 10; p < 40; ++p) {
    auto d = page(100 + p);
    ASSERT_TRUE(ftl.TxWrite(2, p, d.data()).ok());
  }
  ASSERT_TRUE(ftl.TxCommit(2).ok());  // snapshot B: two pages

  // Tear the newest snapshot page (snapshot B's second page).
  const auto& fc = dev.config();
  flash::Ppn newest = flash::kInvalidPpn;
  uint64_t newest_seq = 0;
  for (flash::Ppn ppn = 0;
       ppn < flash::Ppn(SmallFtl().meta_blocks) * fc.pages_per_block; ++ppn) {
    auto oob = dev.PeekOob(ppn);
    if (oob.has_value() && oob->tag == kTagXl2p && oob->seq > newest_seq) {
      newest_seq = oob->seq;
      newest = ppn;
    }
  }
  ASSERT_NE(newest, flash::kInvalidPpn);
  std::vector<uint8_t> garbage(fc.page_size, 0x5a);
  dev.RestorePage(newest, flash::FlashDevice::PageState::kTorn, garbage.data(),
                  *dev.PeekOob(newest));

  ASSERT_TRUE(ftl.Recover().ok());
  EXPECT_GE(ftl.stats().recovery_root_fallbacks, 1u);
  // Snapshot A's transaction is intact; snapshot B's epoch was never
  // assembled, so its freshly written lpns have no mapping.
  for (Lpn p = 0; p < 4; ++p) EXPECT_EQ(read_tag(p), 50 + p);
  EXPECT_EQ(ftl.MappingOf(39), flash::kInvalidPpn);
}

// --- atomic-write FTL baseline ---------------------------------------------

class AtomicWriteFtlTest : public ::testing::Test {
 protected:
  AtomicWriteFtlTest() : dev_(SmallFlash(), &clock_), ftl_(&dev_, SmallFtl()) {}

  std::vector<uint8_t> Page(uint64_t tag) {
    std::vector<uint8_t> p(dev_.config().page_size, 0);
    std::memcpy(p.data(), &tag, sizeof(tag));
    return p;
  }

  uint64_t ReadTag(Lpn lpn) {
    std::vector<uint8_t> out(dev_.config().page_size);
    CHECK(ftl_.Read(lpn, out.data()).ok());
    uint64_t got;
    std::memcpy(&got, out.data(), sizeof(got));
    return got;
  }

  SimClock clock_;
  flash::FlashDevice dev_;
  AtomicWriteFtl ftl_;
};

TEST_F(AtomicWriteFtlTest, BatchVisibleAfterCall) {
  auto a = Page(1), b = Page(2), c = Page(3);
  ASSERT_TRUE(ftl_.WriteAtomic({{0, a.data()}, {1, b.data()}, {2, c.data()}})
                  .ok());
  EXPECT_EQ(ReadTag(0), 1u);
  EXPECT_EQ(ReadTag(1), 2u);
  EXPECT_EQ(ReadTag(2), 3u);
}

TEST_F(AtomicWriteFtlTest, BatchSurvivesCrashAfterCommitRecord) {
  auto a = Page(1), b = Page(2);
  ASSERT_TRUE(ftl_.WriteAtomic({{0, a.data()}, {1, b.data()}}).ok());
  ASSERT_TRUE(ftl_.Recover().ok());
  EXPECT_EQ(ReadTag(0), 1u);
  EXPECT_EQ(ReadTag(1), 2u);
}

TEST_F(AtomicWriteFtlTest, CrashBeforeCommitRecordRollsBackWholeBatch) {
  auto a = Page(1), b = Page(2);
  ASSERT_TRUE(ftl_.WriteAtomic({{0, a.data()}, {1, b.data()}}).ok());
  ASSERT_TRUE(ftl_.Flush().ok());

  auto a2 = Page(10), b2 = Page(20);
  // Tear the second data page: the commit record is never written.
  dev_.ArmCrashPlan({.crash_after_programs = 2, .persist_prob = 1.0});
  Status s = ftl_.WriteAtomic({{0, a2.data()}, {1, b2.data()}});
  EXPECT_FALSE(s.ok());
  ASSERT_TRUE(ftl_.Recover().ok());
  EXPECT_EQ(ReadTag(0), 1u);
  EXPECT_EQ(ReadTag(1), 2u);
}

TEST_F(AtomicWriteFtlTest, BatchSurvivesGcDuringPlacement) {
  // Regression test: GC triggered by a later program in the batch used to
  // leave earlier placed pages' addresses stale in the commit record.
  Rng rng(9);
  auto filler = Page(0);
  // Churn until the device is near its GC threshold.
  for (int i = 0; i < 2500; ++i) {
    std::memcpy(filler.data(), &i, sizeof(i));
    ASSERT_TRUE(ftl_.Write(100 + rng.Uniform(100), filler.data()).ok());
  }
  uint64_t gc_before = ftl_.stats().gc_runs;
  // Batches large enough that GC fires mid-placement at least once.
  for (int round = 0; round < 30; ++round) {
    std::vector<std::vector<uint8_t>> bufs;
    std::vector<std::pair<Lpn, const uint8_t*>> batch;
    for (Lpn p = 0; p < 20; ++p) {
      bufs.push_back(Page(uint64_t(round) * 100 + p));
      batch.emplace_back(p, bufs.back().data());
    }
    ASSERT_TRUE(ftl_.WriteAtomic(batch).ok()) << "round " << round;
  }
  ASSERT_GT(ftl_.stats().gc_runs, gc_before);
  for (Lpn p = 0; p < 20; ++p) EXPECT_EQ(ReadTag(p), 29u * 100 + p);
  // And the batch replays correctly from its commit record after a crash.
  ASSERT_TRUE(ftl_.Recover().ok());
  for (Lpn p = 0; p < 20; ++p) EXPECT_EQ(ReadTag(p), 29u * 100 + p);
}

TEST_F(AtomicWriteFtlTest, OversizedBatchRejected) {
  auto a = Page(1);
  std::vector<std::pair<Lpn, const uint8_t*>> batch;
  for (Lpn p = 0; p < 64; ++p) batch.emplace_back(p, a.data());
  EXPECT_EQ(ftl_.WriteAtomic(batch).code(), StatusCode::kInvalidArgument);
}

// --- cyclic-commit (TxFlash/SCC) baseline ------------------------------------

class SccFtlTest : public ::testing::Test {
 protected:
  SccFtlTest() : dev_(SmallFlash(), &clock_), ftl_(&dev_, SmallFtl()) {}

  std::vector<uint8_t> Page(uint64_t tag) {
    std::vector<uint8_t> p(dev_.config().page_size, 0);
    std::memcpy(p.data(), &tag, sizeof(tag));
    return p;
  }

  uint64_t ReadTag(Lpn lpn) {
    std::vector<uint8_t> out(dev_.config().page_size);
    CHECK(ftl_.Read(lpn, out.data()).ok());
    uint64_t got;
    std::memcpy(&got, out.data(), sizeof(got));
    return got;
  }

  SimClock clock_;
  flash::FlashDevice dev_;
  SccFtl ftl_;
};

TEST_F(SccFtlTest, BatchVisibleAfterCall) {
  auto a = Page(1), b = Page(2), c = Page(3);
  ASSERT_TRUE(
      ftl_.WriteAtomic({{0, a.data()}, {1, b.data()}, {2, c.data()}}).ok());
  EXPECT_EQ(ReadTag(0), 1u);
  EXPECT_EQ(ReadTag(1), 2u);
  EXPECT_EQ(ReadTag(2), 3u);
}

TEST_F(SccFtlTest, CommitCostsZeroExtraPages) {
  // The whole point of SCC: no commit record, no mapping-table write.
  auto a = Page(1), b = Page(2);
  uint64_t programs_before = dev_.stats().page_programs;
  ASSERT_TRUE(ftl_.WriteAtomic({{0, a.data()}, {1, b.data()}}).ok());
  EXPECT_EQ(dev_.stats().page_programs, programs_before + 2);  // data only
  EXPECT_EQ(ftl_.stats().meta_page_writes, 0u);
}

TEST_F(SccFtlTest, CompleteCycleSurvivesCrash) {
  auto a = Page(1), b = Page(2), c = Page(3);
  ASSERT_TRUE(
      ftl_.WriteAtomic({{0, a.data()}, {1, b.data()}, {2, c.data()}}).ok());
  ASSERT_TRUE(ftl_.Recover().ok());  // no flush ever happened
  EXPECT_EQ(ftl_.recovered_cycles(), 1u);
  EXPECT_EQ(ReadTag(0), 1u);
  EXPECT_EQ(ReadTag(1), 2u);
  EXPECT_EQ(ReadTag(2), 3u);
}

TEST_F(SccFtlTest, TornCycleRollsBackWholeBatch) {
  auto a = Page(1), b = Page(2);
  ASSERT_TRUE(ftl_.WriteAtomic({{0, a.data()}, {1, b.data()}}).ok());
  ASSERT_TRUE(ftl_.Flush().ok());
  auto a2 = Page(10), b2 = Page(20);
  // The second page of the new cycle tears.
  dev_.ArmCrashPlan({.crash_after_programs = 2, .persist_prob = 1.0});
  EXPECT_FALSE(ftl_.WriteAtomic({{0, a2.data()}, {1, b2.data()}}).ok());
  ASSERT_TRUE(ftl_.Recover().ok());
  EXPECT_GE(ftl_.discarded_cycles(), 1u);
  EXPECT_EQ(ReadTag(0), 1u);
  EXPECT_EQ(ReadTag(1), 2u);
}

TEST_F(SccFtlTest, CyclesSurviveGcRelocation) {
  // Fill with churn so GC relocates cycle members before any checkpoint,
  // then crash: the preserved (lpn, seq, link) identities must keep the
  // cycle recoverable.
  auto a = Page(1), b = Page(2), c = Page(3);
  ASSERT_TRUE(
      ftl_.WriteAtomic({{0, a.data()}, {1, b.data()}, {2, c.data()}}).ok());
  Rng rng(4);
  auto filler = Page(0);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(ftl_.Write(10 + rng.Uniform(100), filler.data()).ok());
  }
  ASSERT_GT(ftl_.stats().gc_runs, 0u);
  ASSERT_TRUE(ftl_.Recover().ok());
  EXPECT_EQ(ReadTag(0), 1u);
  EXPECT_EQ(ReadTag(1), 2u);
  EXPECT_EQ(ReadTag(2), 3u);
}

TEST_F(SccFtlTest, OverlappingBatchesNewestWins) {
  auto v1 = Page(1), v2 = Page(2);
  ASSERT_TRUE(ftl_.WriteAtomic({{0, v1.data()}, {1, v1.data()}}).ok());
  ASSERT_TRUE(ftl_.WriteAtomic({{1, v2.data()}, {2, v2.data()}}).ok());
  ASSERT_TRUE(ftl_.Recover().ok());
  EXPECT_EQ(ReadTag(0), 1u);
  EXPECT_EQ(ReadTag(1), 2u);
  EXPECT_EQ(ReadTag(2), 2u);
}

TEST_F(SccFtlTest, SingletonBatchIsSelfCycle) {
  auto a = Page(7);
  ASSERT_TRUE(ftl_.WriteAtomic({{5, a.data()}}).ok());
  ASSERT_TRUE(ftl_.Recover().ok());
  EXPECT_EQ(ReadTag(5), 7u);
}

}  // namespace
}  // namespace xftl::ftl
