// Tests for the baseline page-mapping FTL: mapping, copy-on-write updates,
// trim, garbage collection, mapping persistence, crash recovery and aging.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <vector>

#include "common/counters.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "flash/flash_device.h"
#include "ftl/ager.h"
#include "ftl/page_ftl.h"

namespace xftl::ftl {

// Reads PageFtl's block table for the victim-selection reference below.
class PageFtlTestPeer {
 public:
  // The legacy O(num_blocks) linear victim scan: the reference the
  // validity-bucketed picker must match under every policy.
  static StatusOr<flash::BlockNum> PeekVictimLinear(const PageFtl& ftl) {
    const auto& fc = ftl.device_->config();
    flash::BlockNum best = flash::kInvalidPpn;
    double best_score = -1;
    uint64_t best_seq = ~0ull;
    for (flash::BlockNum b = ftl.config_.meta_blocks; b < fc.num_blocks; ++b) {
      const PageFtl::BlockInfo& blk = ftl.blocks_[b];
      if (blk.kind != PageFtl::BlockInfo::Kind::kSealed) continue;
      if (blk.valid_count >= fc.pages_per_block) continue;  // nothing to gain
      if (ftl.config_.gc_policy == GcPolicy::kFifo) {
        // Oldest seal wins, exact integer compare. (The scan originally
        // computed `1e18 - double(sealed_seq)`, whose 128-ulp rounding
        // folded nearby seal times together and silently tie-broke by block
        // number.)
        if (best == flash::kInvalidPpn || blk.sealed_seq < best_seq) {
          best_seq = blk.sealed_seq;
          best = b;
        }
        continue;
      }
      double score = 0;
      switch (ftl.config_.gc_policy) {
        case GcPolicy::kGreedy:
          score = double(fc.pages_per_block - blk.valid_count);
          break;
        case GcPolicy::kCostBenefit: {
          // LFS: benefit/cost = age * (1 - u) / 2u; a fully invalid block is
          // free to collect, so give it the maximal score.
          double u = double(blk.valid_count) / double(fc.pages_per_block);
          double age = double(ftl.next_seq_ - blk.sealed_seq);
          score = u == 0 ? 1e18 : age * (1.0 - u) / (2.0 * u);
          break;
        }
        case GcPolicy::kFifo:
          break;  // handled above
      }
      if (best == flash::kInvalidPpn || score > best_score) {
        best_score = score;
        best = b;
      }
    }
    if (best == flash::kInvalidPpn) {
      return Status::ResourceExhausted("garbage collection found no victim");
    }
    return best;
  }
};

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
  // 60 data blocks * 8 = 480 data pages; 5 blocks reserve -> <= 440.
  cfg.num_logical_pages = 256;
  return cfg;
}

class PageFtlTest : public ::testing::Test {
 protected:
  PageFtlTest()
      : dev_(SmallFlash(), &clock_), ftl_(&dev_, SmallFtl()) {}

  std::vector<uint8_t> Page(uint64_t tag) {
    std::vector<uint8_t> p(dev_.config().page_size, 0);
    std::memcpy(p.data(), &tag, sizeof(tag));
    return p;
  }

  void ExpectReads(Lpn lpn, uint64_t tag) {
    std::vector<uint8_t> out(dev_.config().page_size);
    ASSERT_TRUE(ftl_.Read(lpn, out.data()).ok()) << "lpn " << lpn;
    uint64_t got;
    std::memcpy(&got, out.data(), sizeof(got));
    EXPECT_EQ(got, tag) << "lpn " << lpn;
  }

  SimClock clock_;
  flash::FlashDevice dev_;
  PageFtl ftl_;
};

TEST_F(PageFtlTest, WriteReadRoundTrip) {
  auto p = Page(0xAB);
  ASSERT_TRUE(ftl_.Write(3, p.data()).ok());
  ExpectReads(3, 0xAB);
}

TEST_F(PageFtlTest, UnwrittenPageReadsAsFf) {
  std::vector<uint8_t> out(dev_.config().page_size);
  ASSERT_TRUE(ftl_.Read(10, out.data()).ok());
  for (uint8_t b : out) EXPECT_EQ(b, 0xff);
}

TEST_F(PageFtlTest, OverwriteIsCopyOnWrite) {
  auto p1 = Page(1), p2 = Page(2);
  ASSERT_TRUE(ftl_.Write(5, p1.data()).ok());
  flash::Ppn first = ftl_.MappingOf(5);
  ASSERT_TRUE(ftl_.Write(5, p2.data()).ok());
  flash::Ppn second = ftl_.MappingOf(5);
  EXPECT_NE(first, second);  // never in place
  ExpectReads(5, 2);
}

TEST_F(PageFtlTest, OutOfRangeLpnRejected) {
  auto p = Page(0);
  EXPECT_EQ(ftl_.Write(SmallFtl().num_logical_pages, p.data()).code(),
            StatusCode::kOutOfRange);
}

TEST_F(PageFtlTest, TrimDropsMapping) {
  auto p = Page(7);
  ASSERT_TRUE(ftl_.Write(9, p.data()).ok());
  ASSERT_TRUE(ftl_.Trim(9).ok());
  EXPECT_EQ(ftl_.MappingOf(9), flash::kInvalidPpn);
  std::vector<uint8_t> out(dev_.config().page_size);
  ASSERT_TRUE(ftl_.Read(9, out.data()).ok());
  EXPECT_EQ(out[0], 0xff);
}

TEST_F(PageFtlTest, GarbageCollectionReclaimsSpace) {
  // Overwrite a small working set far more times than the device could hold
  // without GC.
  Rng rng(1);
  uint64_t total_pages = dev_.config().TotalPages();
  for (uint64_t i = 0; i < 3 * total_pages; ++i) {
    Lpn lpn = rng.Uniform(64);
    auto p = Page(i);
    ASSERT_TRUE(ftl_.Write(lpn, p.data()).ok()) << "write " << i;
  }
  EXPECT_GT(ftl_.stats().gc_runs, 0u);
  EXPECT_GT(ftl_.stats().block_erases, 0u);
  EXPECT_GE(ftl_.free_block_count(), SmallFtl().min_free_blocks);
}

TEST_F(PageFtlTest, GcPreservesAllData) {
  // Model check: after heavy overwrites with GC churn, every logical page
  // reads back its most recent value.
  std::map<Lpn, uint64_t> expected;
  Rng rng(2);
  for (uint64_t i = 1; i <= 2000; ++i) {
    Lpn lpn = rng.Uniform(128);
    auto p = Page(i);
    ASSERT_TRUE(ftl_.Write(lpn, p.data()).ok());
    expected[lpn] = i;
  }
  ASSERT_GT(ftl_.stats().gc_runs, 0u);
  for (const auto& [lpn, tag] : expected) ExpectReads(lpn, tag);
}

TEST_F(PageFtlTest, FlushWritesMetaPages) {
  auto p = Page(1);
  ASSERT_TRUE(ftl_.Write(0, p.data()).ok());
  uint64_t before = ftl_.stats().meta_page_writes;
  ASSERT_TRUE(ftl_.Flush().ok());
  // At least one dirty segment plus a root record.
  EXPECT_GE(ftl_.stats().meta_page_writes, before + 2);
  EXPECT_EQ(ftl_.stats().flush_barriers, 1u);
}

TEST_F(PageFtlTest, SecondFlushWithNoChangesIsCheap) {
  auto p = Page(1);
  ASSERT_TRUE(ftl_.Write(0, p.data()).ok());
  ASSERT_TRUE(ftl_.Flush().ok());
  uint64_t before = ftl_.stats().meta_page_writes;
  ASSERT_TRUE(ftl_.Flush().ok());
  EXPECT_EQ(ftl_.stats().meta_page_writes, before);
}

TEST_F(PageFtlTest, RecoverAfterCleanFlush) {
  for (Lpn lpn = 0; lpn < 50; ++lpn) {
    auto p = Page(1000 + lpn);
    ASSERT_TRUE(ftl_.Write(lpn, p.data()).ok());
  }
  ASSERT_TRUE(ftl_.Flush().ok());
  ASSERT_TRUE(ftl_.Recover().ok());
  for (Lpn lpn = 0; lpn < 50; ++lpn) ExpectReads(lpn, 1000 + lpn);
}

TEST_F(PageFtlTest, RecoverRollsForwardUnflushedWrites) {
  auto p1 = Page(1);
  ASSERT_TRUE(ftl_.Write(0, p1.data()).ok());
  ASSERT_TRUE(ftl_.Flush().ok());
  // Written after the barrier; a real drive must still find these by
  // scanning OOB sequence numbers.
  auto p2 = Page(2);
  ASSERT_TRUE(ftl_.Write(0, p2.data()).ok());
  auto p3 = Page(3);
  ASSERT_TRUE(ftl_.Write(1, p3.data()).ok());

  ASSERT_TRUE(ftl_.Recover().ok());
  ExpectReads(0, 2);
  ExpectReads(1, 3);
}

TEST_F(PageFtlTest, RecoverAfterPowerFailureDuringWrite) {
  auto p1 = Page(1);
  ASSERT_TRUE(ftl_.Write(0, p1.data()).ok());
  ASSERT_TRUE(ftl_.Flush().ok());

  dev_.ArmCrashPlan({.crash_after_programs = 1, .persist_prob = 1.0});
  auto p2 = Page(2);
  Status s = ftl_.Write(0, p2.data());
  EXPECT_FALSE(s.ok());

  ASSERT_TRUE(ftl_.Recover().ok());
  // The torn copy must not win; the old committed copy survives.
  ExpectReads(0, 1);
}

TEST_F(PageFtlTest, RecoverWithoutAnyFlush) {
  auto p = Page(9);
  ASSERT_TRUE(ftl_.Write(4, p.data()).ok());
  ASSERT_TRUE(ftl_.Recover().ok());
  ExpectReads(4, 9);  // pure OOB roll-forward, no checkpoint at all
}

TEST_F(PageFtlTest, RecoveryIsIdempotent) {
  for (Lpn lpn = 0; lpn < 20; ++lpn) {
    auto p = Page(lpn * 3);
    ASSERT_TRUE(ftl_.Write(lpn, p.data()).ok());
  }
  ASSERT_TRUE(ftl_.Flush().ok());
  ASSERT_TRUE(ftl_.Recover().ok());
  ASSERT_TRUE(ftl_.Recover().ok());
  for (Lpn lpn = 0; lpn < 20; ++lpn) ExpectReads(lpn, lpn * 3);
}

TEST_F(PageFtlTest, WritesKeepWorkingAfterRecovery) {
  auto p1 = Page(1);
  ASSERT_TRUE(ftl_.Write(0, p1.data()).ok());
  ASSERT_TRUE(ftl_.Flush().ok());
  ASSERT_TRUE(ftl_.Recover().ok());
  auto p2 = Page(2);
  ASSERT_TRUE(ftl_.Write(0, p2.data()).ok());
  ASSERT_TRUE(ftl_.Write(200, p1.data()).ok());
  ExpectReads(0, 2);
  ExpectReads(200, 1);
}

TEST_F(PageFtlTest, TrimmedPageStaysGoneAfterRecovery) {
  auto p = Page(5);
  ASSERT_TRUE(ftl_.Write(7, p.data()).ok());
  ASSERT_TRUE(ftl_.Flush().ok());
  ASSERT_TRUE(ftl_.Trim(7).ok());
  ASSERT_TRUE(ftl_.Flush().ok());
  ASSERT_TRUE(ftl_.Recover().ok());
  std::vector<uint8_t> out(dev_.config().page_size);
  ASSERT_TRUE(ftl_.Read(7, out.data()).ok());
  EXPECT_EQ(out[0], 0xff);
}

TEST_F(PageFtlTest, MetaRegionCompactionKeepsWorking) {
  // Force many flushes so the meta region wraps and compacts.
  auto p = Page(1);
  for (int i = 0; i < 200; ++i) {
    std::memcpy(p.data(), &i, sizeof(i));
    ASSERT_TRUE(ftl_.Write(Lpn(i % 16), p.data()).ok());
    ASSERT_TRUE(ftl_.Flush().ok());
  }
  // Survives recovery afterwards.
  ASSERT_TRUE(ftl_.Recover().ok());
  int last = 199;
  std::vector<uint8_t> out(dev_.config().page_size);
  ASSERT_TRUE(ftl_.Read(Lpn(last % 16), out.data()).ok());
  int got;
  std::memcpy(&got, out.data(), sizeof(got));
  EXPECT_EQ(got, last);
}

TEST_F(PageFtlTest, FlushBarrierAdvancesClockPastPrograms) {
  auto p = Page(1);
  SimNanos before = clock_.Now();
  ASSERT_TRUE(ftl_.Write(0, p.data()).ok());
  ASSERT_TRUE(ftl_.Flush().ok());
  // At least one program latency must have elapsed.
  EXPECT_GE(clock_.Now() - before, dev_.config().timings.program_page);
}

// --- NAND failure handling --------------------------------------------------

TEST_F(PageFtlTest, ProgramFailRetiresBlockAndPreservesData) {
  // Lay down data, then fail the next program: the write must land on a
  // fresh block, the failing block is retired with its valid pages
  // relocated, and every mapping still reads back.
  for (Lpn lpn = 0; lpn < 12; ++lpn) {
    auto p = Page(100 + lpn);
    ASSERT_TRUE(ftl_.Write(lpn, p.data()).ok());
  }
  dev_.ScriptProgramFail(1);
  auto p = Page(999);
  ASSERT_TRUE(ftl_.Write(12, p.data()).ok());

  EXPECT_EQ(ftl_.stats().program_fail_reissues, 1u);
  EXPECT_EQ(ftl_.stats().grown_bad_blocks, 1u);
  EXPECT_EQ(ftl_.bad_block_count(), 1u);
  EXPECT_TRUE(dev_.IsBadBlock(ftl_.bad_blocks()[0]));
  EXPECT_FALSE(ftl_.read_only());
  for (Lpn lpn = 0; lpn < 12; ++lpn) ExpectReads(lpn, 100 + lpn);
  ExpectReads(12, 999);
}

TEST_F(PageFtlTest, GcSurvivesEraseFailure) {
  // The first erase under churn is a GC victim erase; failing it must retire
  // the victim as a grown bad block, not wedge the collector.
  dev_.ScriptEraseFail(1);
  std::map<Lpn, uint64_t> expected;
  Rng rng(5);
  for (uint64_t i = 1; i <= 2000; ++i) {
    Lpn lpn = rng.Uniform(128);
    auto p = Page(i);
    ASSERT_TRUE(ftl_.Write(lpn, p.data()).ok());
    expected[lpn] = i;
  }
  ASSERT_GT(ftl_.stats().gc_runs, 0u);
  EXPECT_GE(dev_.stats().erase_fails, 1u);
  EXPECT_GE(ftl_.bad_block_count(), 1u);
  EXPECT_FALSE(ftl_.read_only());
  for (const auto& [lpn, tag] : expected) ExpectReads(lpn, tag);
}

TEST_F(PageFtlTest, GcCopyProgramFailRetiresABlockInsideTheCollection) {
  // A status failure on a GC copy-back program retires the block the copy
  // landed on from inside the collection: the retirement moves that block's
  // valid pages, the collection re-issues the failed copy and still erases
  // its victim, and every page keeps exactly one valid copy.
  const uint32_t min_free = SmallFtl().min_free_blocks;
  std::map<Lpn, uint64_t> expected;
  Rng rng(5);
  uint64_t tag = 0;
  auto write = [&] {
    Lpn lpn = rng.Uniform(240);  // ~half the data pages live: victims hold some
    auto p = Page(++tag);
    ASSERT_TRUE(ftl_.Write(lpn, p.data()).ok());
    expected[lpn] = tag;
  };
  // Churn until the next write must collect a victim with valid pages: its
  // first program is then the victim's first copy-back.
  for (int i = 0;; ++i) {
    ASSERT_LT(i, 10000) << "no GC victim with valid pages";
    ASSERT_FALSE(HasFatalFailure());
    if (ftl_.free_block_count() < min_free) {
      auto victim = ftl_.PeekVictim();
      ASSERT_TRUE(victim.ok());
      if (ftl_.BlockValidCount(victim.value()) > 0) break;
    }
    write();
  }
  const FtlStats base = ftl_.stats();
  dev_.ScriptProgramFail(1);
  write();
  const FtlStats d = CounterDelta(ftl_.stats(), base);
  EXPECT_GE(d.gc_runs, 1u);
  EXPECT_EQ(d.program_fail_reissues, 1u);
  EXPECT_EQ(d.grown_bad_blocks, 1u);
  EXPECT_GT(d.retire_relocations, 0u);
  EXPECT_GT(d.gc_copyback_writes, 0u);
  EXPECT_GE(d.block_erases, 1u);  // the collection finished its victim
  EXPECT_EQ(d.pages_lost, 0u);
  EXPECT_FALSE(ftl_.read_only());

  uint64_t valid = 0;
  for (flash::BlockNum b = 0; b < dev_.config().num_blocks; ++b) {
    valid += ftl_.BlockValidCount(b);
  }
  EXPECT_EQ(valid, expected.size());
  for (const auto& [lpn, t] : expected) {
    EXPECT_FALSE(dev_.IsBadBlock(dev_.config().BlockOf(ftl_.MappingOf(lpn))))
        << "lpn " << lpn << " still maps into the retired block";
    ExpectReads(lpn, t);
  }
  ASSERT_TRUE(ftl_.Flush().ok());
  ASSERT_TRUE(ftl_.Recover().ok());
  for (const auto& [lpn, t] : expected) ExpectReads(lpn, t);
}

TEST_F(PageFtlTest, BadBlocksPersistAcrossRecovery) {
  for (Lpn lpn = 0; lpn < 8; ++lpn) {
    auto p = Page(200 + lpn);
    ASSERT_TRUE(ftl_.Write(lpn, p.data()).ok());
  }
  dev_.ScriptProgramFail(1);
  auto p = Page(777);
  ASSERT_TRUE(ftl_.Write(8, p.data()).ok());
  size_t bad = ftl_.bad_block_count();
  ASSERT_GE(bad, 1u);
  ASSERT_TRUE(ftl_.Flush().ok());

  ASSERT_TRUE(ftl_.Recover().ok());
  // The bad-block list rides the root record; re-marking after recovery must
  // not double-count.
  EXPECT_EQ(ftl_.bad_block_count(), bad);
  EXPECT_FALSE(ftl_.read_only());
  for (Lpn lpn = 0; lpn < 8; ++lpn) ExpectReads(lpn, 200 + lpn);
  ExpectReads(8, 777);
  auto p2 = Page(888);
  ASSERT_TRUE(ftl_.Write(9, p2.data()).ok());
  ExpectReads(9, 888);
}

TEST_F(PageFtlTest, MetaReserveEraseFailureKeepsRootRecord) {
  // The first erase in a flush-heavy, GC-free workload is the meta ring
  // recycling its reserve block. Failing it must not lose the root record:
  // compaction retires the block, moves on, and recovery still finds
  // everything.
  dev_.ScriptEraseFail(1);
  auto p = Page(0);
  int last = 119;
  for (int i = 0; i <= last; ++i) {
    std::memcpy(p.data(), &i, sizeof(i));
    ASSERT_TRUE(ftl_.Write(Lpn(i % 8), p.data()).ok());
    ASSERT_TRUE(ftl_.Flush().ok());
  }
  EXPECT_GE(dev_.stats().erase_fails, 1u);  // the scripted failure fired
  EXPECT_GE(ftl_.bad_block_count(), 1u);

  ASSERT_TRUE(ftl_.Recover().ok());
  EXPECT_FALSE(ftl_.read_only());
  std::vector<uint8_t> out(dev_.config().page_size);
  ASSERT_TRUE(ftl_.Read(Lpn(last % 8), out.data()).ok());
  int got;
  std::memcpy(&got, out.data(), sizeof(got));
  EXPECT_EQ(got, last);
}

TEST_F(PageFtlTest, TornNewestRootFallsBackToOlderEpoch) {
  // Two checkpoint epochs, then the newest root page is torn the way a
  // power cut mid-root-program leaves it. Recovery must fall back to the
  // older epoch and roll the rest forward from OOB — losing nothing.
  for (Lpn lpn = 0; lpn < 8; ++lpn) {
    auto p = Page(300 + lpn);
    ASSERT_TRUE(ftl_.Write(lpn, p.data()).ok());
  }
  ASSERT_TRUE(ftl_.Flush().ok());
  for (Lpn lpn = 8; lpn < 16; ++lpn) {
    auto p = Page(300 + lpn);
    ASSERT_TRUE(ftl_.Write(lpn, p.data()).ok());
  }
  ASSERT_TRUE(ftl_.Flush().ok());

  // Find the newest root record in the meta ring.
  const auto& fc = dev_.config();
  flash::Ppn newest_root = flash::kInvalidPpn;
  uint64_t newest_seq = 0;
  for (flash::Ppn ppn = 0;
       ppn < flash::Ppn(SmallFtl().meta_blocks) * fc.pages_per_block; ++ppn) {
    auto oob = dev_.PeekOob(ppn);
    if (oob.has_value() && oob->tag == kTagMetaRoot && oob->seq > newest_seq) {
      newest_seq = oob->seq;
      newest_root = ppn;
    }
  }
  ASSERT_NE(newest_root, flash::kInvalidPpn);
  std::vector<uint8_t> garbage(fc.page_size, 0xa5);
  dev_.RestorePage(newest_root, flash::FlashDevice::PageState::kTorn,
                   garbage.data(), *dev_.PeekOob(newest_root));

  ASSERT_TRUE(ftl_.Recover().ok());
  for (Lpn lpn = 0; lpn < 16; ++lpn) ExpectReads(lpn, 300 + lpn);
  EXPECT_GE(ftl_.stats().recovery_torn_meta_pages, 1u);
}

TEST_F(PageFtlTest, DroppedSegmentPageSkipsTheWholeEpoch) {
  // A checkpoint whose L2P segment page was lost at a power cut (the root
  // landed, the segment it references did not). The segment slot reads back
  // erased — benign 0xff through ReadPage — so recovery must notice via the
  // OOB that the epoch is incomplete and fall back, not silently load an
  // empty table.
  for (Lpn lpn = 0; lpn < 8; ++lpn) {
    auto p = Page(400 + lpn);
    ASSERT_TRUE(ftl_.Write(lpn, p.data()).ok());
  }
  ASSERT_TRUE(ftl_.Flush().ok());
  for (Lpn lpn = 8; lpn < 16; ++lpn) {
    auto p = Page(400 + lpn);
    ASSERT_TRUE(ftl_.Write(lpn, p.data()).ok());
  }
  ASSERT_TRUE(ftl_.Flush().ok());

  // Drop the newest epoch's segment page (the newest kTagMetaSegment).
  const auto& fc = dev_.config();
  flash::Ppn newest_seg = flash::kInvalidPpn;
  uint64_t newest_seq = 0;
  for (flash::Ppn ppn = 0;
       ppn < flash::Ppn(SmallFtl().meta_blocks) * fc.pages_per_block; ++ppn) {
    auto oob = dev_.PeekOob(ppn);
    if (oob.has_value() && oob->tag == kTagMetaSegment &&
        oob->seq > newest_seq) {
      newest_seq = oob->seq;
      newest_seg = ppn;
    }
  }
  ASSERT_NE(newest_seg, flash::kInvalidPpn);
  dev_.RestorePage(newest_seg, flash::FlashDevice::PageState::kErased, nullptr,
                   flash::PageOob{});

  ASSERT_TRUE(ftl_.Recover().ok());
  for (Lpn lpn = 0; lpn < 16; ++lpn) ExpectReads(lpn, 400 + lpn);
  EXPECT_GE(ftl_.stats().recovery_root_fallbacks, 1u);
}

TEST(PageFtlFaultTest, EccCorrectsBitErrorsOnHostReads) {
  flash::FlashConfig fcfg = SmallFlash();
  fcfg.fault.rber_base = 1e-3;  // ~4 raw errors per 4096-bit page read
  SimClock clock;
  flash::FlashDevice dev(fcfg, &clock);
  PageFtl ftl(&dev, SmallFtl());

  std::vector<uint8_t> buf(fcfg.page_size, 0x3C);
  ASSERT_TRUE(ftl.Write(0, buf.data()).ok());
  std::vector<uint8_t> out(fcfg.page_size);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ftl.Read(0, out.data()).ok());
    EXPECT_EQ(out, buf);  // decoder hands back clean data
  }
  EXPECT_GT(dev.stats().ecc_corrected, 0u);
  EXPECT_EQ(dev.stats().ecc_uncorrectable, 0u);
}

TEST(PageFtlFaultTest, UncorrectableReadSurfacesCorruption) {
  flash::FlashConfig fcfg = SmallFlash();
  fcfg.fault.rber_base = 0.02;         // ~80 errors, far past the budget
  fcfg.fault.retry_rber_factor = 1.0;  // retries don't help either
  SimClock clock;
  flash::FlashDevice dev(fcfg, &clock);
  PageFtl ftl(&dev, SmallFtl());

  std::vector<uint8_t> buf(fcfg.page_size, 0x42);
  ASSERT_TRUE(ftl.Write(0, buf.data()).ok());
  std::vector<uint8_t> out(fcfg.page_size);
  Status s = ftl.Read(0, out.data());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(ftl.stats().ecc_read_retries, SmallFtl().ecc.max_read_retries);
  EXPECT_GE(dev.stats().ecc_uncorrectable, 1u);
}

TEST(PageFtlFaultTest, ExhaustedSparesDegradeToReadOnly) {
  // Every other program reports a status failure, so retirement relocations
  // themselves keep failing and the spare pool grinds away. The FTL must end
  // up read-only — returning ResourceExhausted, never crashing — with the
  // data written on clean media still readable.
  SimClock clock;
  flash::FlashDevice dev(SmallFlash(), &clock);
  PageFtl ftl(&dev, SmallFtl());
  std::vector<uint8_t> buf(dev.config().page_size, 0);
  for (Lpn lpn = 0; lpn < 32; ++lpn) {
    std::memcpy(buf.data(), &lpn, sizeof(lpn));
    ASSERT_TRUE(ftl.Write(lpn, buf.data()).ok());
  }

  dev.ScriptProgramFailEvery(2);
  for (uint64_t i = 0; i < 5000 && !ftl.read_only(); ++i) {
    uint64_t v = 1000 + i;
    std::memcpy(buf.data(), &v, sizeof(v));
    Status s = ftl.Write(32 + Lpn(i % 8), buf.data());
    // A write may fail only by running out of space, never by crashing or
    // surfacing a raw flash error (the write that trips the floor can itself
    // still succeed — degradation is re-evaluated mid-retirement).
    if (!s.ok()) {
      ASSERT_EQ(s.code(), StatusCode::kResourceExhausted);
    }
  }
  ASSERT_TRUE(ftl.read_only());
  EXPECT_EQ(ftl.Write(0, buf.data()).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ftl.Trim(0).code(), StatusCode::kResourceExhausted);

  // Degraded means read-only, not dead.
  std::vector<uint8_t> out(dev.config().page_size);
  for (Lpn lpn = 0; lpn < 32; ++lpn) {
    ASSERT_TRUE(ftl.Read(lpn, out.data()).ok()) << "lpn " << lpn;
    uint64_t got;
    std::memcpy(&got, out.data(), sizeof(got));
    EXPECT_EQ(got, lpn);
  }
}

// --- GC policies ------------------------------------------------------------

class GcPolicyTest : public ::testing::TestWithParam<GcPolicy> {};

TEST_P(GcPolicyTest, PreservesDataUnderChurn) {
  SimClock clock;
  flash::FlashDevice dev(SmallFlash(), &clock);
  FtlConfig cfg = SmallFtl();
  cfg.gc_policy = GetParam();
  PageFtl ftl(&dev, cfg);

  std::map<Lpn, uint64_t> expected;
  Rng rng(17);
  std::vector<uint8_t> buf(dev.config().page_size);
  for (uint64_t i = 1; i <= 3000; ++i) {
    Lpn lpn = rng.Uniform(200);
    std::memcpy(buf.data(), &i, sizeof(i));
    ASSERT_TRUE(ftl.Write(lpn, buf.data()).ok());
    expected[lpn] = i;
  }
  ASSERT_GT(ftl.stats().gc_runs, 0u);
  for (const auto& [lpn, tag] : expected) {
    std::vector<uint8_t> out(dev.config().page_size);
    ASSERT_TRUE(ftl.Read(lpn, out.data()).ok());
    uint64_t got;
    std::memcpy(&got, out.data(), sizeof(got));
    EXPECT_EQ(got, tag) << "lpn " << lpn;
  }
  // And survives recovery.
  ASSERT_TRUE(ftl.Recover().ok());
  std::vector<uint8_t> out(dev.config().page_size);
  ASSERT_TRUE(ftl.Read(expected.begin()->first, out.data()).ok());
  uint64_t got;
  std::memcpy(&got, out.data(), sizeof(got));
  EXPECT_EQ(got, expected.begin()->second);
}

INSTANTIATE_TEST_SUITE_P(Policies, GcPolicyTest,
                         ::testing::Values(GcPolicy::kGreedy,
                                           GcPolicy::kCostBenefit,
                                           GcPolicy::kFifo),
                         [](const auto& info) {
                           std::string name = GcPolicyName(info.param);
                           name.erase(std::remove(name.begin(), name.end(), '-'),
                                      name.end());
                           return name;
                         });

TEST(GcPolicyCompareTest, GreedyHasLowestWriteAmplification) {
  auto run = [](GcPolicy policy) {
    SimClock clock;
    flash::FlashDevice dev(SmallFlash(), &clock);
    FtlConfig cfg = SmallFtl();
    cfg.gc_policy = policy;
    cfg.num_logical_pages = 400;  // high utilization: heavy GC
    PageFtl ftl(&dev, cfg);
    Rng rng(3);
    std::vector<uint8_t> buf(dev.config().page_size, 1);
    for (uint64_t i = 0; i < 400; ++i) CHECK(ftl.Write(i, buf.data()).ok());
    const FtlStats base = ftl.stats();
    for (uint64_t i = 0; i < 3000; ++i) {
      CHECK(ftl.Write(rng.Uniform(400), buf.data()).ok());
    }
    const FtlStats d = CounterDelta(ftl.stats(), base);
    return double(d.TotalPageWrites()) / double(d.host_page_writes);
  };
  double greedy = run(GcPolicy::kGreedy);
  double fifo = run(GcPolicy::kFifo);
  EXPECT_LE(greedy, fifo + 0.05);  // greedy never loses under uniform traffic
}

// Equivalence of the O(1) validity-bucketed victim selection against the
// legacy full linear scan, checked continuously while an aged device churns.
class GcVictimEquivalenceTest : public ::testing::TestWithParam<GcPolicy> {};

TEST_P(GcVictimEquivalenceTest, BucketedMatchesLinearScan) {
  SimClock clock;
  flash::FlashDevice dev(SmallFlash(), &clock);
  FtlConfig cfg = SmallFtl();
  cfg.gc_policy = GetParam();
  cfg.num_logical_pages = 400;  // high utilization: many sealed blocks
  PageFtl ftl(&dev, cfg);

  Rng rng(23);
  std::vector<uint8_t> buf(dev.config().page_size, 1);
  for (uint64_t i = 0; i < 400; ++i) ASSERT_TRUE(ftl.Write(i, buf.data()).ok());
  uint64_t compared = 0;
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(ftl.Write(rng.Uniform(400), buf.data()).ok());
    if (i % 7 != 0) continue;
    auto bucketed = ftl.PeekVictim();
    auto linear = PageFtlTestPeer::PeekVictimLinear(ftl);
    ASSERT_EQ(bucketed.ok(), linear.ok());
    if (bucketed.ok()) {
      EXPECT_EQ(bucketed.value(), linear.value()) << "at write " << i;
      compared++;
    }
  }
  EXPECT_GT(compared, 100u);  // the device really was GC-eligible throughout
  ASSERT_GT(ftl.stats().gc_runs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, GcVictimEquivalenceTest,
                         ::testing::Values(GcPolicy::kGreedy,
                                           GcPolicy::kCostBenefit,
                                           GcPolicy::kFifo),
                         [](const auto& info) {
                           std::string name = GcPolicyName(info.param);
                           name.erase(std::remove(name.begin(), name.end(), '-'),
                                      name.end());
                           return name;
                         });

// Buckets must survive recovery: RebuildBlockState reconstructs them from
// the scanned validity counts.
TEST(GcVictimEquivalenceTest, BucketsRebuiltByRecovery) {
  SimClock clock;
  flash::FlashDevice dev(SmallFlash(), &clock);
  FtlConfig cfg = SmallFtl();
  PageFtl ftl(&dev, cfg);
  Rng rng(29);
  std::vector<uint8_t> buf(dev.config().page_size, 2);
  for (uint64_t i = 0; i < 1500; ++i) {
    ASSERT_TRUE(ftl.Write(rng.Uniform(200), buf.data()).ok());
  }
  ASSERT_TRUE(ftl.Flush().ok());
  ASSERT_TRUE(ftl.Recover().ok());
  auto bucketed = ftl.PeekVictim();
  auto linear = PageFtlTestPeer::PeekVictimLinear(ftl);
  ASSERT_EQ(bucketed.ok(), linear.ok());
  if (bucketed.ok()) {
    EXPECT_EQ(bucketed.value(), linear.value());
  }
}

// --- restart cost -----------------------------------------------------------

// A page-FTL device aged to 70% GC-victim validity, then flushed: the newest
// root checkpoints every page on it.
struct AgedDevice {
  static flash::FlashConfig Geometry(uint32_t num_blocks) {
    flash::FlashConfig fcfg;
    fcfg.page_size = 512;
    fcfg.pages_per_block = 32;
    fcfg.num_blocks = num_blocks;
    fcfg.num_banks = 4;
    return fcfg;
  }
  static FtlConfig Config(uint32_t num_blocks) {
    FtlConfig cfg;
    cfg.meta_blocks = 4;
    cfg.min_free_blocks = 3;
    cfg.num_logical_pages = uint64_t(
        Ager::UtilizationForValidity(0.7) *
        double((num_blocks - cfg.meta_blocks - cfg.min_free_blocks - 2) *
               Geometry(num_blocks).pages_per_block));
    return cfg;
  }

  explicit AgedDevice(uint32_t num_blocks)
      : cfg(Config(num_blocks)),
        dev(Geometry(num_blocks), &clock),
        ftl(&dev, cfg) {
    CHECK(Ager::Age(&ftl, /*seed=*/11, /*overwrite_rounds=*/4).ok());
    CHECK(ftl.Flush().ok());
  }

  std::vector<flash::Ppn> Mappings() const {
    std::vector<flash::Ppn> out;
    for (Lpn lpn = 0; lpn < cfg.num_logical_pages; ++lpn) {
      out.push_back(ftl.MappingOf(lpn));
    }
    return out;
  }
  // The boot's first batch per bank: every programmed meta page and page 0
  // of every programmed data block.
  std::vector<uint64_t> HeadsPerBank() const {
    const flash::FlashConfig& fc = dev.config();
    std::vector<uint64_t> heads(fc.num_banks, 0);
    for (flash::BlockNum b = 0; b < fc.num_blocks; ++b) {
      const uint32_t np = dev.NextProgramPage(b);
      heads[fc.BankOf(b)] += b < cfg.meta_blocks ? np : std::min(np, 1u);
    }
    return heads;
  }
  uint64_t Heads() const {
    std::vector<uint64_t> heads = HeadsPerBank();
    return std::accumulate(heads.begin(), heads.end(), uint64_t{0});
  }
  uint64_t MetaPages() const {
    uint64_t pages = 0;
    for (flash::BlockNum b = 0; b < cfg.meta_blocks; ++b) {
      pages += dev.NextProgramPage(b);
    }
    return pages;
  }

  FtlConfig cfg;
  SimClock clock;
  flash::FlashDevice dev;
  PageFtl ftl;
};

// After a flush, the root vouches for every data page: the boot senses the
// meta pages and page 0 of each programmed block, nothing else, and still
// rebuilds the exact mapping. The open blocks resume instead of sealing.
TEST(RecoveryScanTest, FlushedCutSensesMetaPagesAndPageZeroOfEachBlock) {
  AgedDevice d(128);
  const std::vector<flash::Ppn> before = d.Mappings();
  d.dev.PowerCut();
  const uint64_t blocks = d.Heads() - d.MetaPages();
  ASSERT_GT(blocks, 100u);  // a full device
  const uint64_t oob0 = d.dev.stats().oob_reads;
  ASSERT_TRUE(d.ftl.Recover().ok());

  EXPECT_EQ(d.dev.stats().oob_reads - oob0, d.Heads());
  EXPECT_EQ(d.ftl.stats().recovery_pages_scanned, d.Heads());
  EXPECT_EQ(d.ftl.stats().recovery_blocks_trusted, blocks);
  EXPECT_GE(d.ftl.stats().recovery_blocks_resumed, 1u);
  EXPECT_LE(d.ftl.stats().recovery_blocks_resumed, 4u);
  EXPECT_EQ(d.Mappings(), before);
}

// Writes `n` pages, drains them so the cut keeps them, cuts power and
// returns how many pages beyond page 0 the writes (GC copies included) added
// to flash: all of a block reopened meanwhile, the tail of one already open.
uint64_t WriteAndCut(AgedDevice* d, int n) {
  const flash::FlashConfig& fc = d->dev.config();
  std::vector<uint32_t> wp(fc.num_blocks);
  std::vector<uint64_t> erases(fc.num_blocks);
  for (flash::BlockNum b = 0; b < fc.num_blocks; ++b) {
    wp[b] = d->dev.NextProgramPage(b);
    erases[b] = d->dev.EraseCount(b);
  }
  Rng rng(3);
  std::vector<uint8_t> buf(fc.page_size, 0x3c);
  for (int i = 0; i < n; ++i) {
    CHECK(d->ftl.Write(rng.Uniform(d->cfg.num_logical_pages), buf.data()).ok());
  }
  d->dev.SyncAll();
  d->dev.PowerCut();
  uint64_t tail = 0;
  for (flash::BlockNum b = d->cfg.meta_blocks; b < fc.num_blocks; ++b) {
    const uint32_t np = d->dev.NextProgramPage(b);
    const uint32_t from =
        d->dev.EraseCount(b) != erases[b] ? 1 : std::max(wp[b], 1u);
    if (np > from) tail += np - from;
  }
  return tail;
}

// Pages written after the root cost exactly one sense each, on top of the
// flushed boot's meta pages and page-0 senses; roll-forward still maps them.
TEST(RecoveryScanTest, UnflushedWritesAddExactlyThePagesWrittenAfterTheRoot) {
  AgedDevice d(128);
  const uint64_t tail = WriteAndCut(&d, 40);
  ASSERT_GT(tail, 0u);
  const std::vector<flash::Ppn> before = d.Mappings();
  const uint64_t oob0 = d.dev.stats().oob_reads;
  ASSERT_TRUE(d.ftl.Recover().ok());
  EXPECT_EQ(d.dev.stats().oob_reads - oob0, d.Heads() + tail);
  EXPECT_EQ(d.Mappings(), before);
}

// The first boot resumes the open blocks; the second life fills them
// without writing a root, and the next cut lands before any new checkpoint.
// The third boot loads the first checkpoint again and must still find every
// page the second life wrote into the blocks it resumed.
TEST(RecoveryScanTest, ResumedBlocksSurviveASecondCutBeforeAnyNewRoot) {
  AgedDevice d(128);
  WriteAndCut(&d, 40);
  ASSERT_TRUE(d.ftl.Recover().ok());
  ASSERT_GE(d.ftl.stats().recovery_blocks_resumed, 1u);
  const uint64_t root = d.ftl.last_root_seq();
  ASSERT_GT(WriteAndCut(&d, 60), 0u);
  const std::vector<flash::Ppn> before = d.Mappings();
  ASSERT_TRUE(d.ftl.Recover().ok());
  EXPECT_EQ(d.ftl.last_root_seq(), root);
  EXPECT_EQ(d.Mappings(), before);
}

// A partial block the loaded root neither lists nor postdates (one an
// earlier boot left sealed) must stay sealed: the next boot trusts such a
// block whole, so pages written into it before a new root would be lost.
TEST(RecoveryScanTest, PartialBlockTheRootCannotVouchForStaysSealed) {
  AgedDevice d(128);
  const flash::FlashConfig& fc = d.dev.config();
  flash::BlockNum sealed = d.cfg.meta_blocks;
  while (d.dev.NextProgramPage(sealed) != 0) sealed++;
  std::vector<uint8_t> buf(fc.page_size, 0x11);
  for (uint32_t p = 0; p < 3; ++p) {
    flash::PageOob oob;
    oob.lpn = p;
    oob.seq = 1 + p;  // stale copies, older than any checkpoint
    oob.tag = kTagData;
    oob.block_seq = d.ftl.last_root_seq();  // opened before the root
    d.dev.RestorePage(flash::Ppn(sealed) * fc.pages_per_block + p,
                      flash::FlashDevice::PageState::kProgrammed, buf.data(),
                      oob);
  }
  d.dev.PowerCut();
  ASSERT_TRUE(d.ftl.Recover().ok());
  EXPECT_EQ(d.ftl.stats().recovery_blocks_resumed, 4u);  // the open ones
  // Sealed, it is greedy GC's next victim (nothing valid, lowest number);
  // resumed, it would be an open block out of GC's reach.
  auto victim = d.ftl.PeekVictim();
  ASSERT_TRUE(victim.ok()) << victim.status().ToString();
  EXPECT_EQ(victim.value(), sealed);
}

// Both batches queue every sense at once, so the boot costs the busiest
// bank's first batch, the tail, and the full-page reads (roots, segments,
// roll-forward candidates). Sensing every page would miss this many times.
TEST(RecoveryScanTest, BootTimeFitsTheBusiestBank) {
  AgedDevice d(128);
  const uint64_t tail = WriteAndCut(&d, 40);
  const std::vector<uint64_t> heads = d.HeadsPerBank();
  const flash::FlashStats before = d.dev.stats();
  const SimNanos t0 = d.clock.Now();
  ASSERT_TRUE(d.ftl.Recover().ok());
  const SimNanos elapsed = d.clock.Now() - t0;
  const flash::FlashTimings& t = d.dev.config().timings;
  const SimNanos senses =
      SimNanos(*std::max_element(heads.begin(), heads.end()) + tail) *
      t.read_page;
  const SimNanos reads = SimNanos(d.dev.stats().page_reads -
                                  before.page_reads) *
                         (t.read_page + t.bus_per_page);
  EXPECT_LE(elapsed, SimNanos(1.1 * double(senses)) + reads)
      << "busiest bank + tail " << senses << " ns, reads " << reads << " ns";
}

// Restart tracks the blocks, not the pages: doubling the device adds one
// page-0 sense per added block, while the pages on flash nearly double.
TEST(RecoveryScanTest, DoublingTheDeviceAddsOnePageZeroSensePerBlock) {
  AgedDevice small(64);
  AgedDevice large(128);
  uint64_t data_senses[2], blocks[2], pages[2];
  int i = 0;
  for (AgedDevice* d : {&small, &large}) {
    d->dev.PowerCut();
    blocks[i] = d->Heads() - d->MetaPages();
    pages[i] = 0;
    for (flash::BlockNum b = d->cfg.meta_blocks; b < d->dev.config().num_blocks;
         ++b) {
      pages[i] += d->dev.NextProgramPage(b);
    }
    const uint64_t oob0 = d->dev.stats().oob_reads;
    ASSERT_TRUE(d->ftl.Recover().ok());
    data_senses[i] = d->dev.stats().oob_reads - oob0 - d->MetaPages();
    i++;
  }
  ASSERT_GT(blocks[1], blocks[0]);
  EXPECT_EQ(data_senses[1] - data_senses[0], blocks[1] - blocks[0]);
  EXPECT_GT(pages[1] - pages[0], 20 * (blocks[1] - blocks[0]));
}

// --- aging ----------------------------------------------------------------

TEST(AgerTest, UtilizationMonotonicInValidity) {
  double u30 = Ager::UtilizationForValidity(0.3);
  double u50 = Ager::UtilizationForValidity(0.5);
  double u70 = Ager::UtilizationForValidity(0.7);
  EXPECT_LT(u30, u50);
  EXPECT_LT(u50, u70);
  EXPECT_GT(u30, 0.0);
  EXPECT_LT(u70, 1.0);
}

class AgerValidityTest : public ::testing::TestWithParam<double> {};

TEST_P(AgerValidityTest, AchievesTargetValidityApproximately) {
  double target = GetParam();
  flash::FlashConfig fcfg;
  fcfg.page_size = 512;
  fcfg.pages_per_block = 32;
  fcfg.num_blocks = 128;
  fcfg.num_banks = 4;
  SimClock clock;
  flash::FlashDevice dev(fcfg, &clock);

  FtlConfig cfg;
  cfg.meta_blocks = 4;
  cfg.min_free_blocks = 3;
  uint64_t data_pages = uint64_t(fcfg.num_blocks - cfg.meta_blocks -
                                 cfg.min_free_blocks - 2) *
                        fcfg.pages_per_block;
  cfg.num_logical_pages =
      uint64_t(Ager::UtilizationForValidity(target) * double(data_pages));
  PageFtl ftl(&dev, cfg);

  auto v = Ager::Age(&ftl, /*seed=*/7, /*overwrite_rounds=*/4);
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(v.value(), target, 0.12);
}

INSTANTIATE_TEST_SUITE_P(Targets, AgerValidityTest,
                         ::testing::Values(0.3, 0.5, 0.7));

}  // namespace
}  // namespace xftl::ftl
