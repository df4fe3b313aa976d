// Unit tests for the NAND flash simulator: program/erase constraints, data
// integrity, OOB metadata, bank timing and power-failure injection.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "common/sim_clock.h"
#include "flash/flash_device.h"

namespace xftl::flash {
namespace {

FlashConfig SmallConfig() {
  FlashConfig cfg;
  cfg.page_size = 512;  // small pages keep tests fast
  cfg.pages_per_block = 8;
  cfg.num_blocks = 16;
  cfg.num_banks = 4;
  return cfg;
}

class FlashDeviceTest : public ::testing::Test {
 protected:
  FlashDeviceTest() : dev_(SmallConfig(), &clock_) {}

  std::vector<uint8_t> Pattern(uint8_t fill) {
    return std::vector<uint8_t>(dev_.config().page_size, fill);
  }

  SimClock clock_;
  FlashDevice dev_;
};

TEST_F(FlashDeviceTest, ProgramThenReadRoundTrips) {
  auto data = Pattern(0xAB);
  PageOob oob{.lpn = 7, .seq = 1, .tag = 2};
  ASSERT_TRUE(dev_.ProgramPage(0, data.data(), oob).ok());

  std::vector<uint8_t> out(dev_.config().page_size);
  PageOob oob_out;
  ASSERT_TRUE(dev_.ReadPage(0, out.data(), &oob_out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(oob_out.lpn, 7u);
  EXPECT_EQ(oob_out.seq, 1u);
  EXPECT_EQ(oob_out.tag, 2u);
}

TEST_F(FlashDeviceTest, ReadingErasedPageReturnsFf) {
  std::vector<uint8_t> out(dev_.config().page_size, 0);
  ASSERT_TRUE(dev_.ReadPage(5, out.data()).ok());
  for (uint8_t b : out) EXPECT_EQ(b, 0xff);
}

TEST_F(FlashDeviceTest, ReadOobOfErasedPageIsEmpty) {
  std::vector<std::optional<PageOob>> out;
  ASSERT_TRUE(dev_.ReadOobBatch({3}, &out).ok());
  EXPECT_FALSE(out[0].has_value());
}

TEST_F(FlashDeviceTest, OverwriteWithoutEraseRejected) {
  auto data = Pattern(0x11);
  ASSERT_TRUE(dev_.ProgramPage(0, data.data(), {}).ok());
  Status s = dev_.ProgramPage(0, data.data(), {});
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(FlashDeviceTest, OutOfOrderProgramWithinBlockRejected) {
  auto data = Pattern(0x22);
  // Page 2 of block 0 before pages 0-1: violates the MLC program order.
  Status s = dev_.ProgramPage(2, data.data(), {});
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(FlashDeviceTest, EraseResetsBlock) {
  auto data = Pattern(0x33);
  ASSERT_TRUE(dev_.ProgramPage(0, data.data(), {}).ok());
  ASSERT_TRUE(dev_.ProgramPage(1, data.data(), {}).ok());
  EXPECT_EQ(dev_.NextProgramPage(0), 2u);

  ASSERT_TRUE(dev_.EraseBlock(0).ok());
  EXPECT_EQ(dev_.NextProgramPage(0), 0u);
  EXPECT_EQ(dev_.EraseCount(0), 1u);
  EXPECT_FALSE(dev_.IsProgrammed(0));
  // Programmable again from page 0.
  ASSERT_TRUE(dev_.ProgramPage(0, data.data(), {}).ok());
}

// An erase keeps the block's old bytes in memory; every read path must go by
// the page state and never show them.
TEST_F(FlashDeviceTest, ErasedPageReadsFfAndReprograms) {
  auto old_data = Pattern(0x5a);
  ASSERT_TRUE(dev_.ProgramPage(0, old_data.data(), {.lpn = 3, .seq = 1}).ok());
  ASSERT_TRUE(dev_.EraseBlock(0).ok());

  EXPECT_EQ(dev_.PageStateOf(0), FlashDevice::PageState::kErased);
  EXPECT_EQ(dev_.PeekPageData(0), nullptr);
  EXPECT_FALSE(dev_.PeekOob(0).has_value());
  std::vector<std::optional<PageOob>> oobs;
  ASSERT_TRUE(dev_.ReadOobBatch({0}, &oobs).ok());
  EXPECT_FALSE(oobs[0].has_value());
  std::vector<uint8_t> out(dev_.config().page_size, 0);
  PageOob oob{.lpn = 99};
  ASSERT_TRUE(dev_.ReadPage(0, out.data(), &oob).ok());
  EXPECT_EQ(out, Pattern(0xff));
  EXPECT_EQ(oob.lpn, kInvalidLpn);

  auto new_data = Pattern(0xc3);
  ASSERT_TRUE(dev_.ProgramPage(0, new_data.data(), {.lpn = 4, .seq = 2}).ok());
  EXPECT_EQ(dev_.PageStateOf(0), FlashDevice::PageState::kProgrammed);
  ASSERT_TRUE(dev_.ReadPage(0, out.data(), &oob).ok());
  EXPECT_EQ(out, new_data);
  EXPECT_EQ(oob.lpn, 4u);
  ASSERT_NE(dev_.PeekPageData(0), nullptr);
  EXPECT_EQ(std::memcmp(dev_.PeekPageData(0), new_data.data(), out.size()), 0);
}

TEST_F(FlashDeviceTest, OutOfRangeRejected) {
  auto data = Pattern(0);
  EXPECT_EQ(dev_.ProgramPage(uint32_t(dev_.config().TotalPages()), data.data(), {})
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(dev_.EraseBlock(dev_.config().num_blocks).code(),
            StatusCode::kOutOfRange);
}

TEST_F(FlashDeviceTest, StatsCountOperations) {
  auto data = Pattern(0x44);
  std::vector<uint8_t> out(dev_.config().page_size);
  ASSERT_TRUE(dev_.ProgramPage(0, data.data(), {}).ok());
  ASSERT_TRUE(dev_.ReadPage(0, out.data()).ok());
  ASSERT_TRUE(dev_.EraseBlock(1).ok());
  EXPECT_EQ(dev_.stats().page_programs, 1u);
  EXPECT_EQ(dev_.stats().page_reads, 1u);
  EXPECT_EQ(dev_.stats().block_erases, 1u);
}

TEST_F(FlashDeviceTest, ReadChargesTime) {
  std::vector<uint8_t> out(dev_.config().page_size);
  SimNanos before = clock_.Now();
  ASSERT_TRUE(dev_.ReadPage(0, out.data()).ok());
  EXPECT_EQ(clock_.Now() - before, dev_.config().timings.read_page +
                                       dev_.config().timings.bus_per_page);
}

TEST_F(FlashDeviceTest, ProgramsOnDifferentBanksOverlap) {
  const auto& cfg = dev_.config();
  auto data = Pattern(0x55);
  // One page on each of 4 banks (blocks 0..3 map to banks 0..3).
  for (uint32_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(
        dev_.ProgramPage(b * cfg.pages_per_block, data.data(), {}).ok());
  }
  dev_.SyncAll();
  // Queued-command pipeline: the shared channel serializes the four page
  // transfers, then the programs run concurrently on their banks. Total =
  // N x bus + 1 x program, not N x (bus + program).
  EXPECT_EQ(clock_.Now(),
            4 * cfg.timings.bus_per_page + cfg.timings.program_page);
}

TEST_F(FlashDeviceTest, ProgramsOnSameBankSerialize) {
  const auto& cfg = dev_.config();
  auto data = Pattern(0x66);
  for (uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(dev_.ProgramPage(p, data.data(), {}).ok());  // block 0, bank 0
  }
  dev_.SyncAll();
  // The channel transfers overlap with earlier programs, but the four
  // programs chain on the single bank: bus + 4 x program total.
  EXPECT_EQ(clock_.Now(),
            cfg.timings.bus_per_page + 4 * cfg.timings.program_page);
}

TEST_F(FlashDeviceTest, ChannelSerializesAcrossBanksBeforeProgramsOverlap) {
  // All four banks busy and the channel saturated: 8 pages across 4 banks
  // finish in 8 transfers plus the last bank's two chained programs.
  const auto& cfg = dev_.config();
  auto data = Pattern(0x5A);
  for (uint32_t p = 0; p < 2; ++p) {
    for (uint32_t b = 0; b < 4; ++b) {
      ASSERT_TRUE(
          dev_.ProgramPage(b * cfg.pages_per_block + p, data.data(), {}).ok());
    }
  }
  dev_.SyncAll();
  const SimNanos bus = cfg.timings.bus_per_page;
  const SimNanos prog = cfg.timings.program_page;
  // Bank 3's first page lands after 4 transfers; its second program chains
  // after the first (transfers complete long before the program frees up).
  EXPECT_EQ(clock_.Now(), 4 * bus + 2 * prog);
}

TEST_F(FlashDeviceTest, ReadWaitsForInflightProgramOnSameBank) {
  // A read is data-dependent: it must wait for the bank's in-flight program
  // even though ProgramPage returned at transfer time.
  const auto& cfg = dev_.config();
  auto data = Pattern(0x5B);
  ASSERT_TRUE(dev_.ProgramPage(0, data.data(), {}).ok());
  EXPECT_EQ(clock_.Now(), cfg.timings.bus_per_page);  // submit-only
  std::vector<uint8_t> out(cfg.page_size);
  ASSERT_TRUE(dev_.ReadPage(0, out.data()).ok());
  EXPECT_EQ(out, data);
  // bus (program xfer) + program + sense + bus (read xfer).
  EXPECT_EQ(clock_.Now(), 2 * cfg.timings.bus_per_page +
                              cfg.timings.program_page +
                              cfg.timings.read_page);
}

TEST_F(FlashDeviceTest, WriteBufferBoundsInflightPrograms) {
  FlashConfig cfg = SmallConfig();
  cfg.write_buffer_pages = 2;
  cfg.num_banks = 1;  // force serialization
  SimClock clock;
  FlashDevice dev(cfg, &clock);
  auto data = Pattern(0x77);
  // With a buffer of 2 on one bank, the 4th program must stall behind
  // earlier completions.
  for (uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(dev.ProgramPage(p, data.data(), {}).ok());
  }
  SimNanos per_program = cfg.timings.bus_per_page + cfg.timings.program_page;
  EXPECT_GE(clock.Now(), per_program);  // stalled at least once
}

// --- barrier (epoch) ordering -----------------------------------------------

TEST_F(FlashDeviceTest, CrossEpochProgramWaitsForFence) {
  const auto& cfg = dev_.config();
  auto data = Pattern(0x91);
  dev_.AdvanceEpoch();  // epoch 1
  ASSERT_TRUE(dev_.ProgramPage(0, data.data(), {}).ok());  // bank 0
  dev_.AdvanceEpoch();  // epoch 2
  ASSERT_TRUE(
      dev_.ProgramPage(cfg.pages_per_block, data.data(), {}).ok());  // bank 1
  // The barrier never blocked the issuer: only the two channel transfers of
  // wall clock have passed at submit time.
  EXPECT_EQ(clock_.Now(), 2 * cfg.timings.bus_per_page);
  dev_.SyncAll();
  // Bank 1's transfer landed at 2 x bus with its bank idle, but the epoch-2
  // program may not start before bank 0's epoch-1 program completes at
  // bus + prog: the two programs chain even across distinct banks.
  EXPECT_EQ(clock_.Now(),
            cfg.timings.bus_per_page + 2 * cfg.timings.program_page);
  EXPECT_EQ(dev_.stats().programs_stalled_for_order, 1u);
  EXPECT_EQ(dev_.stats().barrier_epochs, 2u);
}

TEST_F(FlashDeviceTest, BanksStillOverlapWithinAnEpoch) {
  const auto& cfg = dev_.config();
  auto data = Pattern(0x92);
  dev_.AdvanceEpoch();  // everything below shares epoch 1
  for (uint32_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(
        dev_.ProgramPage(b * cfg.pages_per_block, data.data(), {}).ok());
  }
  dev_.SyncAll();
  // Identical to the unfenced pipeline: the fence only orders ACROSS
  // epochs, so the four same-epoch programs still overlap on their banks.
  EXPECT_EQ(clock_.Now(),
            4 * cfg.timings.bus_per_page + cfg.timings.program_page);
  EXPECT_EQ(dev_.stats().programs_stalled_for_order, 0u);
}

TEST_F(FlashDeviceTest, EpochsPipelineWithoutDraining) {
  // Three epochs, one program each on three different banks: the issuer
  // pays only the transfers, while the controller chains the programs
  // back-to-back. A drain at each boundary would cost 3 x (bus + prog)
  // of issuer wall clock; the barrier costs 3 x bus.
  const auto& cfg = dev_.config();
  const SimNanos bus = cfg.timings.bus_per_page;
  const SimNanos prog = cfg.timings.program_page;
  auto data = Pattern(0x93);
  for (uint32_t b = 0; b < 3; ++b) {
    dev_.AdvanceEpoch();
    ASSERT_TRUE(
        dev_.ProgramPage(b * cfg.pages_per_block, data.data(), {}).ok());
  }
  EXPECT_EQ(clock_.Now(), 3 * bus);  // issuer never waited
  dev_.SyncAll();
  // Each program starts at its predecessor's completion: bus + 3 x prog.
  EXPECT_EQ(clock_.Now(), bus + 3 * prog);
  EXPECT_EQ(dev_.stats().programs_stalled_for_order, 2u);
  EXPECT_EQ(dev_.stats().max_epochs_in_flight, 2u);
}

TEST_F(FlashDeviceTest, SameBankStallUnderFenceCountsAsBankStall) {
  const auto& cfg = dev_.config();
  auto data = Pattern(0x94);
  dev_.AdvanceEpoch();
  ASSERT_TRUE(dev_.ProgramPage(0, data.data(), {}).ok());  // bank 0
  ASSERT_TRUE(dev_.ProgramPage(1, data.data(), {}).ok());  // bank 0 again
  dev_.SyncAll();
  // The second program waited for its bank, not for an epoch fence — the
  // two stall causes are separated in the stats.
  EXPECT_EQ(dev_.stats().programs_stalled_for_bank, 1u);
  EXPECT_EQ(dev_.stats().programs_stalled_for_order, 0u);
  EXPECT_EQ(clock_.Now(),
            cfg.timings.bus_per_page + 2 * cfg.timings.program_page);
}

TEST_F(FlashDeviceTest, UnfencedProgramsKeepDrainModeTiming) {
  // Epoch 0 (no AdvanceEpoch ever): the scheduler must behave bit-identically
  // to the pre-barrier device — no fence, no stall accounting.
  const auto& cfg = dev_.config();
  auto data = Pattern(0x95);
  for (uint32_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(
        dev_.ProgramPage(b * cfg.pages_per_block, data.data(), {}).ok());
  }
  dev_.SyncAll();
  EXPECT_EQ(clock_.Now(),
            4 * cfg.timings.bus_per_page + cfg.timings.program_page);
  EXPECT_EQ(dev_.stats().programs_stalled_for_order, 0u);
  EXPECT_EQ(dev_.stats().programs_stalled_for_bank, 0u);
  EXPECT_EQ(dev_.stats().barrier_epochs, 0u);
}

TEST_F(FlashDeviceTest, CrashSurvivalIsEpochPrefixConsistent) {
  // Buffered programs spread over three epochs, then a sampled crash: if
  // any program of epoch e dropped, every later-epoch program must have
  // dropped too, for every crash seed.
  const auto& cfg = dev_.config();
  auto data = Pattern(0x96);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SimClock clock;
    FlashDevice dev(cfg, &clock);
    struct Issued {
      Ppn ppn;
      uint64_t epoch;
    };
    std::vector<Issued> issued;
    // Two pages per epoch on rotating banks so several blocks hold
    // multi-epoch suffixes in the buffer.
    for (uint64_t e = 1; e <= 3; ++e) {
      dev.AdvanceEpoch();
      for (uint32_t i = 0; i < 2; ++i) {
        uint32_t block = uint32_t((e - 1) * 2 + i) % cfg.num_blocks;
        Ppn ppn = block * cfg.pages_per_block;
        ASSERT_TRUE(dev.ProgramPage(ppn, data.data(), {.lpn = ppn}).ok());
        issued.push_back({ppn, e});
      }
    }
    CrashPlan plan;
    plan.crash_after_programs = 1;
    plan.seed = seed;
    plan.persist_prob = 0.5;
    dev.ArmCrashPlan(plan);
    // The crash victim lands in a fourth epoch of its own.
    dev.AdvanceEpoch();
    Ppn victim = 7 * cfg.pages_per_block;
    EXPECT_EQ(dev.ProgramPage(victim, data.data(), {}).code(),
              StatusCode::kIoError);
    dev.ClearFailure();

    uint64_t min_dropped = ~uint64_t{0};
    uint64_t max_survived = 0;
    for (const Issued& p : issued) {
      if (dev.IsProgrammed(p.ppn)) {
        max_survived = std::max(max_survived, p.epoch);
      } else {
        min_dropped = std::min(min_dropped, p.epoch);
      }
    }
    // Epoch-prefix durability: no survivor from an epoch AFTER the first
    // dropped one. Partial survival inside the first dropped epoch itself is
    // legal — the fence orders across epochs, not within them.
    EXPECT_LE(max_survived, min_dropped) << "seed " << seed;
  }
}

TEST_F(FlashDeviceTest, PowerCutResetsFenceButKeepsEpochMonotone) {
  auto data = Pattern(0x97);
  dev_.AdvanceEpoch();
  ASSERT_TRUE(dev_.ProgramPage(0, data.data(), {}).ok());
  dev_.AdvanceEpoch();
  EXPECT_GT(dev_.epoch_fence(), 0u);
  uint64_t epoch_before = dev_.current_epoch();
  dev_.PowerCut();
  dev_.ClearFailure();
  // The fence died with the RAM state — post-reboot programs must not wait
  // on pre-cut completions — but the epoch id itself never goes backwards.
  EXPECT_EQ(dev_.epoch_fence(), 0u);
  EXPECT_GE(dev_.current_epoch(), epoch_before);
  ASSERT_TRUE(dev_.ProgramPage(1 * dev_.config().pages_per_block,
                               data.data(), {})
                  .ok());
}

TEST_F(FlashDeviceTest, PowerFailureTearsPageAndHaltsDevice) {
  auto data = Pattern(0x88);
  ASSERT_TRUE(dev_.ProgramPage(0, data.data(), {}).ok());
  dev_.ArmCrashPlan({.crash_after_programs = 1, .persist_prob = 1.0});
  Status s = dev_.ProgramPage(1, data.data(), {.lpn = 9, .seq = 5, .tag = 1});
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_TRUE(dev_.HasFailed());
  EXPECT_EQ(dev_.stats().torn_programs, 1u);

  // All commands rejected until reboot.
  std::vector<uint8_t> out(dev_.config().page_size);
  EXPECT_EQ(dev_.ReadPage(0, out.data()).code(), StatusCode::kIoError);

  dev_.ClearFailure();
  // Pre-crash page intact.
  ASSERT_TRUE(dev_.ReadPage(0, out.data()).ok());
  EXPECT_EQ(out, data);
  // The torn page reads as corruption.
  EXPECT_EQ(dev_.ReadPage(1, out.data()).code(), StatusCode::kCorruption);
}

TEST_F(FlashDeviceTest, PowerFailureCountdown) {
  auto data = Pattern(0x99);
  dev_.ArmCrashPlan({.crash_after_programs = 3, .persist_prob = 1.0});
  EXPECT_TRUE(dev_.ProgramPage(0, data.data(), {}).ok());
  EXPECT_TRUE(dev_.ProgramPage(1, data.data(), {}).ok());
  EXPECT_EQ(dev_.ProgramPage(2, data.data(), {}).code(), StatusCode::kIoError);
}

TEST_F(FlashDeviceTest, TornPageStillCountsProgramOrder) {
  auto data = Pattern(0xAA);
  dev_.ArmCrashPlan({.crash_after_programs = 1, .persist_prob = 1.0});
  EXPECT_FALSE(dev_.ProgramPage(0, data.data(), {}).ok());
  dev_.ClearFailure();
  // The torn page consumed program slot 0; the next in-order page is 1.
  EXPECT_EQ(dev_.NextProgramPage(0), 1u);
  EXPECT_TRUE(dev_.ProgramPage(1, data.data(), {}).ok());
}

TEST_F(FlashDeviceTest, ContentsSurviveReboot) {
  auto data = Pattern(0xBB);
  PageOob oob{.lpn = 42, .seq = 17, .tag = 1};
  ASSERT_TRUE(dev_.ProgramPage(0, data.data(), oob).ok());
  dev_.ArmCrashPlan({.crash_after_programs = 1, .persist_prob = 1.0});
  (void)dev_.ProgramPage(1, data.data(), {});
  dev_.ClearFailure();

  std::vector<std::optional<PageOob>> out;
  ASSERT_TRUE(dev_.ReadOobBatch({0}, &out).ok());
  ASSERT_TRUE(out[0].has_value());
  EXPECT_EQ(out[0]->lpn, 42u);
  EXPECT_EQ(out[0]->seq, 17u);
}

// --- batched OOB reads (the recovery scan) ----------------------------------

TEST_F(FlashDeviceTest, OobBatchOverlapsAcrossBanks) {
  auto data = Pattern(0x5A);
  // Two pages on each of blocks 0..3 (banks 0..3) and one on block 4, which
  // shares bank 0: bank 0 holds the longest chain, three senses.
  std::vector<Ppn> ppns = {0, 1, 8, 9, 16, 17, 24, 25, 32};
  for (Ppn ppn : ppns) {
    ASSERT_TRUE(dev_.ProgramPage(ppn, data.data(), {.lpn = ppn}).ok());
  }
  dev_.SyncAll();
  SimNanos t0 = clock_.Now();
  std::vector<std::optional<PageOob>> out;
  ASSERT_TRUE(dev_.ReadOobBatch(ppns, &out).ok());
  EXPECT_EQ(clock_.Now() - t0, 3 * dev_.config().timings.read_page);
  EXPECT_EQ(dev_.stats().oob_reads, ppns.size());
  ASSERT_EQ(out.size(), ppns.size());
  for (size_t i = 0; i < ppns.size(); ++i) {
    ASSERT_TRUE(out[i].has_value());
    EXPECT_EQ(out[i]->lpn, ppns[i]);
  }
}

TEST_F(FlashDeviceTest, OobBatchOnOneBankSerializes) {
  auto data = Pattern(0x5B);
  for (Ppn ppn = 0; ppn < 4; ++ppn) {
    ASSERT_TRUE(dev_.ProgramPage(ppn, data.data(), {}).ok());
  }
  dev_.SyncAll();
  SimNanos t0 = clock_.Now();
  std::vector<std::optional<PageOob>> out;
  // Pages 0..3 and the erased page 4 all sit in block 0 (bank 0).
  ASSERT_TRUE(dev_.ReadOobBatch({0, 1, 2, 3, 4}, &out).ok());
  EXPECT_EQ(clock_.Now() - t0, 5 * dev_.config().timings.read_page);
  EXPECT_TRUE(out[3].has_value());
  EXPECT_FALSE(out[4].has_value());
}

// A one-page batch is how a single OOB is read: one sense, no data transfer.
TEST_F(FlashDeviceTest, OobBatchOfOneIsReadOob) {
  const SimNanos tR = dev_.config().timings.read_page;
  auto data = Pattern(0x5C);
  // An idle bank: one tR and no channel time.
  ASSERT_TRUE(dev_.ProgramPage(0, data.data(), {.lpn = 9}).ok());
  dev_.SyncAll();
  SimNanos t0 = clock_.Now();
  std::vector<std::optional<PageOob>> out;
  ASSERT_TRUE(dev_.ReadOobBatch({0}, &out).ok());
  EXPECT_EQ(clock_.Now() - t0, tR);
  ASSERT_TRUE(out[0].has_value());
  EXPECT_EQ(out[0]->lpn, 9u);
  // A bank still programming: the sense queues behind the program.
  ASSERT_TRUE(dev_.ProgramPage(1, data.data(), {}).ok());
  SimNanos program_done = dev_.last_op_done();
  ASSERT_TRUE(dev_.ReadOobBatch({1}, &out).ok());
  EXPECT_EQ(clock_.Now(), program_done + tR);
  EXPECT_EQ(dev_.stats().oob_reads, 2u);
  EXPECT_EQ(dev_.stats().page_reads, 0u);
}

TEST_F(FlashDeviceTest, OobBatchRefusesDeadDeviceAndBadPpn) {
  std::vector<std::optional<PageOob>> out;
  EXPECT_EQ(dev_.ReadOobBatch({Ppn(dev_.config().TotalPages())}, &out).code(),
            StatusCode::kOutOfRange);
  dev_.PowerCut();
  EXPECT_EQ(dev_.ReadOobBatch({0}, &out).code(), StatusCode::kIoError);
  EXPECT_EQ(dev_.stats().oob_reads, 0u);
}

// --- NAND failure injection -------------------------------------------------

TEST_F(FlashDeviceTest, CrashPlanAfterZeroProgramsFailsNextProgram) {
  // Regression: a countdown of 0 used to leave the counter in a state that
  // never fired (it wrapped instead). ArmCrashPlan clamps 0 to 1, so a plan
  // after 0 programs defensively means "the very next program".
  auto data = Pattern(0xCC);
  dev_.ArmCrashPlan({.crash_after_programs = 0, .persist_prob = 1.0});
  EXPECT_EQ(dev_.ProgramPage(0, data.data(), {}).code(), StatusCode::kIoError);
  EXPECT_TRUE(dev_.HasFailed());
}

TEST_F(FlashDeviceTest, ScriptedProgramFailGrowsBadBlock) {
  auto data = Pattern(0xD0);
  ASSERT_TRUE(dev_.ProgramPage(0, data.data(), {.lpn = 1}).ok());
  dev_.ScriptProgramFail(1);
  Status s = dev_.ProgramPage(1, data.data(), {.lpn = 2});
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  // A status failure is not a power loss: the device stays alive.
  EXPECT_FALSE(dev_.HasFailed());
  EXPECT_TRUE(dev_.IsBadBlock(0));
  EXPECT_EQ(dev_.stats().program_fails, 1u);

  // The failed page holds garbage; earlier pages remain readable so the FTL
  // can evacuate them.
  std::vector<uint8_t> out(dev_.config().page_size);
  EXPECT_EQ(dev_.ReadPage(1, out.data()).code(), StatusCode::kCorruption);
  ASSERT_TRUE(dev_.ReadPage(0, out.data()).ok());
  EXPECT_EQ(out, data);

  // The bad block refuses further programs and erases.
  EXPECT_EQ(dev_.ProgramPage(2, data.data(), {}).code(), StatusCode::kIoError);
  EXPECT_EQ(dev_.EraseBlock(0).code(), StatusCode::kIoError);
}

TEST_F(FlashDeviceTest, ScriptedEraseFailGrowsBadBlock) {
  auto data = Pattern(0xD1);
  ASSERT_TRUE(dev_.ProgramPage(0, data.data(), {.lpn = 1}).ok());
  dev_.ScriptEraseFail(1);
  EXPECT_EQ(dev_.EraseBlock(0).code(), StatusCode::kIoError);
  EXPECT_FALSE(dev_.HasFailed());
  EXPECT_TRUE(dev_.IsBadBlock(0));
  EXPECT_EQ(dev_.stats().erase_fails, 1u);
  // The erase pulse ran (wear accrues) but left every page garbage.
  EXPECT_EQ(dev_.EraseCount(0), 1u);
  std::vector<uint8_t> out(dev_.config().page_size);
  EXPECT_EQ(dev_.ReadPage(0, out.data()).code(), StatusCode::kCorruption);
}

TEST_F(FlashDeviceTest, ScriptedFailCountdownTargetsNthOperation) {
  auto data = Pattern(0xD2);
  dev_.ScriptProgramFail(3);
  EXPECT_TRUE(dev_.ProgramPage(0, data.data(), {}).ok());
  EXPECT_TRUE(dev_.ProgramPage(1, data.data(), {}).ok());
  EXPECT_EQ(dev_.ProgramPage(2, data.data(), {}).code(), StatusCode::kIoError);
  EXPECT_TRUE(dev_.IsBadBlock(0));
}

TEST_F(FlashDeviceTest, BadBlockSurvivesReboot) {
  auto data = Pattern(0xD3);
  dev_.ScriptProgramFail(1);
  EXPECT_FALSE(dev_.ProgramPage(0, data.data(), {}).ok());
  ASSERT_TRUE(dev_.IsBadBlock(0));
  dev_.ClearFailure();
  // Grown bad blocks are physical damage; a reboot does not heal them.
  EXPECT_TRUE(dev_.IsBadBlock(0));
  EXPECT_EQ(dev_.EraseBlock(0).code(), StatusCode::kIoError);
}

TEST_F(FlashDeviceTest, ProbabilisticProgramFailAtOneAlwaysFires) {
  FlashConfig cfg = SmallConfig();
  cfg.fault.program_fail_prob = 1.0;
  SimClock clock;
  FlashDevice dev(cfg, &clock);
  auto data = Pattern(0xD4);
  EXPECT_EQ(dev.ProgramPage(0, data.data(), {}).code(), StatusCode::kIoError);
  EXPECT_TRUE(dev.IsBadBlock(0));
}

TEST_F(FlashDeviceTest, RberReportsBitErrorsWithoutCorruptingData) {
  FlashConfig cfg = SmallConfig();
  cfg.fault.rber_base = 1e-3;  // 512 B page = 4096 bits -> ~4 errors/read
  SimClock clock;
  FlashDevice dev(cfg, &clock);
  std::vector<uint8_t> data(cfg.page_size, 0xAB);
  ASSERT_TRUE(dev.ProgramPage(0, data.data(), {}).ok());

  std::vector<uint8_t> out(cfg.page_size);
  uint64_t total = 0;
  for (int i = 0; i < 50; ++i) {
    uint32_t bit_errors = ~0u;
    ASSERT_TRUE(dev.ReadPage(0, out.data(), nullptr, &bit_errors).ok());
    // The buffer is returned intact — the error count is advisory, and it is
    // the ECC engine's job to act on it.
    EXPECT_EQ(out, data);
    total += bit_errors;
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(dev.stats().bit_flips, total);
}

TEST_F(FlashDeviceTest, ReadRetryLowersBitErrorRate) {
  FlashConfig cfg = SmallConfig();
  cfg.fault.rber_base = 5e-3;
  cfg.fault.retry_rber_factor = 0.25;
  SimClock clock;
  FlashDevice dev(cfg, &clock);
  std::vector<uint8_t> data(cfg.page_size, 0x5A);
  ASSERT_TRUE(dev.ProgramPage(0, data.data(), {}).ok());

  std::vector<uint8_t> out(cfg.page_size);
  uint64_t at_level0 = 0, at_level4 = 0;
  for (int i = 0; i < 100; ++i) {
    uint32_t e = 0;
    ASSERT_TRUE(dev.ReadPage(0, out.data(), nullptr, &e, 0).ok());
    at_level0 += e;
    ASSERT_TRUE(dev.ReadPage(0, out.data(), nullptr, &e, 4).ok());
    at_level4 += e;
  }
  // 0.25^4 = 1/256: shifted sensing voltages must cut the error rate hard.
  EXPECT_LT(at_level4 * 10, at_level0);
}

TEST_F(FlashDeviceTest, WearRaisesBitErrorRate) {
  FlashConfig cfg = SmallConfig();
  cfg.fault.rber_per_pe_cycle = 1e-4;  // young blocks clean, worn blocks not
  SimClock clock;
  FlashDevice dev(cfg, &clock);
  std::vector<uint8_t> data(cfg.page_size, 0x77);
  for (int cycle = 0; cycle < 50; ++cycle) {
    ASSERT_TRUE(dev.ProgramPage(0, data.data(), {}).ok());
    ASSERT_TRUE(dev.EraseBlock(0).ok());
  }
  ASSERT_TRUE(dev.ProgramPage(0, data.data(), {}).ok());
  ASSERT_TRUE(dev.ProgramPage(1 * cfg.pages_per_block, data.data(), {}).ok());

  std::vector<uint8_t> out(cfg.page_size);
  uint64_t worn = 0, fresh = 0;
  for (int i = 0; i < 50; ++i) {
    uint32_t e = 0;
    ASSERT_TRUE(dev.ReadPage(0, out.data(), nullptr, &e).ok());
    worn += e;
    ASSERT_TRUE(dev.ReadPage(1 * cfg.pages_per_block, out.data(), nullptr, &e)
                    .ok());
    fresh += e;
  }
  EXPECT_GT(worn, fresh);  // 50 P/E cycles vs 0
}

// Property-style sweep: every page of every block round-trips its own
// distinct pattern, in program order, across all banks.
class FlashSweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FlashSweepTest, WholeBlockRoundTrip) {
  FlashConfig cfg = SmallConfig();
  SimClock clock;
  FlashDevice dev(cfg, &clock);
  uint32_t block = GetParam();
  std::vector<uint8_t> buf(cfg.page_size);
  for (uint32_t p = 0; p < cfg.pages_per_block; ++p) {
    Ppn ppn = block * cfg.pages_per_block + p;
    std::fill(buf.begin(), buf.end(), uint8_t(block * 16 + p));
    ASSERT_TRUE(dev.ProgramPage(ppn, buf.data(), {.lpn = ppn}).ok());
  }
  std::vector<uint8_t> out(cfg.page_size);
  for (uint32_t p = 0; p < cfg.pages_per_block; ++p) {
    Ppn ppn = block * cfg.pages_per_block + p;
    ASSERT_TRUE(dev.ReadPage(ppn, out.data()).ok());
    EXPECT_EQ(out[0], uint8_t(block * 16 + p));
    EXPECT_EQ(out[cfg.page_size - 1], uint8_t(block * 16 + p));
  }
}

INSTANTIATE_TEST_SUITE_P(AllBlocks, FlashSweepTest,
                         ::testing::Values(0u, 1u, 7u, 15u));

}  // namespace
}  // namespace xftl::flash
