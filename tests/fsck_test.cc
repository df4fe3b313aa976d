// Tests for the offline invariant checker (xftl_fsck) and the flash image
// save/load round trip. The headline case is the acceptance criterion: a
// deliberately corrupted image — a forged, CRC-valid X-L2P snapshot whose
// COMMITTED entry points at an erased page — must be rejected.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "check/flash_image.h"
#include "check/xftl_fsck.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "flash/flash_device.h"
#include "xftl/xftl.h"

namespace xftl {
namespace {

using ftl::Lpn;
using ftl::TxId;

constexpr uint32_t kXl2pMagic = 0x584c3250;  // "XL2P"

flash::FlashConfig TinyFlash() {
  flash::FlashConfig cfg;
  cfg.page_size = 512;
  cfg.pages_per_block = 8;
  cfg.num_blocks = 64;
  cfg.num_banks = 4;
  return cfg;
}

ftl::FtlConfig TinyFtl() {
  ftl::FtlConfig cfg;
  cfg.meta_blocks = 4;
  cfg.min_free_blocks = 3;
  cfg.num_logical_pages = 256;
  return cfg;
}

check::FsckOptions XftlOptions() {
  check::FsckOptions opt;
  opt.ftl = TinyFtl();
  opt.transactional = true;
  return opt;
}

// Runs small committed transactions with a seeded crash plan armed until the
// plug is pulled mid-program, leaving `dev` in a crashed, unrecovered state.
void RunUntilCrash(ftl::XFtl& ftl, flash::FlashDevice& dev, uint64_t seed) {
  Rng rng(seed);
  flash::CrashPlan plan;
  plan.crash_after_programs = 30 + rng.Uniform(300);
  plan.seed = seed;
  plan.persist_prob = 0.5;
  dev.ArmCrashPlan(plan);

  std::vector<uint8_t> buf(dev.config().page_size, 0);
  bool crashed = false;
  for (TxId t = 1; t <= 2000 && !crashed; ++t) {
    for (uint32_t i = 0; i < 3 && !crashed; ++i) {
      uint64_t tag = t * 10 + i;
      std::memcpy(buf.data(), &tag, sizeof(tag));
      if (!ftl.TxWrite(t, Lpn((t * 3 + i) % 200), buf.data()).ok()) {
        crashed = true;
      }
    }
    if (!crashed && !ftl.TxCommit(t).ok()) crashed = true;
  }
  ASSERT_TRUE(crashed) << "workload finished before the crash point";
}

flash::Ppn FindErasedPage(const flash::FlashDevice& dev, flash::BlockNum lo,
                          flash::BlockNum hi) {
  const flash::FlashConfig& fc = dev.config();
  for (flash::BlockNum b = lo; b < hi; ++b) {
    for (uint32_t p = 0; p < fc.pages_per_block; ++p) {
      flash::Ppn ppn = flash::Ppn(uint64_t(b) * fc.pages_per_block + p);
      if (dev.PageStateOf(ppn) == flash::FlashDevice::PageState::kErased) {
        return ppn;
      }
    }
  }
  return flash::kInvalidPpn;
}

// Forges a CRC-valid, newest-id, single-page X-L2P snapshot whose one
// COMMITTED entry maps an unwritten lpn to an erased data page (the
// "committed transaction vanished" corruption).
void PlantForgedCommittedEntry(flash::FlashDevice& dev, uint32_t meta_blocks,
                               uint64_t num_logical_pages) {
  const flash::FlashConfig& fc = dev.config();
  flash::Ppn slot = FindErasedPage(dev, 0, meta_blocks);
  flash::Ppn victim = FindErasedPage(dev, meta_blocks, fc.num_blocks);
  ASSERT_NE(slot, flash::kInvalidPpn);
  ASSERT_NE(victim, flash::kInvalidPpn);

  std::vector<uint8_t> buf(fc.page_size, 0);
  EncodeFixed32(buf.data(), kXl2pMagic);
  EncodeFixed64(buf.data() + 4, uint64_t(1) << 40);  // newest snapshot id
  EncodeFixed32(buf.data() + 12, 0);                 // page_index
  EncodeFixed32(buf.data() + 16, 1);                 // total_pages
  EncodeFixed32(buf.data() + 20, 1);                 // count
  EncodeFixed32(buf.data() + 32, 999);               // tid
  EncodeFixed32(buf.data() + 36, uint32_t(num_logical_pages - 1));
  EncodeFixed32(buf.data() + 40, victim);
  buf[44] = 2;  // COMMITTED
  EncodeFixed32(buf.data() + fc.page_size - 4,
                Crc32c(buf.data(), fc.page_size - 4));
  flash::PageOob oob;
  oob.lpn = 0;
  oob.seq = uint64_t(1) << 40;
  oob.tag = ftl::kTagXl2p;
  dev.RestorePage(slot, flash::FlashDevice::PageState::kProgrammed, buf.data(),
                  oob);
}

TEST(FsckTest, CrashedImagesPassTheChecker) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SimClock clock;
    flash::FlashDevice dev(TinyFlash(), &clock);
    ftl::XFtl ftl(&dev, TinyFtl(), ftl::XftlConfig{.xl2p_capacity = 24});
    RunUntilCrash(ftl, dev, seed);
    check::FsckReport rep = check::CheckImage(dev, XftlOptions());
    EXPECT_TRUE(rep.ok()) << "seed " << seed << ":\n" << rep.Summary();
  }
}

TEST(FsckTest, DetectsCommittedEntryPointingAtErasedPage) {
  SimClock clock;
  flash::FlashDevice dev(TinyFlash(), &clock);
  ftl::XFtl ftl(&dev, TinyFtl(), ftl::XftlConfig{.xl2p_capacity = 24});
  // A few healthy committed transactions, fully flushed: the image is clean
  // before the corruption is planted.
  std::vector<uint8_t> buf(dev.config().page_size, 0);
  for (TxId t = 1; t <= 5; ++t) {
    uint64_t tag = 100 + t;
    std::memcpy(buf.data(), &tag, sizeof(tag));
    ASSERT_TRUE(ftl.TxWrite(t, Lpn(t), buf.data()).ok());
    ASSERT_TRUE(ftl.TxCommit(t).ok());
  }
  ASSERT_TRUE(ftl.Flush().ok());
  ASSERT_TRUE(check::CheckImage(dev, XftlOptions()).ok());

  PlantForgedCommittedEntry(dev, TinyFtl().meta_blocks,
                            TinyFtl().num_logical_pages);

  check::FsckReport rep = check::CheckImage(dev, XftlOptions());
  EXPECT_FALSE(rep.ok());
  bool found = false;
  for (const std::string& e : rep.errors) {
    if (e.find("unreachable") != std::string::npos ||
        e.find("erased") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << rep.Summary();
}

TEST(FsckTest, CheckRecoveredAgreesAfterRealRecovery) {
  SimClock clock;
  flash::FlashDevice dev(TinyFlash(), &clock);
  ftl::XFtl ftl(&dev, TinyFtl(), ftl::XftlConfig{.xl2p_capacity = 24});
  RunUntilCrash(ftl, dev, 77);
  dev.PowerCut();
  ASSERT_TRUE(ftl.Recover().ok());
  check::FsckReport rep = check::CheckRecovered(dev, XftlOptions(), ftl);
  EXPECT_TRUE(rep.ok()) << rep.Summary();
}

TEST(FsckTest, ImageRoundTripPreservesEveryPage) {
  SimClock clock;
  flash::FlashDevice dev(TinyFlash(), &clock);
  ftl::XFtl ftl(&dev, TinyFtl(), ftl::XftlConfig{.xl2p_capacity = 24});
  RunUntilCrash(ftl, dev, 5);

  check::ImageParams params;
  params.meta_blocks = TinyFtl().meta_blocks;
  params.num_logical_pages = TinyFtl().num_logical_pages;
  params.transactional = true;
  const std::string path = ::testing::TempDir() + "fsck_test_image.bin";
  ASSERT_TRUE(check::SaveImage(dev, params, path).ok());

  SimClock clock2;
  auto img_or = check::LoadImage(path, &clock2);
  ASSERT_TRUE(img_or.ok()) << img_or.status().ToString();
  check::LoadedImage img = std::move(img_or).value();
  EXPECT_EQ(img.params.meta_blocks, params.meta_blocks);
  EXPECT_EQ(img.params.num_logical_pages, params.num_logical_pages);
  EXPECT_EQ(img.params.transactional, params.transactional);

  const flash::FlashConfig& fc = dev.config();
  ASSERT_EQ(img.config.page_size, fc.page_size);
  ASSERT_EQ(img.config.num_blocks, fc.num_blocks);
  ASSERT_EQ(img.config.pages_per_block, fc.pages_per_block);
  for (flash::BlockNum b = 0; b < fc.num_blocks; ++b) {
    EXPECT_EQ(img.dev->EraseCount(b), dev.EraseCount(b));
    EXPECT_EQ(img.dev->IsBadBlock(b), dev.IsBadBlock(b));
  }
  for (flash::Ppn ppn = 0; ppn < fc.TotalPages(); ++ppn) {
    ASSERT_EQ(img.dev->PageStateOf(ppn), dev.PageStateOf(ppn)) << "ppn " << ppn;
    if (dev.PageStateOf(ppn) == flash::FlashDevice::PageState::kErased) {
      continue;
    }
    auto a = dev.PeekOob(ppn);
    auto b = img.dev->PeekOob(ppn);
    ASSERT_TRUE(a.has_value() && b.has_value()) << "ppn " << ppn;
    EXPECT_EQ(a->lpn, b->lpn);
    EXPECT_EQ(a->seq, b->seq);
    EXPECT_EQ(a->tag, b->tag);
    EXPECT_EQ(a->block_seq, b->block_seq);
    const uint8_t* pa = dev.PeekPageData(ppn);
    const uint8_t* pb = img.dev->PeekPageData(ppn);
    ASSERT_TRUE(pa != nullptr && pb != nullptr) << "ppn " << ppn;
    EXPECT_EQ(std::memcmp(pa, pb, fc.page_size), 0) << "ppn " << ppn;
  }

  // And the checker sees the copy exactly as it sees the original.
  check::FsckReport orig = check::CheckImage(dev, XftlOptions());
  check::FsckReport copy = check::CheckImage(*img.dev, XftlOptions());
  EXPECT_EQ(orig.ok(), copy.ok());
  EXPECT_EQ(orig.errors.size(), copy.errors.size());

  // Images older than v3 carry no block stamps (and roots without an
  // active list): the loader refuses them.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const uint8_t v2[4] = {2, 0, 0, 0};
  ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(v2, 1, 4, f), 4u);
  ASSERT_EQ(std::fclose(f), 0);
  SimClock clock3;
  auto old_or = check::LoadImage(path, &clock3);
  ASSERT_FALSE(old_or.ok());
  EXPECT_NE(old_or.status().ToString().find("unsupported image version"),
            std::string::npos)
      << old_or.status().ToString();
}

// Invariant 5: the boot dates a whole block by its page 0, so a page whose
// block stamp differs from its page 0's is an inconsistency. A v3 image
// round-trips the stamps; flipping one is caught.
TEST(FsckTest, FlippedBlockStampBreaksInvariantFive) {
  SimClock clock;
  flash::FlashDevice dev(TinyFlash(), &clock);
  ftl::XFtl ftl(&dev, TinyFtl(), ftl::XftlConfig{.xl2p_capacity = 24});
  RunUntilCrash(ftl, dev, 9);
  check::ImageParams params;
  params.meta_blocks = TinyFtl().meta_blocks;
  params.num_logical_pages = TinyFtl().num_logical_pages;
  params.transactional = true;
  const std::string path = ::testing::TempDir() + "fsck_test_stamps.bin";
  ASSERT_TRUE(check::SaveImage(dev, params, path).ok());
  SimClock clock2;
  auto img_or = check::LoadImage(path, &clock2);
  ASSERT_TRUE(img_or.ok()) << img_or.status().ToString();
  flash::FlashDevice& copy = *img_or.value().dev;
  ASSERT_TRUE(check::CheckImage(copy, XftlOptions()).ok());

  // Page 1 of the first good data block with two readable pages.
  const flash::FlashConfig& fc = copy.config();
  flash::Ppn victim = flash::kInvalidPpn;
  for (flash::BlockNum b = TinyFtl().meta_blocks;
       b < fc.num_blocks && victim == flash::kInvalidPpn; ++b) {
    const flash::Ppn ppn = flash::Ppn(b) * fc.pages_per_block + 1;
    if (!copy.IsBadBlock(b) &&
        copy.PageStateOf(ppn) == flash::FlashDevice::PageState::kProgrammed) {
      victim = ppn;
    }
  }
  ASSERT_NE(victim, flash::kInvalidPpn);
  flash::PageOob oob = *copy.PeekOob(victim);
  ASSERT_NE(oob.block_seq, 0u);
  oob.block_seq++;
  const std::vector<uint8_t> data(copy.PeekPageData(victim),
                                  copy.PeekPageData(victim) + fc.page_size);
  copy.RestorePage(victim, flash::FlashDevice::PageState::kProgrammed,
                   data.data(), oob);

  check::FsckReport rep = check::CheckImage(copy, XftlOptions());
  EXPECT_FALSE(rep.ok());
  bool found = false;
  for (const std::string& e : rep.errors) {
    if (e.find("block stamp") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << rep.Summary();
}

}  // namespace
}  // namespace xftl
