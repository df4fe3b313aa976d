// Tests for the mini-ext4 file system: file operations, the buffer cache
// (including steal), journaling modes, ioctl(abort), and crash recovery per
// mode.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "fs/ext_fs.h"
#include "storage/sim_ssd.h"

namespace xftl::fs {
namespace {

storage::SsdSpec TestSpec(ftl::CommitMode commit = ftl::CommitMode::kDrain) {
  storage::SsdSpec spec = storage::OpenSsdSpec(64, 0.6);
  spec.ftl.commit_mode = commit;
  spec.flash.page_size = 1024;
  spec.flash.pages_per_block = 16;
  spec.flash.num_blocks = 128;
  spec.ftl.meta_blocks = 6;
  spec.ftl.min_free_blocks = 4;
  spec.ftl.num_logical_pages = 1024;
  spec.xftl.xl2p_capacity = 256;
  return spec;
}

FsOptions OptionsFor(JournalMode mode) {
  FsOptions opt;
  opt.journal_mode = mode;
  opt.cache_pages = 64;
  opt.inode_count = 64;
  opt.journal_pages = 128;
  return opt;
}

class FsModeTest : public ::testing::TestWithParam<JournalMode> {
 protected:
  FsModeTest() : ssd_(TestSpec(), &clock_) {
    CHECK(ExtFs::Mkfs(ssd_.device(), OptionsFor(GetParam())).ok());
    auto fs = ExtFs::Mount(ssd_.device(), OptionsFor(GetParam()), &clock_);
    CHECK(fs.ok()) << fs.status().ToString();
    fs_ = std::move(fs).value();
  }

  void Remount() {
    CHECK(fs_->Unmount().ok());
    auto fs = ExtFs::Mount(ssd_.device(), OptionsFor(GetParam()), &clock_);
    CHECK(fs.ok());
    fs_ = std::move(fs).value();
  }

  // Simulated crash + reboot: device recovers, file system remounts with
  // journal replay. All unsynced FS state is lost.
  void CrashAndRemount() {
    CHECK(ssd_.PowerCycle().ok());
    auto fs = ExtFs::Mount(ssd_.device(), OptionsFor(GetParam()), &clock_);
    CHECK(fs.ok());
    fs_ = std::move(fs).value();
  }

  std::string ReadAll(const std::string& name) {
    auto fd = fs_->Open(name);
    CHECK(fd.ok());
    auto size = fs_->FileSize(*fd);
    CHECK(size.ok());
    std::string out(*size, 0);
    auto n = fs_->Read(*fd, 0, out.size(),
                       reinterpret_cast<uint8_t*>(out.data()));
    CHECK(n.ok());
    out.resize(*n);
    CHECK(fs_->Close(*fd).ok());
    return out;
  }

  SimClock clock_;
  storage::SimSsd ssd_;
  std::unique_ptr<ExtFs> fs_;
};

TEST_P(FsModeTest, CreateWriteReadRoundTrip) {
  auto fd = fs_->Create("hello.txt");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  std::string msg = "hello, flash world";
  ASSERT_TRUE(fs_->Write(*fd, 0, reinterpret_cast<const uint8_t*>(msg.data()),
                         msg.size())
                  .ok());
  ASSERT_TRUE(fs_->Fsync(*fd).ok());
  ASSERT_TRUE(fs_->Close(*fd).ok());
  EXPECT_EQ(ReadAll("hello.txt"), msg);
}

TEST_P(FsModeTest, ExistsAndUnlink) {
  auto fd = fs_->Create("a.db");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Close(*fd).ok());
  EXPECT_TRUE(fs_->Exists("a.db").value());
  EXPECT_FALSE(fs_->Exists("b.db").value());
  ASSERT_TRUE(fs_->Unlink("a.db").ok());
  EXPECT_FALSE(fs_->Exists("a.db").value());
  EXPECT_EQ(fs_->stats().file_deletes, 1u);
}

TEST_P(FsModeTest, UnlinkOpenFileRejected) {
  auto fd = fs_->Create("open.db");
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(fs_->Unlink("open.db").IsBusy());
  ASSERT_TRUE(fs_->Close(*fd).ok());
  EXPECT_TRUE(fs_->Unlink("open.db").ok());
}

TEST_P(FsModeTest, CreateDuplicateRejected) {
  auto fd = fs_->Create("dup");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Close(*fd).ok());
  EXPECT_EQ(fs_->Create("dup").status().code(), StatusCode::kAlreadyExists);
}

TEST_P(FsModeTest, LargeFileUsesIndirectPages) {
  auto fd = fs_->Create("big.bin");
  ASSERT_TRUE(fd.ok());
  // Beyond 12 direct pointers (12 KiB at 1 KiB pages) into indirect range.
  const size_t size = 64 * 1024;
  std::vector<uint8_t> data(size);
  Rng rng(1);
  rng.FillBytes(data.data(), size);
  ASSERT_TRUE(fs_->Write(*fd, 0, data.data(), size).ok());
  ASSERT_TRUE(fs_->Fsync(*fd).ok());

  std::vector<uint8_t> out(size);
  auto n = fs_->Read(*fd, 0, size, out.data());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, size);
  EXPECT_EQ(out, data);
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

TEST_P(FsModeTest, SparseFileReadsZeros) {
  auto fd = fs_->Create("sparse");
  ASSERT_TRUE(fd.ok());
  uint8_t b = 0xAA;
  ASSERT_TRUE(fs_->Write(*fd, 10000, &b, 1).ok());
  std::vector<uint8_t> out(16);
  auto n = fs_->Read(*fd, 0, out.size(), out.data());
  ASSERT_TRUE(n.ok());
  for (uint8_t v : out) EXPECT_EQ(v, 0);
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

TEST_P(FsModeTest, TruncateShrinksFile) {
  auto fd = fs_->Create("t");
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> data(8000, 7);
  ASSERT_TRUE(fs_->Write(*fd, 0, data.data(), data.size()).ok());
  ASSERT_TRUE(fs_->Truncate(*fd, 100).ok());
  EXPECT_EQ(fs_->FileSize(*fd).value(), 100u);
  ASSERT_TRUE(fs_->Fsync(*fd).ok());
  ASSERT_TRUE(fs_->Close(*fd).ok());
  EXPECT_EQ(ReadAll("t").size(), 100u);
}

TEST_P(FsModeTest, DataSurvivesRemount) {
  auto fd = fs_->Create("persist.db");
  ASSERT_TRUE(fd.ok());
  std::string msg = "durable bytes";
  ASSERT_TRUE(fs_->Write(*fd, 0, reinterpret_cast<const uint8_t*>(msg.data()),
                         msg.size())
                  .ok());
  ASSERT_TRUE(fs_->Fsync(*fd).ok());
  ASSERT_TRUE(fs_->Close(*fd).ok());
  Remount();
  EXPECT_EQ(ReadAll("persist.db"), msg);
}

TEST_P(FsModeTest, FsyncedDataSurvivesCrash) {
  auto fd = fs_->Create("crash.db");
  ASSERT_TRUE(fd.ok());
  std::string msg = "synced before the lights went out";
  ASSERT_TRUE(fs_->Write(*fd, 0, reinterpret_cast<const uint8_t*>(msg.data()),
                         msg.size())
                  .ok());
  ASSERT_TRUE(fs_->Fsync(*fd).ok());
  CrashAndRemount();
  EXPECT_TRUE(fs_->Exists("crash.db").value());
  EXPECT_EQ(ReadAll("crash.db"), msg);
}

TEST_P(FsModeTest, ManyFiles) {
  for (int i = 0; i < 20; ++i) {
    std::string name = "file" + std::to_string(i);
    auto fd = fs_->Create(name);
    ASSERT_TRUE(fd.ok()) << name;
    std::string content = "content-" + std::to_string(i * 17);
    ASSERT_TRUE(fs_->Write(*fd, 0,
                           reinterpret_cast<const uint8_t*>(content.data()),
                           content.size())
                    .ok());
    ASSERT_TRUE(fs_->Fsync(*fd).ok());
    ASSERT_TRUE(fs_->Close(*fd).ok());
  }
  EXPECT_EQ(fs_->ListDir().size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(ReadAll("file" + std::to_string(i)),
              "content-" + std::to_string(i * 17));
  }
}

TEST_P(FsModeTest, FsckCleanAfterWorkload) {
  Rng rng(11);
  std::vector<uint8_t> page(1024);
  // Create, grow, overwrite, delete a mix of files.
  for (int i = 0; i < 8; ++i) {
    auto fd = fs_->Create("w" + std::to_string(i));
    ASSERT_TRUE(fd.ok());
    for (int p = 0; p < 20; ++p) {
      rng.FillBytes(page.data(), page.size());
      ASSERT_TRUE(fs_->Write(*fd, uint64_t(p) * 1024, page.data(), 1024).ok());
    }
    ASSERT_TRUE(fs_->Fsync(*fd).ok());
    ASSERT_TRUE(fs_->Close(*fd).ok());
  }
  ASSERT_TRUE(fs_->Unlink("w3").ok());
  ASSERT_TRUE(fs_->Unlink("w5").ok());
  {
    auto fd = fs_->Open("w1");
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fs_->Truncate(*fd, 2048).ok());
    ASSERT_TRUE(fs_->Fsync(*fd).ok());
    ASSERT_TRUE(fs_->Close(*fd).ok());
  }
  auto report = fs_->Fsck();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->files, 6u);
  EXPECT_GT(report->pages_in_use, 0u);
  EXPECT_EQ(report->leaked_pages, 0u);
}

TEST_P(FsModeTest, FsckCleanAfterCrashRecovery) {
  auto fd = fs_->Create("crashme");
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> page(1024, 0x42);
  for (int p = 0; p < 30; ++p) {
    ASSERT_TRUE(fs_->Write(*fd, uint64_t(p) * 1024, page.data(), 1024).ok());
  }
  ASSERT_TRUE(fs_->Fsync(*fd).ok());
  // More writes, unsynced, then crash.
  for (int p = 30; p < 60; ++p) {
    ASSERT_TRUE(fs_->Write(*fd, uint64_t(p) * 1024, page.data(), 1024).ok());
  }
  CrashAndRemount();
  auto report = fs_->Fsck();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

TEST_P(FsModeTest, CacheStealWritesUncommittedPages) {
  // Write more pages than the cache holds without fsync: dirty pages must be
  // stolen to the device (except in full-journal mode, which pins dirty data
  // until the journal commits, so the cache grows instead).
  auto fd = fs_->Create("steal.bin");
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> page(1024);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    rng.FillBytes(page.data(), page.size());
    ASSERT_TRUE(fs_->Write(*fd, uint64_t(i) * 1024, page.data(), 1024).ok());
  }
  if (GetParam() == JournalMode::kFull) {
    EXPECT_EQ(fs_->cache_steals(), 0u);
  } else {
    EXPECT_GT(fs_->cache_steals(), 0u);
  }
  // And the file still reads back correctly through the cache+device mix.
  Rng rng2(2);
  std::vector<uint8_t> expect(1024), got(1024);
  for (int i = 0; i < 100; ++i) {
    rng2.FillBytes(expect.data(), expect.size());
    auto n = fs_->Read(*fd, uint64_t(i) * 1024, 1024, got.data());
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(got, expect) << "page " << i;
  }
  ASSERT_TRUE(fs_->Fsync(*fd).ok());
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

INSTANTIATE_TEST_SUITE_P(AllModes, FsModeTest,
                         ::testing::Values(JournalMode::kOrdered,
                                           JournalMode::kFull,
                                           JournalMode::kOff),
                         [](const auto& info) {
                           return std::string(JournalModeName(info.param));
                         });

// --- mode-specific behaviour ------------------------------------------------

class FsFixture {
 public:
  explicit FsFixture(JournalMode mode,
                     ftl::CommitMode commit = ftl::CommitMode::kDrain)
      : ssd_(TestSpec(commit), &clock_) {
    CHECK(ExtFs::Mkfs(ssd_.device(), OptionsFor(mode)).ok());
    auto fs = ExtFs::Mount(ssd_.device(), OptionsFor(mode), &clock_);
    CHECK(fs.ok());
    fs_ = std::move(fs).value();
  }

  SimClock clock_;
  storage::SimSsd ssd_;
  std::unique_ptr<ExtFs> fs_;
};

TEST(FsOffModeTest, RequiresTransactionalDevice) {
  SimClock clock;
  auto spec = TestSpec();
  spec.transactional = false;
  storage::SimSsd ssd(spec, &clock);
  ASSERT_TRUE(ExtFs::Mkfs(ssd.device(), OptionsFor(JournalMode::kOrdered)).ok());
  auto fs = ExtFs::Mount(ssd.device(), OptionsFor(JournalMode::kOff), &clock);
  EXPECT_FALSE(fs.ok());
}

TEST(FsOffModeTest, IoctlAbortRollsBackCachedWrites) {
  FsFixture f(JournalMode::kOff);
  auto fd = f.fs_->Create("tx.db");
  ASSERT_TRUE(fd.ok());
  std::string v1 = "committed-v1";
  ASSERT_TRUE(f.fs_->Write(*fd, 0, reinterpret_cast<const uint8_t*>(v1.data()),
                           v1.size())
                  .ok());
  ASSERT_TRUE(f.fs_->Fsync(*fd).ok());

  std::string v2 = "uncommitted";
  ASSERT_TRUE(f.fs_->Write(*fd, 0, reinterpret_cast<const uint8_t*>(v2.data()),
                           v2.size())
                  .ok());
  ASSERT_TRUE(f.fs_->IoctlAbort(*fd).ok());

  std::string out(v1.size(), 0);
  auto n = f.fs_->Read(*fd, 0, out.size(), reinterpret_cast<uint8_t*>(out.data()));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, v1);
}

TEST(FsOffModeTest, IoctlAbortRollsBackStolenPages) {
  FsFixture f(JournalMode::kOff);
  auto fd = f.fs_->Create("tx.bin");
  ASSERT_TRUE(fd.ok());
  // Committed baseline.
  std::vector<uint8_t> base(1024, 0x11);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(f.fs_->Write(*fd, uint64_t(i) * 1024, base.data(), 1024).ok());
  }
  ASSERT_TRUE(f.fs_->Fsync(*fd).ok());

  // Uncommitted overwrite bigger than the cache: pages get stolen to the
  // device under the open transaction id.
  std::vector<uint8_t> upd(1024, 0x22);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(f.fs_->Write(*fd, uint64_t(i) * 1024, upd.data(), 1024).ok());
  }
  ASSERT_GT(f.fs_->cache_steals(), 0u);
  ASSERT_TRUE(f.fs_->IoctlAbort(*fd).ok());

  std::vector<uint8_t> out(1024);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(f.fs_->Read(*fd, uint64_t(i) * 1024, 1024, out.data()).ok());
    ASSERT_EQ(out, base) << "page " << i;
  }
}

TEST(FsOffModeTest, AbortInJournalingModeNotSupported) {
  FsFixture f(JournalMode::kOrdered);
  auto fd = f.fs_->Create("x");
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(f.fs_->IoctlAbort(*fd).code(), StatusCode::kNotSupported);
}

TEST(FsOffModeTest, UnsyncedTransactionRolledBackByCrash) {
  FsFixture f(JournalMode::kOff);
  auto fd = f.fs_->Create("dur.db");
  ASSERT_TRUE(fd.ok());
  std::string v1 = "v1";
  ASSERT_TRUE(f.fs_->Write(*fd, 0, reinterpret_cast<const uint8_t*>(v1.data()),
                           v1.size())
                  .ok());
  ASSERT_TRUE(f.fs_->Fsync(*fd).ok());

  // Overwrite without fsync, then crash: X-FTL recovery discards the active
  // transaction even though some pages may have been stolen.
  std::vector<uint8_t> big(4096, 0x5A);
  ASSERT_TRUE(f.fs_->Write(*fd, 0, big.data(), big.size()).ok());
  ASSERT_TRUE(f.ssd_.PowerCycle().ok());
  auto fs = ExtFs::Mount(f.ssd_.device(), OptionsFor(JournalMode::kOff),
                         &f.clock_);
  ASSERT_TRUE(fs.ok());
  auto fd2 = fs.value()->Open("dur.db");
  ASSERT_TRUE(fd2.ok());
  std::string out(2, 0);
  auto n = fs.value()->Read(*fd2, 0, 2, reinterpret_cast<uint8_t*>(out.data()));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, "v1");
}

TEST(FsMultiFileTxTest, LinkedFilesCommitAtomically) {
  // The paper's §4.3 scenario: a transaction spanning two database files.
  // Stock SQLite needs a master journal; X-FTL tracks both under one tid.
  FsFixture f(JournalMode::kOff);
  auto a = f.fs_->Create("a.db");
  auto b = f.fs_->Create("b.db");
  ASSERT_TRUE(a.ok() && b.ok());
  // Creation itself opens a per-file transaction; commit it first, as the
  // database files would exist before a cross-file transaction begins.
  ASSERT_TRUE(f.fs_->Fsync(*a).ok());
  ASSERT_TRUE(f.fs_->Fsync(*b).ok());
  ASSERT_TRUE(f.fs_->LinkTransactions({*a, *b}).ok());

  std::string va = "alpha", vb = "beta";
  ASSERT_TRUE(f.fs_->Write(*a, 0, reinterpret_cast<const uint8_t*>(va.data()),
                           va.size())
                  .ok());
  ASSERT_TRUE(f.fs_->Write(*b, 0, reinterpret_cast<const uint8_t*>(vb.data()),
                           vb.size())
                  .ok());
  // One fsync commits both files.
  uint64_t commits = f.ssd_.device()->stats().commit_commands;
  ASSERT_TRUE(f.fs_->Fsync(*a).ok());
  EXPECT_EQ(f.ssd_.device()->stats().commit_commands, commits + 1);

  // Crash: both survive together.
  ASSERT_TRUE(f.ssd_.PowerCycle().ok());
  auto fs = ExtFs::Mount(f.ssd_.device(), OptionsFor(JournalMode::kOff),
                         &f.clock_);
  ASSERT_TRUE(fs.ok());
  for (const auto& [name, want] :
       {std::pair<std::string, std::string>{"a.db", va}, {"b.db", vb}}) {
    auto fd = fs.value()->Open(name);
    ASSERT_TRUE(fd.ok());
    std::string out(want.size(), 0);
    auto n = fs.value()->Read(*fd, 0, out.size(),
                              reinterpret_cast<uint8_t*>(out.data()));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, want) << name;
  }
}

TEST(FsMultiFileTxTest, LinkedFilesAbortTogether) {
  FsFixture f(JournalMode::kOff);
  auto a = f.fs_->Create("a.db");
  auto b = f.fs_->Create("b.db");
  ASSERT_TRUE(a.ok() && b.ok());
  // Committed baselines.
  std::string base = "base";
  for (Fd fd : {*a, *b}) {
    ASSERT_TRUE(f.fs_->Write(fd, 0, reinterpret_cast<const uint8_t*>(
                                        base.data()),
                             base.size())
                    .ok());
    ASSERT_TRUE(f.fs_->Fsync(fd).ok());
  }
  ASSERT_TRUE(f.fs_->LinkTransactions({*a, *b}).ok());
  std::string upd = "updt";
  for (Fd fd : {*a, *b}) {
    ASSERT_TRUE(f.fs_->Write(fd, 0, reinterpret_cast<const uint8_t*>(
                                        upd.data()),
                             upd.size())
                    .ok());
  }
  // Aborting through either file rolls back both.
  ASSERT_TRUE(f.fs_->IoctlAbort(*b).ok());
  for (Fd fd : {*a, *b}) {
    std::string out(base.size(), 0);
    auto n = f.fs_->Read(fd, 0, out.size(),
                         reinterpret_cast<uint8_t*>(out.data()));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, base);
  }
}

TEST(FsMultiFileTxTest, UncommittedLinkedGroupRollsBackOnCrash) {
  FsFixture f(JournalMode::kOff);
  auto a = f.fs_->Create("a.db");
  auto b = f.fs_->Create("b.db");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(f.fs_->Fsync(*a).ok());
  ASSERT_TRUE(f.fs_->Fsync(*b).ok());
  ASSERT_TRUE(f.fs_->LinkTransactions({*a, *b}).ok());
  std::vector<uint8_t> big(4096, 0x77);  // large enough to steal
  ASSERT_TRUE(f.fs_->Write(*a, 0, big.data(), big.size()).ok());
  ASSERT_TRUE(f.fs_->Write(*b, 0, big.data(), big.size()).ok());
  // No fsync; crash.
  ASSERT_TRUE(f.ssd_.PowerCycle().ok());
  auto fs = ExtFs::Mount(f.ssd_.device(), OptionsFor(JournalMode::kOff),
                         &f.clock_);
  ASSERT_TRUE(fs.ok());
  for (const char* name : {"a.db", "b.db"}) {
    auto fd = fs.value()->Open(name);
    ASSERT_TRUE(fd.ok());
    EXPECT_EQ(fs.value()->FileSize(*fd).value(), 0u) << name;
  }
}

TEST(FsMultiFileTxTest, LinkRequiresOffModeAndIdleFiles) {
  FsFixture ordered(JournalMode::kOrdered);
  auto fd = ordered.fs_->Create("x");
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(ordered.fs_->LinkTransactions({*fd}).code(),
            StatusCode::kNotSupported);

  FsFixture off(JournalMode::kOff);
  auto a = off.fs_->Create("a");
  ASSERT_TRUE(a.ok());
  uint8_t byte = 1;
  ASSERT_TRUE(off.fs_->Write(*a, 0, &byte, 1).ok());  // open transaction
  EXPECT_TRUE(off.fs_->LinkTransactions({*a}).IsBusy());
}

// The host issues the same fsync on every firmware: two barrier commands.
// Barrier firmware alone makes them order-only, each opening a flash epoch.
TEST(FsJournalTest, OrderedFsyncUsesTwoBarriers) {
  for (ftl::CommitMode commit :
       {ftl::CommitMode::kDrain, ftl::CommitMode::kBarrier}) {
    SCOPED_TRACE(ftl::CommitModeName(commit));
    FsFixture f(JournalMode::kOrdered, commit);
    auto fd = f.fs_->Create("b.db");
    ASSERT_TRUE(fd.ok());
    std::vector<uint8_t> page(1024, 1);
    ASSERT_TRUE(f.fs_->Write(*fd, 0, page.data(), page.size()).ok());
    const uint64_t barriers_before = f.ssd_.device()->stats().barrier_commands;
    const uint64_t epoch_before = f.ssd_.flash()->current_epoch();
    ASSERT_TRUE(f.fs_->Fsync(*fd).ok());
    EXPECT_EQ(f.ssd_.device()->stats().barrier_commands, barriers_before + 2);
    EXPECT_EQ(f.ssd_.flash()->current_epoch() - epoch_before,
              commit == ftl::CommitMode::kBarrier ? 2u : 0u);
  }
}

TEST(FsJournalTest, OffModeFsyncUsesSingleCommit) {
  FsFixture f(JournalMode::kOff);
  auto fd = f.fs_->Create("c.db");
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> page(1024, 1);
  ASSERT_TRUE(f.fs_->Write(*fd, 0, page.data(), page.size()).ok());
  uint64_t commits_before = f.ssd_.device()->stats().commit_commands;
  uint64_t barriers_before = f.ssd_.device()->stats().barrier_commands;
  ASSERT_TRUE(f.fs_->Fsync(*fd).ok());
  EXPECT_EQ(f.ssd_.device()->stats().commit_commands, commits_before + 1);
  EXPECT_EQ(f.ssd_.device()->stats().barrier_commands, barriers_before);
}

TEST(FsJournalTest, FullJournalWritesDataTwice) {
  FsFixture ordered(JournalMode::kOrdered);
  FsFixture full(JournalMode::kFull);
  for (auto* f : {&ordered, &full}) {
    auto fd = f->fs_->Create("w.db");
    ASSERT_TRUE(fd.ok());
    std::vector<uint8_t> page(1024, 3);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(f->fs_->Write(*fd, uint64_t(i) * 1024, page.data(), 1024).ok());
    }
    ASSERT_TRUE(f->fs_->Fsync(*fd).ok());
  }
  uint64_t ordered_writes = ordered.ssd_.device()->stats().write_commands;
  uint64_t full_writes = full.ssd_.device()->stats().write_commands;
  // Full journaling writes the 10 data pages an extra time.
  EXPECT_GE(full_writes, ordered_writes + 10);
}

TEST(FsJournalTest, JournalReplayAfterCrashDuringCheckpoint) {
  // Commit a transaction, then crash before the checkpoint writes become
  // durable; replay must reconstruct the metadata.
  FsFixture f(JournalMode::kOrdered);
  auto fd = f.fs_->Create("j.db");
  ASSERT_TRUE(fd.ok());
  std::string msg = "journaled";
  ASSERT_TRUE(f.fs_->Write(*fd, 0, reinterpret_cast<const uint8_t*>(msg.data()),
                           msg.size())
                  .ok());
  ASSERT_TRUE(f.fs_->Fsync(*fd).ok());

  ASSERT_TRUE(f.ssd_.PowerCycle().ok());
  auto fs = ExtFs::Mount(f.ssd_.device(), OptionsFor(JournalMode::kOrdered),
                         &f.clock_);
  ASSERT_TRUE(fs.ok());
  EXPECT_GE(fs.value()->journal_stats().replayed_transactions, 0u);
  auto fd2 = fs.value()->Open("j.db");
  ASSERT_TRUE(fd2.ok()) << fd2.status().ToString();
  std::string out(msg.size(), 0);
  auto n = fs.value()->Read(*fd2, 0, out.size(),
                            reinterpret_cast<uint8_t*>(out.data()));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, msg);
}

TEST(FsJournalUnitTest, ReplayOnlyCompleteTransactions) {
  // Drive the Journal class directly: a committed transaction replays; one
  // whose commit record is torn does not.
  SimClock clock;
  storage::SimSsd ssd(TestSpec(), &clock);
  Journal journal(ssd.device(), /*start=*/100, /*pages=*/16);

  std::vector<uint8_t> a(1024, 0xAA), b(1024, 0xBB);
  const uint64_t homes[] = {200, 201};
  const uint8_t* datas[] = {a.data(), b.data()};
  ASSERT_TRUE(journal.CommitTransaction(homes, datas, 2).ok());
  // Clobber the home locations, then replay.
  std::vector<uint8_t> junk(1024, 0x00);
  ASSERT_TRUE(ssd.device()->Write(200, junk.data()).ok());
  ASSERT_TRUE(ssd.device()->Write(201, junk.data()).ok());
  ASSERT_TRUE(journal.Recover().ok());
  std::vector<uint8_t> out(1024);
  ASSERT_TRUE(ssd.device()->Read(200, out.data()).ok());
  EXPECT_EQ(out, a);
  ASSERT_TRUE(ssd.device()->Read(201, out.data()).ok());
  EXPECT_EQ(out, b);
  EXPECT_EQ(journal.stats().replayed_transactions, 1u);

  // Second transaction: tear the commit page (last journal program of the
  // commit sequence). Journal writes: desc + 2 copies + commit; barriers
  // persist mapping pages too, so arm based on observed programs.
  Journal journal2(ssd.device(), /*start=*/100, /*pages=*/16);
  std::vector<uint8_t> c(1024, 0xCC);
  ASSERT_TRUE(ssd.device()->Write(200, junk.data()).ok());
  ASSERT_TRUE(ssd.device()->FlushBarrier().ok());
  uint64_t before = ssd.flash()->stats().page_programs;
  (void)before;
  // Write a transaction but corrupt its commit by tearing a program inside
  // the journal write sequence (the 4th data program: desc, copy, commit).
  ssd.flash()->ArmCrashPlan(
      {.crash_after_programs = 3, .persist_prob = 1.0});
  const uint8_t* cdata = c.data();
  Status s = journal2.CommitTransaction(homes, &cdata, 1);
  EXPECT_FALSE(s.ok());
  ASSERT_TRUE(ssd.PowerCycle().ok());
  Journal journal3(ssd.device(), /*start=*/100, /*pages=*/16);
  ASSERT_TRUE(journal3.Recover().ok());
  EXPECT_EQ(journal3.stats().replayed_transactions, 0u);
  // Home location untouched by the torn transaction.
  ASSERT_TRUE(ssd.device()->Read(200, out.data()).ok());
  EXPECT_EQ(out, junk);
}

TEST(FsJournalUnitTest, FullDescriptorReplaysEveryHome) {
  // On 1 KiB pages a descriptor lists fewer homes than 128 journal pages
  // could hold copies. A transaction of capacity() pages must still replay
  // every home: the descriptor's CRC may not overwrite the last one.
  SimClock clock;
  storage::SimSsd ssd(TestSpec(), &clock);
  const uint32_t page_size = ssd.device()->page_size();
  ASSERT_EQ(page_size, 1024u);
  Journal journal(ssd.device(), /*start=*/100,
                  OptionsFor(JournalMode::kOrdered).journal_pages);
  const uint32_t n = journal.capacity();
  std::vector<uint64_t> homes(n + 1);
  std::vector<std::vector<uint8_t>> pages(n + 1);
  std::vector<const uint8_t*> datas(n + 1);
  for (uint32_t i = 0; i <= n; ++i) {
    homes[i] = 300 + i;
    pages[i].assign(page_size, uint8_t(i * 7 + 1));
    datas[i] = pages[i].data();
  }
  EXPECT_EQ(journal.CommitTransaction(homes.data(), datas.data(), n + 1).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(journal.CommitTransaction(homes.data(), datas.data(), n).ok());

  // Clobber every home, then replay.
  std::vector<uint8_t> junk(page_size, 0x00);
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(ssd.device()->Write(homes[i], junk.data()).ok());
  }
  Status s = journal.Recover();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(journal.stats().replayed_pages, n);
  std::vector<uint8_t> out(page_size);
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(ssd.device()->Read(homes[i], out.data()).ok());
    EXPECT_EQ(out, pages[i]) << "home " << homes[i];
  }
}

TEST(FsStatsTest, FsyncCountsTracked) {
  FsFixture f(JournalMode::kOrdered);
  auto fd = f.fs_->Create("s.db");
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> page(512, 1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(f.fs_->Write(*fd, 0, page.data(), page.size()).ok());
    ASSERT_TRUE(f.fs_->Fsync(*fd).ok());
  }
  EXPECT_EQ(f.fs_->stats().fsync_calls, 3u);
  EXPECT_GT(f.fs_->journal_stats().journal_page_writes, 0u);
}

}  // namespace
}  // namespace xftl::fs
