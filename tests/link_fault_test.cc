// Link-fault injection and NCQ error recovery: scripted CRC / timeout /
// abort faults, the queue-abort + error-log + REDO-reissue protocol, the
// host degradation ladder, errseq-style deferred errors, power-cut drop
// accounting, torn-batch acceptance reporting, and a randomized
// fault-injection sweep asserting zero silent data loss.
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "ftl/page_ftl.h"
#include "storage/sim_ssd.h"
#include "trace/replay.h"
#include "trace/trace_file.h"
#include "trace/tracer.h"

namespace xftl::storage {
namespace {

SsdSpec TinySpec(bool transactional) {
  SsdSpec spec = OpenSsdSpec(/*num_blocks=*/32, /*utilization=*/0.5);
  spec.flash.page_size = 512;
  spec.flash.pages_per_block = 8;
  spec.flash.num_blocks = 32;
  spec.ftl.meta_blocks = 4;
  spec.ftl.min_free_blocks = 3;
  spec.ftl.num_logical_pages = 64;
  spec.xftl.xl2p_capacity = 16;
  spec.transactional = transactional;
  return spec;
}

class LinkFaultTest : public ::testing::Test {
 protected:
  void Build(const SsdSpec& spec) {
    ssd_ = std::make_unique<SimSsd>(spec, &clock_);
  }

  SataDevice* dev() { return ssd_->device(); }

  std::vector<uint8_t> Page(uint64_t tag) {
    std::vector<uint8_t> p(dev()->page_size(), 0);
    std::memcpy(p.data(), &tag, sizeof(tag));
    return p;
  }

  uint64_t ReadTag(uint64_t page) {
    std::vector<uint8_t> out(dev()->page_size());
    Status s = dev()->Read(page, out.data());
    CHECK(s.ok()) << s.ToString();
    uint64_t got;
    std::memcpy(&got, out.data(), sizeof(got));
    return got;
  }

  // Writes pages [0, n) with tag = lpn + salt as one batch.
  Status WriteTagged(uint64_t n, uint64_t salt, size_t* accepted = nullptr) {
    std::vector<std::vector<uint8_t>> bufs;
    std::vector<uint64_t> pages;
    std::vector<const uint8_t*> datas;
    for (uint64_t i = 0; i < n; ++i) {
      bufs.push_back(Page(i + salt));
      pages.push_back(i);
    }
    for (auto& b : bufs) datas.push_back(b.data());
    return dev()->WriteBatch(pages.data(), datas.data(), n, accepted);
  }

  SimClock clock_;
  std::unique_ptr<SimSsd> ssd_;
};

// --- CRC transfer errors ---------------------------------------------------

TEST_F(LinkFaultTest, ScriptedCrcErrorRetriesAndSucceeds) {
  Build(TinySpec(true));
  dev()->ScriptCrcError(1);
  auto p = Page(7);
  ASSERT_TRUE(dev()->Write(3, p.data()).ok());
  ASSERT_TRUE(dev()->FlushBarrier().ok());
  EXPECT_EQ(ReadTag(3), 7u);
  const SataStats& st = dev()->stats();
  EXPECT_EQ(st.crc_errors, 1u);
  EXPECT_EQ(st.link_retries, 1u);
  EXPECT_GT(st.backoff_nanos, 0u);
  EXPECT_FALSE(dev()->degraded());
}

TEST_F(LinkFaultTest, CrcRetriesExhaustedFailsAndDegrades) {
  SsdSpec spec = TinySpec(true);
  spec.link_policy.max_retries = 2;
  Build(spec);
  for (int i = 1; i <= 3; ++i) dev()->ScriptCrcError(i);
  auto p = Page(1);
  Status s = dev()->Write(0, p.data());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(dev()->stats().crc_errors, 3u);
  EXPECT_EQ(dev()->stats().link_retries, 2u);
  // The failed submit climbed the ladder into qd=1 synchronous mode.
  EXPECT_TRUE(dev()->degraded());
  EXPECT_EQ(dev()->stats().degraded_entries, 1u);
  // The write never happened; it failed SYNCHRONOUSLY, so no deferred error.
  EXPECT_FALSE(dev()->has_deferred_error());
  ASSERT_TRUE(dev()->FlushBarrier().ok());
}

TEST_F(LinkFaultTest, BatchCrcFaultRetransfersOnlyTheSuffix) {
  Build(TinySpec(true));
  // Corrupt the 3rd page transfer of a 4-page batch: pages 0-1 cross and
  // are accepted, pages 2-3 retransfer after backoff.
  dev()->ScriptCrcError(3);
  ASSERT_TRUE(WriteTagged(4, 100).ok());
  ASSERT_TRUE(dev()->FlushBarrier().ok());
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(ReadTag(i), i + 100);
  EXPECT_EQ(dev()->stats().crc_errors, 1u);
  // 4 host pages exactly once at the FTL: the accepted prefix did not
  // retransfer, the suffix was not written twice.
  EXPECT_EQ(ssd_->ftl()->stats().host_page_writes, 4u);
}

TEST_F(LinkFaultTest, ReadCrcFaultRetriesWithoutLadder) {
  Build(TinySpec(true));
  auto p = Page(9);
  ASSERT_TRUE(dev()->Write(5, p.data()).ok());
  ASSERT_TRUE(dev()->FlushBarrier().ok());
  dev()->ScriptCrcError(1);
  EXPECT_EQ(ReadTag(5), 9u);
  EXPECT_EQ(dev()->stats().crc_errors, 1u);
  EXPECT_EQ(dev()->stats().link_retries, 1u);
  EXPECT_FALSE(dev()->degraded());
}

// --- NCQ error protocol: timeouts and aborts -------------------------------

TEST_F(LinkFaultTest, TimeoutWhoseProgramFinishedIsNotReissued) {
  Build(TinySpec(true));
  // The queued command completes device-side; only its completion FIS is
  // lost. The error log reports it done, so recovery must NOT write it
  // again (exactly-once).
  dev()->ScriptTimeout(1);
  auto p = Page(11);
  ASSERT_TRUE(dev()->Write(2, p.data()).ok());
  EXPECT_EQ(dev()->InflightCommands(), 1u);
  dev()->DrainQueue();
  EXPECT_EQ(dev()->InflightCommands(), 0u);
  const SataStats& st = dev()->stats();
  EXPECT_EQ(st.command_timeouts, 1u);
  EXPECT_EQ(st.link_resets, 1u);
  EXPECT_EQ(st.reissued_commands, 0u);
  ASSERT_TRUE(dev()->FlushBarrier().ok());
  EXPECT_EQ(ReadTag(2), 11u);
  EXPECT_EQ(ssd_->ftl()->stats().host_page_writes, 1u);
}

TEST_F(LinkFaultTest, SpuriousAbortReissuesFromHostHeldData) {
  Build(TinySpec(true));
  dev()->ScriptDeviceAbort(1);
  auto p = Page(21);
  ASSERT_TRUE(dev()->Write(4, p.data()).ok());
  dev()->DrainQueue();
  const SataStats& st = dev()->stats();
  EXPECT_EQ(st.device_aborts, 1u);
  EXPECT_EQ(st.link_resets, 1u);
  EXPECT_EQ(st.aborted_tags, 1u);
  EXPECT_EQ(st.reissued_commands, 1u);
  EXPECT_EQ(st.reissued_pages, 1u);
  // The REDO reissue restored the page from the host-held copy.
  ASSERT_TRUE(dev()->FlushBarrier().ok());
  EXPECT_EQ(ReadTag(4), 21u);
}

TEST_F(LinkFaultTest, QueueAbortKillsAndReissuesPendingTags) {
  Build(TinySpec(true));
  // Three queued writes; the second one aborts. Every acknowledged write
  // must survive recovery regardless of where it sat in the queue.
  dev()->ScriptDeviceAbort(2);
  for (uint64_t i = 0; i < 3; ++i) {
    auto p = Page(30 + i);
    ASSERT_TRUE(dev()->Write(i, p.data()).ok());
  }
  dev()->DrainQueue();
  EXPECT_EQ(dev()->InflightCommands(), 0u);
  EXPECT_EQ(dev()->stats().device_aborts, 1u);
  EXPECT_GE(dev()->stats().aborted_tags, 1u);
  ASSERT_TRUE(dev()->FlushBarrier().ok());
  for (uint64_t i = 0; i < 3; ++i) EXPECT_EQ(ReadTag(i), 30 + i);
}

TEST_F(LinkFaultTest, WaitForSlotRetiresOutOfOrderUnderTimeout) {
  SsdSpec spec = TinySpec(true);
  spec.sata.ncq_depth = 2;
  Build(spec);
  // Tag 1 times out (its deadline is ~5 ms away); tag 2 completes normally
  // much sooner. The third write must enter on tag 2's completion - i.e.
  // retire out of submission order - without waiting for tag 1's deadline.
  dev()->ScriptTimeout(1);
  auto a = Page(1), b = Page(2), c = Page(3);
  ASSERT_TRUE(dev()->Write(0, a.data()).ok());
  ASSERT_TRUE(dev()->Write(1, b.data()).ok());
  SimNanos before = clock_.Now();
  ASSERT_TRUE(dev()->Write(2, c.data()).ok());
  EXPECT_EQ(dev()->stats().queue_full_stalls, 1u);
  // Entered well before the 5 ms timeout deadline...
  EXPECT_LT(clock_.Now() - before, Millis(5));
  // ...with the timed-out tag still in flight.
  EXPECT_EQ(dev()->InflightCommands(), 2u);
  dev()->DrainQueue();
  EXPECT_EQ(dev()->InflightCommands(), 0u);
  EXPECT_EQ(dev()->stats().command_timeouts, 1u);
  ASSERT_TRUE(dev()->FlushBarrier().ok());
  for (uint64_t i = 0; i < 3; ++i) EXPECT_EQ(ReadTag(i), i + 1);
}

// --- degradation ladder ----------------------------------------------------

TEST_F(LinkFaultTest, RepeatedResetsEnterDegradedModeAndProbationExits) {
  SsdSpec spec = TinySpec(true);
  spec.link_policy.degrade_after_resets = 1;
  spec.link_policy.reprobe_after = 4;
  Build(spec);
  dev()->ScriptDeviceAbort(1);
  auto p = Page(1);
  ASSERT_TRUE(dev()->Write(0, p.data()).ok());
  dev()->DrainQueue();
  EXPECT_TRUE(dev()->degraded());
  EXPECT_EQ(dev()->stats().degraded_entries, 1u);
  // Degraded mode is synchronous: every write drains before returning.
  for (uint64_t i = 0; i < 3; ++i) {
    auto q = Page(50 + i);
    ASSERT_TRUE(dev()->Write(i + 1, q.data()).ok());
    EXPECT_EQ(dev()->InflightCommands(), 0u);
  }
  EXPECT_TRUE(dev()->degraded());
  auto q = Page(99);
  ASSERT_TRUE(dev()->Write(9, q.data()).ok());
  // 4 clean commands passed probation: full queue depth restored.
  EXPECT_FALSE(dev()->degraded());
  EXPECT_EQ(dev()->stats().degraded_exits, 1u);
  ASSERT_TRUE(dev()->FlushBarrier().ok());
  EXPECT_EQ(ReadTag(9), 99u);
}

TEST_F(LinkFaultTest, LinkFailureRejectsWritesButServesReads) {
  SsdSpec spec = TinySpec(true);
  spec.link_policy.degrade_after_resets = 1;
  spec.link_policy.fail_after_resets = 2;
  Build(spec);
  auto keep = Page(77);
  ASSERT_TRUE(dev()->Write(0, keep.data()).ok());
  ASSERT_TRUE(dev()->FlushBarrier().ok());
  // The write's tag aborts, and so does its reissue: two consecutive
  // resets reach the final rung and the link is declared dead.
  dev()->ScriptDeviceAbort(1);
  dev()->ScriptDeviceAbort(2);
  auto p = Page(5);
  ASSERT_TRUE(dev()->Write(1, p.data()).ok());
  dev()->DrainQueue();
  EXPECT_TRUE(dev()->link_failed());
  EXPECT_EQ(dev()->stats().link_failures, 1u);
  // Writes are rejected up front; reads still work (composing with the
  // FTL's read-only degradation).
  auto q = Page(6);
  EXPECT_EQ(dev()->Write(2, q.data()).code(), StatusCode::kIoError);
  EXPECT_EQ(ReadTag(0), 77u);
  // The dropped acknowledged write surfaces at the next barrier.
  EXPECT_TRUE(dev()->has_deferred_error());
  EXPECT_FALSE(dev()->FlushBarrier().ok());
}

// --- deferred (errseq-style) errors ----------------------------------------

TEST_F(LinkFaultTest, BackgroundReissueFailureSurfacesAtNextBarrier) {
  SsdSpec spec = TinySpec(true);
  spec.link_policy.max_retries = 1;
  Build(spec);
  // The queued write aborts; its REDO reissue then dies on CRC errors on
  // every retransfer attempt. The host acknowledged the write long ago, so
  // the loss must fail the NEXT barrier - never be silently dropped.
  dev()->ScriptDeviceAbort(1);
  auto p = Page(13);
  ASSERT_TRUE(dev()->Write(7, p.data()).ok());  // acknowledged
  dev()->ScriptCrcError(1);
  dev()->ScriptCrcError(2);
  dev()->DrainQueue();
  EXPECT_TRUE(dev()->has_deferred_error());
  EXPECT_EQ(dev()->stats().deferred_errors, 1u);
  Status s = dev()->FlushBarrier();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(dev()->stats().deferred_errors_reported, 1u);
  // errseq semantics: reported once, then the latch clears.
  EXPECT_FALSE(dev()->has_deferred_error());
  EXPECT_TRUE(dev()->FlushBarrier().ok());
}

TEST_F(LinkFaultTest, DeferredErrorFailsTxCommitWithoutCommitting) {
  SsdSpec spec = TinySpec(true);
  spec.link_policy.max_retries = 1;
  Build(spec);
  auto base = Page(1);
  ASSERT_TRUE(dev()->Write(0, base.data()).ok());
  ASSERT_TRUE(dev()->FlushBarrier().ok());
  auto mine = Page(2);
  ASSERT_TRUE(dev()->TxWrite(5, 0, mine.data()).ok());
  // Lose the queued transactional write in the background.
  dev()->ScriptDeviceAbort(1);
  auto other = Page(3);
  ASSERT_TRUE(dev()->TxWrite(5, 1, other.data()).ok());
  dev()->ScriptCrcError(1);
  dev()->ScriptCrcError(2);
  dev()->DrainQueue();
  ASSERT_TRUE(dev()->has_deferred_error());
  // Commit reports the loss and does NOT commit: the old value stays
  // visible and the transaction stays open for the host to abort.
  EXPECT_FALSE(dev()->TxCommit(5).ok());
  EXPECT_EQ(ReadTag(0), 1u);
  EXPECT_EQ(dev()->open_transactions().count(5), 1u);
  EXPECT_TRUE(dev()->TxAbort(5).ok());
}

// --- killed tags of finished transactions ----------------------------------

// A transaction can finish while one of its tags is still queued: TxAbort
// never waits for the queue, and kBarrier/kPlp commits only poll it. When
// that tag is killed afterwards, queue recovery must not reissue it: the
// reissued TxWrite would reopen the finished transaction and hold its pages
// against every later writer.
struct FinishedTxnCase {
  ftl::CommitMode mode;
  bool abort;  // finish with TxAbort instead of TxCommit
};

class FinishedTxnReissueTest
    : public LinkFaultTest,
      public ::testing::WithParamInterface<FinishedTxnCase> {};

TEST_P(FinishedTxnReissueTest, KilledTagIsNotReissued) {
  SsdSpec spec = TinySpec(true);
  spec.ftl.commit_mode = GetParam().mode;
  Build(spec);
  dev()->ScriptDeviceAbort(1);
  auto first = Page(1);
  ASSERT_TRUE(dev()->TxWrite(1, 5, first.data()).ok());
  Status finished = GetParam().abort ? dev()->TxAbort(1) : dev()->TxCommit(1);
  ASSERT_TRUE(finished.ok()) << finished.ToString();
  ASSERT_TRUE(dev()->AwaitDurable().ok());
  EXPECT_EQ(dev()->stats().device_aborts, 1u);
  auto second = Page(2);
  Status s = dev()->TxWrite(2, 5, second.data());
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(dev()->TxCommit(2).ok());
  EXPECT_EQ(ReadTag(5), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FinishedTxnReissueTest,
    ::testing::Values(FinishedTxnCase{ftl::CommitMode::kBarrier, false},
                      FinishedTxnCase{ftl::CommitMode::kPlp, false},
                      FinishedTxnCase{ftl::CommitMode::kDrain, true}),
    [](const auto& info) {
      return std::string(ftl::CommitModeName(info.param.mode)) +
             (info.param.abort ? "_abort" : "_commit");
    });

// --- power-cut drop accounting (satellite 1) -------------------------------

TEST_F(LinkFaultTest, PowerCutCountsDroppedInflightTags) {
  Build(TinySpec(true));
  for (uint64_t i = 0; i < 5; ++i) {
    auto p = Page(60 + i);
    ASSERT_TRUE(dev()->Write(i, p.data()).ok());
  }
  size_t inflight = dev()->InflightCommands();
  ASSERT_GT(inflight, 0u);
  size_t buffered = ssd_->flash()->BufferedPrograms();
  uint64_t dropped_before = ssd_->flash()->stats().programs_dropped;
  ASSERT_TRUE(ssd_->PowerCycle().ok());
  const SataStats& st = dev()->stats();
  EXPECT_EQ(st.dropped_on_power_cut, inflight);
  EXPECT_EQ(st.dropped_pages_on_power_cut, inflight);  // single-page tags
  // The flash layer dropped exactly its buffered programs; the NCQ tag
  // count is the host-side view of the same un-acknowledged suffix.
  EXPECT_EQ(ssd_->flash()->stats().programs_dropped - dropped_before,
            buffered);
  EXPECT_EQ(dev()->InflightCommands(), 0u);
}

// --- torn-batch acceptance reporting (satellite 2) -------------------------

TEST_F(LinkFaultTest, BatchSurvivesProgramFailAtEveryIndex) {
  // A NAND program status failure at any batch position is absorbed by the
  // FTL's program-fail reissue; the batch must still be accepted in full.
  for (uint64_t idx = 0; idx < 4; ++idx) {
    Build(TinySpec(true));
    ssd_->flash()->ScriptProgramFail(idx + 1);
    size_t accepted = 0;
    ASSERT_TRUE(WriteTagged(4, 200, &accepted).ok()) << "fail idx " << idx;
    EXPECT_EQ(accepted, 4u) << "fail idx " << idx;
    ASSERT_TRUE(dev()->FlushBarrier().ok());
    for (uint64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(ReadTag(i), i + 200) << "fail idx " << idx;
    }
    EXPECT_GE(ssd_->ftl()->stats().program_fail_reissues, 1u);
  }
}

TEST_F(LinkFaultTest, TornBatchReportsAcceptedPrefix) {
  // A mid-batch failure the FTL cannot absorb (out-of-range lpn here) must
  // report exactly how many leading pages were durably accepted.
  for (size_t bad = 0; bad < 4; ++bad) {
    Build(TinySpec(true));
    std::vector<std::vector<uint8_t>> bufs;
    std::vector<uint64_t> pages;
    std::vector<const uint8_t*> datas;
    for (uint64_t i = 0; i < 4; ++i) {
      bufs.push_back(Page(300 + i));
      pages.push_back(i == bad ? 1u << 20 : i);  // out of range at `bad`
    }
    for (auto& b : bufs) datas.push_back(b.data());
    size_t accepted = 99;
    Status s = dev()->WriteBatch(pages.data(), datas.data(), 4, &accepted);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(accepted, bad);
    ASSERT_TRUE(dev()->FlushBarrier().ok());
    for (size_t i = 0; i < bad; ++i) EXPECT_EQ(ReadTag(i), 300 + i);
  }
}

TEST_F(LinkFaultTest, TxBatchReportsAcceptedPrefix) {
  Build(TinySpec(true));
  std::vector<std::vector<uint8_t>> bufs;
  std::vector<uint64_t> pages;
  std::vector<const uint8_t*> datas;
  for (uint64_t i = 0; i < 3; ++i) {
    bufs.push_back(Page(400 + i));
    pages.push_back(i == 2 ? 1u << 20 : i);
  }
  for (auto& b : bufs) datas.push_back(b.data());
  size_t accepted = 99;
  Status s = dev()->TxWriteBatch(9, pages.data(), datas.data(), 3, &accepted);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(accepted, 2u);
  // The accepted prefix is really in the transaction: commit publishes it.
  ASSERT_TRUE(dev()->TxCommit(9).ok());
  EXPECT_EQ(ReadTag(0), 400u);
  EXPECT_EQ(ReadTag(1), 401u);
}

// --- replay determinism under link faults (satellite 3) --------------------

TEST_F(LinkFaultTest, TraceCapturedUnderFaultsReplaysDeterministically) {
  std::string path = ::testing::TempDir() + "/link_fault.trace";
  SsdSpec spec = TinySpec(true);
  spec.link_fault.crc_error_prob = 0.02;
  spec.link_fault.timeout_prob = 0.01;
  spec.link_fault.abort_prob = 0.005;
  spec.link_fault.seed = 0xfeedface;
  Build(spec);
  auto writer = trace::TraceWriter::Open(path).value();
  trace::Tracer tracer(writer.get());
  ssd_->SetTracer(&tracer);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    uint64_t lpn = rng.Uniform(64);
    auto p = Page(lpn * 1000 + uint64_t(i));
    if (i % 3 == 0) {
      (void)dev()->TxWrite(1 + (i % 4), lpn, p.data());
    } else {
      (void)dev()->Write(lpn, p.data());
    }
    if (i % 16 == 15) (void)dev()->TxCommit(1 + (i % 4));
    if (i % 31 == 30) (void)dev()->FlushBarrier();
  }
  (void)dev()->FlushBarrier();
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_GT(dev()->stats().crc_errors + dev()->stats().command_timeouts +
                dev()->stats().device_aborts,
            0u)
      << "fault rates too low to exercise recovery";

  // The capture (REDO reissues included, as plain writes) must re-drive
  // identically on a clean device: two replays, bit-identical FtlStats.
  SsdSpec clean = TinySpec(true);
  auto first = trace::ReplayTrace(path, clean);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = trace::ReplayTrace(path, clean);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(first.value().ftl == second.value().ftl);
  EXPECT_GT(first.value().writes, 0u);
}

// --- randomized sweep: zero silent loss ------------------------------------

int LinkFaultSeeds() {
  if (const char* env = std::getenv("XFTL_LINK_FAULT_SEEDS")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 40;
}

// Under probabilistic CRC/timeout/abort injection, every write the device
// acknowledged (and every accepted batch prefix) must read back intact
// after a successful barrier, and the queue must drain empty - no silent
// loss, for any seed.
TEST_F(LinkFaultTest, RandomizedFaultSweepHasNoSilentLoss) {
  const int seeds = LinkFaultSeeds();
  for (int seed = 1; seed <= seeds; ++seed) {
    clock_.Reset();
    SsdSpec spec = TinySpec(true);
    spec.link_fault.crc_error_prob = 0.01;
    spec.link_fault.timeout_prob = 0.005;
    spec.link_fault.abort_prob = 0.002;
    spec.link_fault.seed = uint64_t(seed) * 0x9e3779b97f4a7c15ull;
    Build(spec);
    Rng rng{uint64_t(seed)};
    std::map<uint64_t, uint64_t> expect;  // lpn -> tag of last acked write
    for (int i = 0; i < 300; ++i) {
      if (rng.Bernoulli(0.25)) {
        // Batched write of 2-6 consecutive pages.
        uint64_t n = 2 + rng.Uniform(5);
        uint64_t base = rng.Uniform(64 - n);
        std::vector<std::vector<uint8_t>> bufs;
        std::vector<uint64_t> pages;
        std::vector<const uint8_t*> datas;
        for (uint64_t k = 0; k < n; ++k) {
          uint64_t tag = uint64_t(seed) << 32 | uint64_t(i) << 8 | k;
          bufs.push_back(Page(tag));
          pages.push_back(base + k);
        }
        for (auto& b : bufs) datas.push_back(b.data());
        size_t accepted = 0;
        Status s = dev()->WriteBatch(pages.data(), datas.data(), n, &accepted);
        ASSERT_TRUE(s.ok() || accepted < n) << s.ToString();
        for (size_t k = 0; k < accepted; ++k) {
          uint64_t tag;
          std::memcpy(&tag, bufs[k].data(), sizeof(tag));
          expect[pages[k]] = tag;
        }
      } else {
        uint64_t lpn = rng.Uniform(64);
        uint64_t tag = uint64_t(seed) << 32 | uint64_t(i) << 8 | 0xffu;
        auto p = Page(tag);
        if (dev()->Write(lpn, p.data()).ok()) expect[lpn] = tag;
      }
      if (i % 32 == 31) {
        ASSERT_TRUE(dev()->FlushBarrier().ok())
            << "seed " << seed << ": unexpected deferred loss";
      }
    }
    ASSERT_TRUE(dev()->FlushBarrier().ok()) << "seed " << seed;
    EXPECT_EQ(dev()->InflightCommands(), 0u) << "seed " << seed;
    EXPECT_EQ(dev()->stats().deferred_errors, 0u) << "seed " << seed;
    EXPECT_FALSE(dev()->link_failed()) << "seed " << seed;
    for (const auto& [lpn, tag] : expect) {
      EXPECT_EQ(ReadTag(lpn), tag) << "seed " << seed << " lpn " << lpn;
    }
  }
}

// A faulty run is reproducible: the same seed gives the same simulated
// timeline and the same recovery counters.
TEST_F(LinkFaultTest, FaultInjectionIsDeterministicPerSeed) {
  SimNanos elapsed[2];
  uint64_t resets[2], crc[2];
  for (int round = 0; round < 2; ++round) {
    clock_.Reset();
    SsdSpec spec = TinySpec(true);
    spec.link_fault.crc_error_prob = 0.02;
    spec.link_fault.timeout_prob = 0.01;
    spec.link_fault.abort_prob = 0.005;
    spec.link_fault.seed = 0xabcdef;
    Build(spec);
    Rng rng(3);
    for (int i = 0; i < 150; ++i) {
      uint64_t lpn = rng.Uniform(64);
      auto p = Page(lpn + uint64_t(i) * 64);
      (void)dev()->Write(lpn, p.data());
      if (i % 20 == 19) (void)dev()->FlushBarrier();
    }
    (void)dev()->FlushBarrier();
    elapsed[round] = clock_.Now();
    resets[round] = dev()->stats().link_resets;
    crc[round] = dev()->stats().crc_errors;
  }
  EXPECT_EQ(elapsed[0], elapsed[1]);
  EXPECT_EQ(resets[0], resets[1]);
  EXPECT_EQ(crc[0], crc[1]);
}

}  // namespace
}  // namespace xftl::storage
