// Tests for the SATA-like storage layer: command timing, extended command
// routing, batched and torn-batch writes, graceful degradation on
// non-transactional drives, and the device profiles.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/sim_clock.h"
#include "storage/sim_ssd.h"
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

class SataDeviceTest : public ::testing::Test {
 protected:
  SataDeviceTest() : ssd_(TinySpec(true), &clock_) {}

  std::vector<uint8_t> Page(uint64_t tag) {
    std::vector<uint8_t> p(ssd_.device()->page_size(), 0);
    std::memcpy(p.data(), &tag, sizeof(tag));
    return p;
  }

  uint64_t ReadTag(uint64_t page, TxId t = ftl::kNoTx) {
    std::vector<uint8_t> out(ssd_.device()->page_size());
    Status s = ssd_.device()->TxRead(t, page, out.data());
    CHECK(s.ok()) << s.ToString();
    uint64_t got;
    std::memcpy(&got, out.data(), sizeof(got));
    return got;
  }

  SimClock clock_;
  SimSsd ssd_;
};

TEST_F(SataDeviceTest, ReadWriteThroughDevice) {
  auto p = Page(7);
  ASSERT_TRUE(ssd_.device()->Write(3, p.data()).ok());
  EXPECT_EQ(ReadTag(3), 7u);
  EXPECT_EQ(ssd_.device()->stats().write_commands, 1u);
  EXPECT_EQ(ssd_.device()->stats().read_commands, 1u);
}

TEST_F(SataDeviceTest, CommandsChargeLinkTime) {
  auto p = Page(1);
  SimNanos t0 = clock_.Now();
  ASSERT_TRUE(ssd_.device()->Write(0, p.data()).ok());
  SsdSpec spec = TinySpec(true);
  EXPECT_GE(clock_.Now() - t0,
            spec.sata.command_overhead + spec.sata.transfer_per_page);
}

TEST_F(SataDeviceTest, TransactionalCommandsRouteToXftl) {
  ASSERT_TRUE(ssd_.device()->SupportsTransactions());
  auto base = Page(1), mine = Page(2);
  ASSERT_TRUE(ssd_.device()->Write(0, base.data()).ok());
  ASSERT_TRUE(ssd_.device()->TxWrite(5, 0, mine.data()).ok());
  EXPECT_EQ(ReadTag(0), 1u);
  EXPECT_EQ(ReadTag(0, 5), 2u);
  ASSERT_TRUE(ssd_.device()->TxCommit(5).ok());
  EXPECT_EQ(ReadTag(0), 2u);
  EXPECT_EQ(ssd_.device()->stats().commit_commands, 1u);
  // Commit travels as an extended trim command.
  EXPECT_EQ(ssd_.device()->stats().trim_commands, 1u);
}

TEST_F(SataDeviceTest, AbortCommand) {
  auto base = Page(1), mine = Page(2);
  ASSERT_TRUE(ssd_.device()->Write(0, base.data()).ok());
  ASSERT_TRUE(ssd_.device()->TxWrite(5, 0, mine.data()).ok());
  ASSERT_TRUE(ssd_.device()->TxAbort(5).ok());
  EXPECT_EQ(ReadTag(0), 1u);
  EXPECT_EQ(ssd_.device()->stats().abort_commands, 1u);
}

TEST_F(SataDeviceTest, PowerCycleRecovers) {
  auto p = Page(9);
  ASSERT_TRUE(ssd_.device()->TxWrite(2, 4, p.data()).ok());
  ASSERT_TRUE(ssd_.device()->TxCommit(2).ok());
  ASSERT_TRUE(ssd_.PowerCycle().ok());
  EXPECT_EQ(ReadTag(4), 9u);
}

TEST(NonTransactionalDeviceTest, DegradesGracefully) {
  SimClock clock;
  SimSsd ssd(TinySpec(false), &clock);
  EXPECT_FALSE(ssd.device()->SupportsTransactions());
  EXPECT_EQ(ssd.xftl(), nullptr);

  std::vector<uint8_t> p(ssd.device()->page_size(), 1);
  // TxWrite behaves as a plain write; TxCommit as a barrier; TxAbort fails.
  ASSERT_TRUE(ssd.device()->TxWrite(3, 0, p.data()).ok());
  ASSERT_TRUE(ssd.device()->TxCommit(3).ok());
  EXPECT_EQ(ssd.device()->TxAbort(3).code(), StatusCode::kNotSupported);
  std::vector<uint8_t> out(ssd.device()->page_size());
  ASSERT_TRUE(ssd.device()->Read(0, out.data()).ok());
  EXPECT_EQ(out[0], 1);
}

// --- NCQ-style queued commands ----------------------------------------------

TEST(NcqTest, QueueDepthBoundsInflightAndStalls) {
  SsdSpec spec = TinySpec(false);
  spec.sata.ncq_depth = 2;
  SimClock clock;
  SimSsd ssd(spec, &clock);
  std::vector<uint8_t> p(ssd.device()->page_size(), 3);
  for (uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(ssd.device()->Write(i, p.data()).ok());
    EXPECT_LE(ssd.device()->InflightCommands(), 2u);
  }
  // 16 writes through 2 slots must have hit the queue-full path.
  EXPECT_GT(ssd.device()->stats().queue_full_stalls, 0u);
  EXPECT_EQ(ssd.device()->stats().queued_commands, 16u);
}

TEST(NcqTest, DeeperQueueIsFasterOnMultipleBanks) {
  auto run = [](uint32_t qd) {
    SsdSpec spec = TinySpec(false);
    spec.sata.ncq_depth = qd;
    SimClock clock;
    SimSsd ssd(spec, &clock);
    std::vector<uint8_t> p(ssd.device()->page_size(), 4);
    for (uint64_t i = 0; i < 32; ++i) {
      CHECK(ssd.device()->Write(i, p.data()).ok());
    }
    CHECK(ssd.device()->FlushBarrier().ok());
    return clock.Now();
  };
  // Depth 1 reproduces the legacy synchronous front-end; depth 32 overlaps
  // programs across the spec's banks.
  EXPECT_LT(2 * run(32), run(1));
}

TEST(NcqTest, FlushBarrierDrainsQueue) {
  SsdSpec spec = TinySpec(false);
  SimClock clock;
  SimSsd ssd(spec, &clock);
  std::vector<uint8_t> p(ssd.device()->page_size(), 5);
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(ssd.device()->Write(i, p.data()).ok());
  }
  EXPECT_GT(ssd.device()->InflightCommands(), 0u);
  ASSERT_TRUE(ssd.device()->FlushBarrier().ok());
  EXPECT_EQ(ssd.device()->InflightCommands(), 0u);
  // The barrier also drained the device-side write buffer: every program is
  // on flash, not just acknowledged.
  EXPECT_EQ(ssd.flash()->BufferedPrograms(), 0u);
}

TEST(NcqTest, TxCommitDrainsQueue) {
  SsdSpec spec = TinySpec(true);
  SimClock clock;
  SimSsd ssd(spec, &clock);
  std::vector<uint8_t> p(ssd.device()->page_size(), 6);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ssd.device()->TxWrite(7, i, p.data()).ok());
  }
  EXPECT_GT(ssd.device()->InflightCommands(), 0u);
  ASSERT_TRUE(ssd.device()->TxCommit(7).ok());
  EXPECT_EQ(ssd.device()->InflightCommands(), 0u);
}

TEST(NcqTest, BatchedWritesStripeAcrossBanksAndReadBack) {
  // One input per batch verb: untagged on the page FTL, tagged on X-FTL. A
  // batch is one wire command, yet it must leave exactly the FTL, X-FTL and
  // flash state of the same pages written one command at a time.
  constexpr TxId kTx = 7;
  for (bool tagged : {false, true}) {
    SCOPED_TRACE(tagged ? "X-FTL TxWriteBatch" : "page FTL WriteBatch");
    SimClock batch_clock, single_clock;
    SimSsd batched(TinySpec(tagged), &batch_clock);
    SimSsd single(TinySpec(tagged), &single_clock);
    const uint32_t page_size = batched.device()->page_size();
    std::vector<std::vector<uint8_t>> bufs;
    std::vector<uint64_t> pages;
    std::vector<const uint8_t*> datas;
    for (uint64_t i = 0; i < 8; ++i) {
      bufs.emplace_back(page_size, uint8_t(0x40 + i));
      pages.push_back(i);
    }
    for (const auto& b : bufs) datas.push_back(b.data());
    auto make_durable = [&](SimSsd& ssd) {
      return tagged ? ssd.device()->TxCommit(kTx)
                    : ssd.device()->FlushBarrier();
    };

    Status s = tagged ? batched.device()->TxWriteBatch(kTx, pages.data(),
                                                       datas.data(), 8)
                      : batched.device()->WriteBatch(pages.data(),
                                                     datas.data(), 8);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(batched.device()->stats().batch_commands, 1u);
    EXPECT_EQ(batched.device()->stats().batched_pages, 8u);
    ASSERT_TRUE(make_durable(batched).ok());

    for (uint64_t i = 0; i < 8; ++i) {
      s = tagged ? single.device()->TxWrite(kTx, pages[i], datas[i])
                 : single.device()->Write(pages[i], datas[i]);
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    EXPECT_EQ(single.device()->stats().batch_commands, 0u);
    ASSERT_TRUE(make_durable(single).ok());

    EXPECT_TRUE(batched.ftl()->stats() == single.ftl()->stats());
    if (tagged) {
      EXPECT_TRUE(batched.xftl()->xstats() == single.xftl()->xstats());
    }
    EXPECT_EQ(batched.flash()->stats().page_programs,
              single.flash()->stats().page_programs);
    std::vector<uint8_t> out(page_size);
    for (uint64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(batched.device()->Read(i, out.data()).ok());
      EXPECT_EQ(out, bufs[i]);
      ASSERT_TRUE(single.device()->Read(i, out.data()).ok());
      EXPECT_EQ(out, bufs[i]);
    }
  }
}

// The FTL rejects the 3rd of 5 pages (lpn out of range), in an untagged
// batch on the page FTL and a tagged one on X-FTL: the batch is torn at that
// page. The two leading pages are accepted, ride one queued command of their
// own and become durable at the next barrier or commit; the rejected page
// and the two after it never run.
TEST(NcqTest, FtlRejectionTearsBatch) {
  constexpr TxId kTx = 9;
  for (bool tagged : {false, true}) {
    SCOPED_TRACE(tagged ? "X-FTL TxWriteBatch" : "page FTL WriteBatch");
    const std::string path = ::testing::TempDir() + "/torn_batch.trace";
    SimClock clock;
    SimSsd ssd(TinySpec(tagged), &clock);
    SataDevice* dev = ssd.device();
    auto writer = trace::TraceWriter::Open(path).value();
    trace::Tracer tracer(writer.get());
    ssd.SetTracer(&tracer);

    const uint64_t pages[5] = {0, 1, dev->num_pages() + 5, 3, 4};
    std::vector<std::vector<uint8_t>> bufs;
    std::vector<const uint8_t*> datas;
    for (uint64_t i = 0; i < 5; ++i) {
      bufs.emplace_back(dev->page_size(), uint8_t(0x60 + i));
    }
    for (const auto& b : bufs) datas.push_back(b.data());
    // The device aborts the batch's tag, so the NCQ error protocol reissues
    // exactly the pages that tag holds.
    dev->ScriptDeviceAbort(1);

    size_t accepted = 99;
    Status s = tagged
                   ? dev->TxWriteBatch(kTx, pages, datas.data(), 5, &accepted)
                   : dev->WriteBatch(pages, datas.data(), 5, &accepted);
    EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
    EXPECT_EQ(accepted, 2u);
    EXPECT_EQ(dev->stats().queued_commands, 1u);
    EXPECT_EQ(dev->InflightCommands(), 1u);

    ASSERT_TRUE((tagged ? dev->TxCommit(kTx) : dev->FlushBarrier()).ok());
    EXPECT_EQ(dev->stats().reissued_commands, 1u);
    EXPECT_EQ(dev->stats().reissued_pages, 2u);
    ASSERT_TRUE(writer->Close().ok());

    // Capture stream: the batch's five page events (two kOk, then three
    // carrying the rejection), then the reissue of the two held pages.
    const trace::Op op = tagged ? trace::Op::kTxWrite : trace::Op::kWrite;
    const std::vector<trace::TraceEvent> events =
        trace::TraceReader::ReadAll(path).value();
    std::vector<trace::TraceEvent> writes;
    for (const auto& e : events) {
      if (e.layer == trace::Layer::kSata && e.op == op) writes.push_back(e);
    }
    ASSERT_EQ(writes.size(), 7u);
    const StatusCode kOk = StatusCode::kOk;
    const StatusCode kRejected = StatusCode::kOutOfRange;
    const StatusCode want[7] = {kOk,       kOk, kRejected, kRejected,
                                kRejected, kOk, kOk};
    const uint64_t want_page[7] = {pages[0], pages[1], pages[2], pages[3],
                                   pages[4], pages[0], pages[1]};
    for (size_t i = 0; i < writes.size(); ++i) {
      EXPECT_EQ(writes[i].status, want[i]) << "event " << i;
      EXPECT_EQ(writes[i].a, want_page[i]) << "event " << i;
    }

    std::vector<uint8_t> out(dev->page_size());
    for (uint64_t i : {0, 1}) {
      ASSERT_TRUE(dev->Read(pages[i], out.data()).ok());
      EXPECT_EQ(out, bufs[i]);
    }
    for (uint64_t i : {3, 4}) {
      ASSERT_TRUE(dev->Read(pages[i], out.data()).ok());
      EXPECT_EQ(out, std::vector<uint8_t>(dev->page_size(), 0xff));
    }
  }
}

TEST(NcqTest, BatchIsFasterThanSynchronousWrites) {
  // The batched path pays one command overhead and overlaps the programs;
  // at queue depth 1 the same pages serialize completely.
  auto run = [](bool batch) {
    SsdSpec spec = TinySpec(false);
    if (!batch) spec.sata.ncq_depth = 1;
    SimClock clock;
    SimSsd ssd(spec, &clock);
    const uint32_t page_size = ssd.device()->page_size();
    std::vector<uint8_t> p(page_size, 9);
    SimNanos start = clock.Now();
    if (batch) {
      std::vector<uint64_t> pages(16);
      std::vector<const uint8_t*> datas(16, p.data());
      for (uint64_t i = 0; i < 16; ++i) pages[i] = i;
      CHECK(ssd.device()->WriteBatch(pages.data(), datas.data(), 16).ok());
    } else {
      for (uint64_t i = 0; i < 16; ++i) {
        CHECK(ssd.device()->Write(i, p.data()).ok());
      }
    }
    CHECK(ssd.device()->FlushBarrier().ok());
    return clock.Now() - start;
  };
  EXPECT_LT(2 * run(true), run(false));
}

// Every non-data command pays exactly one command overhead, counts once in
// its class (trim_commands, or barrier_commands for a flush) plus once in its
// own counter, and records one SATA event. Each case runs on two devices
// whose command overhead differs by kExtra, after the same setup and a
// quiesce, so the device-side work takes the same time on both and the
// command's elapsed times differ by one overhead per overhead it charged.
TEST(NonDataCommandTest, OneOverheadOneCountOneEvent) {
  constexpr TxId kTx = 4;
  constexpr SimNanos kExtra = 7000;
  using Counter = uint64_t SataStats::*;
  struct Case {
    const char* name;
    ftl::CommitMode mode;
    trace::Op op;
    Counter klass;
    Counter verb;  // null when the class counter is the only one
    std::function<void(SataDevice*)> setup;
    std::function<Status(SataDevice*)> run;
  };
  const Counter kTrim = &SataStats::trim_commands;
  const Counter kBarrier = &SataStats::barrier_commands;
  auto open_tx = [](SataDevice* dev) {
    std::vector<uint8_t> p(dev->page_size(), 1);
    CHECK(dev->TxWrite(kTx, 2, p.data()).ok());
  };
  auto prepared_tx = [&](SataDevice* dev) {
    open_tx(dev);
    CHECK(dev->TxPrepare(kTx).ok());
  };
  uint64_t pinned = 0;
  const ftl::CommitMode kDrain = ftl::CommitMode::kDrain;
  const std::vector<Case> cases = {
      {"trim", kDrain, trace::Op::kTrim, kTrim, nullptr,
       [](SataDevice* dev) {
         std::vector<uint8_t> p(dev->page_size(), 1);
         CHECK(dev->Write(3, p.data()).ok());
       },
       [](SataDevice* dev) { return dev->Trim(3); }},
      {"flush", kDrain, trace::Op::kFlush, kBarrier, nullptr, open_tx,
       [](SataDevice* dev) { return dev->FlushBarrier(); }},
      {"await-durable", kDrain, trace::Op::kFlush, kBarrier, nullptr, open_tx,
       [](SataDevice* dev) { return dev->AwaitDurable(); }},
      {"order-only barrier", ftl::CommitMode::kBarrier, trace::Op::kBarrier,
       kBarrier, nullptr, open_tx,
       [](SataDevice* dev) { return dev->FlushBarrier(); }},
      {"commit", kDrain, trace::Op::kTxCommit, kTrim,
       &SataStats::commit_commands, open_tx,
       [](SataDevice* dev) { return dev->TxCommit(kTx); }},
      {"prepare", kDrain, trace::Op::kTxPrepare, kTrim,
       &SataStats::prepare_commands, open_tx,
       [](SataDevice* dev) { return dev->TxPrepare(kTx); }},
      {"commit record", kDrain, trace::Op::kCommitRecord, kTrim,
       &SataStats::commit_record_commands, prepared_tx,
       [](SataDevice* dev) { return dev->WriteCommitRecord(kTx); }},
      {"release record", kDrain, trace::Op::kCommitRecord, kTrim,
       &SataStats::commit_record_commands,
       [&](SataDevice* dev) {
         prepared_tx(dev);
         CHECK(dev->WriteCommitRecord(kTx).ok());
       },
       [](SataDevice* dev) { return dev->ReleaseCommitRecord(kTx); }},
      {"resolve", kDrain, trace::Op::kResolve, kTrim,
       &SataStats::resolve_commands, prepared_tx,
       [](SataDevice* dev) { return dev->ResolveInDoubt(kTx, true); }},
      {"snapshot pin", kDrain, trace::Op::kSnapPin, kTrim,
       &SataStats::snap_pin_commands, open_tx,
       [](SataDevice* dev) { return dev->SnapPin().status(); }},
      {"snapshot unpin", kDrain, trace::Op::kSnapUnpin, kTrim,
       &SataStats::snap_unpin_commands,
       [&](SataDevice* dev) { pinned = dev->SnapPin().value(); },
       [&](SataDevice* dev) { return dev->SnapUnpin(pinned); }},
      {"abort", kDrain, trace::Op::kTxAbort, kTrim, &SataStats::abort_commands,
       open_tx, [](SataDevice* dev) { return dev->TxAbort(kTx); }},
  };
  auto sata_events = [](const trace::Tracer& tracer) {
    uint64_t n = 0;
    for (int op = 0; op < trace::kNumOps; ++op) {
      n += tracer.latency(trace::Layer::kSata, trace::Op(op)).count();
    }
    return n;
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SimNanos elapsed[2];
    for (int extra = 0; extra < 2; ++extra) {
      SsdSpec spec = TinySpec(true);
      spec.ftl.commit_mode = c.mode;
      spec.sata.command_overhead += extra * kExtra;
      SimClock clock;
      SimSsd ssd(spec, &clock);
      SataDevice* dev = ssd.device();
      trace::Tracer tracer;
      ssd.SetTracer(&tracer);
      c.setup(dev);
      ASSERT_TRUE(dev->AwaitDurable().ok());
      clock.Advance(1'000'000'000);  // every bank idle
      const SataStats base = dev->stats();
      const uint64_t events = sata_events(tracer);
      const uint64_t op_events =
          tracer.latency(trace::Layer::kSata, c.op).count();
      const SimNanos t0 = clock.Now();
      ASSERT_TRUE(c.run(dev).ok());
      elapsed[extra] = clock.Now() - t0;

      const SataStats d = CounterDelta(dev->stats(), base);
      for (Counter f : SataStats::kCounters) {
        EXPECT_EQ(d.*f, (f == c.klass || f == c.verb) ? 1u : 0u);
      }
      EXPECT_EQ(sata_events(tracer) - events, 1u);
      EXPECT_EQ(tracer.latency(trace::Layer::kSata, c.op).count() - op_events,
                1u);
    }
    EXPECT_EQ(elapsed[1] - elapsed[0], kExtra);
  }
}

TEST(DeviceProfileTest, OpenSsdMatchesPaperGeometry) {
  SsdSpec spec = OpenSsdSpec();
  EXPECT_EQ(spec.flash.page_size, 8192u);       // K9LCG08U1M 8 KB pages
  EXPECT_EQ(spec.flash.pages_per_block, 128u);  // 128 pages per block
  EXPECT_EQ(spec.xftl.xl2p_capacity, 500u);     // 8 KB X-L2P table
}

TEST(DeviceProfileTest, S830IsFasterThanOpenSsd) {
  SsdSpec open = OpenSsdSpec(), s830 = S830Spec();
  EXPECT_GT(s830.flash.num_banks, open.flash.num_banks);
  EXPECT_LT(s830.sata.transfer_per_page, open.sata.transfer_per_page);
  EXPECT_LT(s830.flash.timings.read_page, open.flash.timings.read_page);
}

TEST(DeviceProfileTest, UtilizationSizesLogicalSpace) {
  SsdSpec lo = OpenSsdSpec(512, 0.3), hi = OpenSsdSpec(512, 0.7);
  EXPECT_LT(lo.ftl.num_logical_pages, hi.ftl.num_logical_pages);
  EXPECT_GT(lo.ftl.num_logical_pages, 0u);
}

TEST(DeviceProfileTest, S830SequentialWritesFasterEndToEnd) {
  // End-to-end sanity for Figure 9's premise: the same write workload takes
  // less simulated time on the S830 profile.
  auto run = [](SsdSpec spec) {
    spec.flash.num_blocks = 64;
    spec.ftl.num_logical_pages = 4096;
    SimClock clock;
    SimSsd ssd(spec, &clock);
    std::vector<uint8_t> p(spec.flash.page_size, 42);
    for (uint64_t i = 0; i < 2000; ++i) {
      CHECK(ssd.device()->Write(i % 4096, p.data()).ok());
    }
    CHECK(ssd.device()->FlushBarrier().ok());
    return clock.Now();
  };
  EXPECT_LT(run(S830Spec()), run(OpenSsdSpec()));
}

}  // namespace
}  // namespace xftl::storage
