// Trace subsystem: binary format round-trip, torn-tail tolerance, tracer
// histograms, counter sums and deltas, and capture -> replay determinism.
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/counters.h"
#include "common/sim_clock.h"
#include "ftl/ftl_stats.h"
#include "storage/sim_ssd.h"
#include "trace/replay.h"
#include "trace/trace_file.h"
#include "trace/tracer.h"

namespace xftl::trace {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TraceEvent MakeEvent(uint64_t i) {
  TraceEvent e;
  e.time = SimNanos(1000 * i);
  e.layer = Layer(i % kNumLayers);
  e.op = Op(i % kNumOps);
  e.tid = uint32_t(i % 7);
  e.a = i * 31;
  e.b = i * 97 + 5;
  e.latency = SimNanos(i % 500);
  e.status = i % 11 == 0 ? StatusCode::kBusy : StatusCode::kOk;
  return e;
}

TEST(TraceFileTest, RoundTripAcrossFrames) {
  std::string path = TempPath("roundtrip.trace");
  std::vector<TraceEvent> written;
  {
    auto writer = TraceWriter::Open(path, /*events_per_frame=*/4).value();
    for (uint64_t i = 0; i < 11; ++i) {  // 2 full frames + a partial one
      TraceEvent e = MakeEvent(i);
      writer->Append(e);
      written.push_back(e);
    }
    ASSERT_TRUE(writer->Close().ok());
    EXPECT_EQ(writer->events_written(), 11u);
  }
  bool truncated = true;
  auto events = TraceReader::ReadAll(path, &truncated).value();
  EXPECT_FALSE(truncated);
  ASSERT_EQ(events.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(events[i], written[i]) << "event " << i;
  }
}

TEST(TraceFileTest, EmptyTraceReadsCleanly) {
  std::string path = TempPath("empty.trace");
  ASSERT_TRUE(TraceWriter::Open(path).value()->Close().ok());
  bool truncated = true;
  auto events = TraceReader::ReadAll(path, &truncated).value();
  EXPECT_FALSE(truncated);
  EXPECT_TRUE(events.empty());
}

// Anything without the v2 magic fails to open with a bad-magic Corruption:
// arbitrary bytes, and a well-framed file of the retired v1 format.
TEST(TraceFileTest, RejectsNonTraceFile) {
  std::string garbage = TempPath("not_a.trace");
  std::FILE* f = std::fopen(garbage.c_str(), "wb");
  std::fputs("definitely not a trace", f);
  std::fclose(f);
  std::string v1 = TempPath("v1.trace");
  {
    auto writer = TraceWriter::Open(v1).value();
    writer->Append(MakeEvent(1));
    ASSERT_TRUE(writer->Close().ok());
  }
  f = std::fopen(v1.c_str(), "rb+");
  std::fseek(f, sizeof(kTraceMagic) - 1, SEEK_SET);
  std::fputc('1', f);  // "XFTLTRC2" -> "XFTLTRC1"
  std::fclose(f);
  for (const std::string& path : {garbage, v1}) {
    auto reader = TraceReader::Open(path);
    ASSERT_FALSE(reader.ok()) << path;
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruption) << path;
    EXPECT_NE(reader.status().message().find("bad magic"), std::string::npos)
        << path;
  }
}

// A short write at process death tears the final frame; the reader must
// deliver every complete frame and flag (not fail on) the torn tail.
TEST(TraceFileTest, TornTailIsDetectedAndSkipped) {
  std::string path = TempPath("torn.trace");
  {
    auto writer = TraceWriter::Open(path, /*events_per_frame=*/4).value();
    for (uint64_t i = 0; i < 12; ++i) writer->Append(MakeEvent(i));
    ASSERT_TRUE(writer->Close().ok());
  }
  // Chop a few bytes off the end: the third frame's payload is now short.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size), 0);
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  bytes.resize(bytes.size() - 3);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  bool truncated = false;
  auto events = TraceReader::ReadAll(path, &truncated).value();
  EXPECT_TRUE(truncated);
  EXPECT_EQ(events.size(), 8u);  // frames 1 and 2 survive, frame 3 is torn
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i], MakeEvent(i));
  }
}

// Bit rot inside a sealed frame must be caught by the CRC, not decoded.
TEST(TraceFileTest, CorruptPayloadFailsCrc) {
  std::string path = TempPath("corrupt.trace");
  {
    auto writer = TraceWriter::Open(path, /*events_per_frame=*/4).value();
    for (uint64_t i = 0; i < 8; ++i) writer->Append(MakeEvent(i));
    ASSERT_TRUE(writer->Close().ok());
  }
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  std::fseek(f, -2, SEEK_END);  // inside the second frame's payload
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);

  bool truncated = false;
  auto events = TraceReader::ReadAll(path, &truncated).value();
  EXPECT_TRUE(truncated);
  EXPECT_EQ(events.size(), 4u);  // only the first frame decodes
}

TEST(TracerTest, HistogramsAndCountsPerLayerOp) {
  Tracer tracer;
  tracer.Record(Layer::kSata, Op::kWrite, 0, 0, 1, 0, 100, StatusCode::kOk);
  tracer.Record(Layer::kSata, Op::kWrite, 10, 0, 2, 0, 300, StatusCode::kOk);
  tracer.Record(Layer::kFlash, Op::kErase, 20, 0, 3, 0, 2000, StatusCode::kOk);
  EXPECT_EQ(tracer.event_count(), 3u);
  EXPECT_EQ(tracer.latency(Layer::kSata, Op::kWrite).count(), 2u);
  EXPECT_EQ(tracer.latency(Layer::kSata, Op::kWrite).max(), 300u);
  EXPECT_EQ(tracer.latency(Layer::kFlash, Op::kErase).count(), 1u);
  EXPECT_EQ(tracer.latency(Layer::kFtl, Op::kGc).count(), 0u);
}

// A power cycle leaves one FTL kRecover event that explains the boot: the
// pages the OOB scan sensed (a) and the OOB reads the recovery issued (b).
// After a drive flush that is every meta page plus page 0 of each data
// block; kRecoverBlocks splits those blocks into trusted and scanned and
// counts the resumed ones.
TEST(TracerTest, RecoverEventCarriesScanSize) {
  std::string path = TempPath("recover.trace");
  SimClock clock;
  storage::SimSsd ssd(storage::OpenSsdSpec(/*num_blocks=*/64), &clock);
  auto writer = TraceWriter::Open(path, /*events_per_frame=*/64).value();
  Tracer tracer(writer.get());
  ssd.SetTracer(&tracer);
  std::vector<uint8_t> buf(ssd.device()->page_size(), 0x5a);
  for (uint64_t p = 0; p < 300; ++p) {
    ASSERT_TRUE(ssd.device()->Write(p % 200, buf.data()).ok());
  }
  ASSERT_TRUE(ssd.device()->FlushBarrier().ok());
  uint64_t meta_pages = 0, data_blocks = 0;
  const flash::FlashDevice& dev = *ssd.flash();
  const uint32_t meta_blocks = storage::OpenSsdSpec(64).ftl.meta_blocks;
  for (flash::BlockNum b = 0; b < dev.config().num_blocks; ++b) {
    if (b < meta_blocks) {
      meta_pages += dev.NextProgramPage(b);
    } else if (dev.NextProgramPage(b) > 0) {
      data_blocks++;
    }
  }
  ASSERT_GT(data_blocks, 0u);
  ASSERT_TRUE(ssd.PowerCycle().ok());
  ASSERT_TRUE(writer->Close().ok());

  auto events = TraceReader::ReadAll(path).value();
  int recovers = 0, splits = 0;
  for (const TraceEvent& e : events) {
    if (e.layer != Layer::kFtl) continue;
    if (e.op == Op::kRecoverBlocks) {
      splits++;
      EXPECT_EQ(e.a, data_blocks);  // all trusted: the flush left no tail
      EXPECT_EQ(e.b, 0u);
      EXPECT_GE(e.tid, 1u);  // the open blocks resume
      EXPECT_LE(e.tid, 4u);
    }
    if (e.op != Op::kRecover) continue;
    recovers++;
    EXPECT_EQ(e.a, meta_pages + data_blocks);
    EXPECT_EQ(e.b, meta_pages + data_blocks);
    EXPECT_GT(e.latency, 0u);
  }
  EXPECT_EQ(recovers, 1);
  EXPECT_EQ(splits, 1);
  EXPECT_EQ(dev.stats().oob_reads, meta_pages + data_blocks);
}

// Sets counter i of two snapshots to 1000 * (i + 1) and i + 1, so every
// field of their sum and of their delta differs from every other field.
template <typename S>
void ExpectSumAndDeltaFieldwise() {
  S now, base;
  for (size_t i = 0; i < S::kCounters.size(); ++i) {
    now.*S::kCounters[i] = 1000 * (i + 1);
    base.*S::kCounters[i] = i + 1;
  }
  S sum = now;
  AddCounters(&sum, base);
  const S delta = CounterDelta(now, base);
  for (size_t i = 0; i < S::kCounters.size(); ++i) {
    EXPECT_EQ(sum.*S::kCounters[i], 1001 * (i + 1)) << "field " << i;
    EXPECT_EQ(delta.*S::kCounters[i], 999 * (i + 1)) << "field " << i;
  }
}

TEST(CountersTest, SumAndDeltaCoverEveryField) {
  ExpectSumAndDeltaFieldwise<ftl::FtlStats>();
  ExpectSumAndDeltaFieldwise<storage::SataStats>();
  ExpectSumAndDeltaFieldwise<flash::FlashStats>();
}

TEST(CountersTest, FtlTotalsCountTable1Columns) {
  ftl::FtlStats s;
  s.host_page_writes = 10;
  s.gc_copyback_writes = 4;
  s.meta_page_writes = 2;
  s.retire_relocations = 1;
  s.host_page_reads = 7;
  s.gc_copyback_reads = 3;
  EXPECT_EQ(s.TotalPageWrites(), 17u);
  EXPECT_EQ(s.TotalPageReads(), 10u);
}

TEST(FtlStatsTest, DeltaSubtractsFieldwise) {
  ftl::FtlStats base, now;
  base.host_page_writes = 10;
  base.gc_runs = 2;
  now.host_page_writes = 25;
  now.gc_runs = 5;
  now.block_erases = 3;
  ftl::FtlStats d = now.Delta(base);
  EXPECT_EQ(d.host_page_writes, 15u);
  EXPECT_EQ(d.gc_runs, 3u);
  EXPECT_EQ(d.block_erases, 3u);
  EXPECT_EQ(d.host_page_reads, 0u);
  EXPECT_TRUE(now.Delta(now) == ftl::FtlStats{});
}

// Captures a command stream through a real device, then replays it. The
// determinism anchor: two replays of one trace on one spec produce
// bit-identical FtlStats.
class ReplayTest : public ::testing::Test {
 protected:
  // Drives a mixed transactional/plain workload on an X-FTL device with
  // capture enabled, returning the trace path.
  std::string Capture(const std::string& name) {
    std::string path = TempPath(name);
    SimClock clock;
    storage::SsdSpec spec = storage::OpenSsdSpec(/*num_blocks=*/64);
    storage::SimSsd ssd(spec, &clock);
    auto writer = TraceWriter::Open(path, /*events_per_frame=*/32).value();
    Tracer tracer(writer.get());
    ssd.SetTracer(&tracer);

    std::vector<uint8_t> buf(ssd.device()->page_size(), 0xab);
    storage::SataDevice* dev = ssd.device();
    for (uint64_t p = 0; p < 40; ++p) {
      EXPECT_TRUE(dev->Write(p, buf.data()).ok());
    }
    for (storage::TxId t = 1; t <= 5; ++t) {
      for (uint64_t p = 0; p < 8; ++p) {
        EXPECT_TRUE(dev->TxWrite(t, 40 + p, buf.data()).ok());
      }
      if (t == 3) {
        EXPECT_TRUE(dev->TxAbort(t).ok());
      } else {
        EXPECT_TRUE(dev->TxCommit(t).ok());
      }
    }
    for (uint64_t p = 0; p < 20; ++p) {
      EXPECT_TRUE(dev->Read(p, buf.data()).ok());
    }
    EXPECT_TRUE(dev->Trim(2).ok());
    EXPECT_TRUE(dev->FlushBarrier().ok());
    EXPECT_TRUE(writer->Close().ok());
    EXPECT_GT(tracer.event_count(), 0u);
    return path;
  }
};

TEST_F(ReplayTest, ReplaysCapturedCommands) {
  std::string path = Capture("replay_basic.trace");
  storage::SsdSpec spec = storage::OpenSsdSpec(64);
  auto r = ReplayTrace(path, spec).value();
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.reads, 20u);
  EXPECT_EQ(r.writes, 40u + 5 * 8);  // plain + transactional writes
  EXPECT_EQ(r.trims, 1u);
  EXPECT_EQ(r.flushes, 1u);
  EXPECT_EQ(r.commits, 4u);
  EXPECT_EQ(r.aborts, 1u);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.skipped, 0u);
  EXPECT_GT(r.ftl.TotalPageWrites(), 0u);
  EXPECT_GT(r.elapsed, 0u);
}

TEST_F(ReplayTest, DeterministicOnXftl) {
  std::string path = Capture("replay_xftl.trace");
  storage::SsdSpec spec = storage::OpenSsdSpec(64);
  spec.transactional = true;
  auto a = ReplayTrace(path, spec).value();
  auto b = ReplayTrace(path, spec).value();
  EXPECT_TRUE(a.ftl == b.ftl);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.Commands(), b.Commands());
}

TEST_F(ReplayTest, DeterministicOnOriginalFtl) {
  std::string path = Capture("replay_pageftl.trace");
  storage::SsdSpec spec = storage::OpenSsdSpec(64);
  spec.transactional = false;  // Tx commands degrade / are skipped
  auto a = ReplayTrace(path, spec).value();
  auto b = ReplayTrace(path, spec).value();
  EXPECT_TRUE(a.ftl == b.ftl);
  EXPECT_EQ(a.elapsed, b.elapsed);
  // The abort cannot be expressed without a transactional FTL.
  EXPECT_EQ(a.aborts, 0u);
  EXPECT_EQ(a.skipped, 1u);
}

// The same workload capture-replayed on both profiles reaches different
// devices but each must still count every host command.
TEST_F(ReplayTest, BothProfilesSeeTheFullStream) {
  std::string path = Capture("replay_profiles.trace");
  storage::SsdSpec xftl = storage::OpenSsdSpec(64);
  storage::SsdSpec page = storage::OpenSsdSpec(64);
  page.transactional = false;
  auto rx = ReplayTrace(path, xftl).value();
  auto rp = ReplayTrace(path, page).value();
  EXPECT_EQ(rx.Commands() + rx.skipped, rp.Commands() + rp.skipped);
  EXPECT_GT(rx.ftl.flush_barriers + rx.sata.commit_commands, 0u);
}

// A histogram the tracer never touched (no events for that layer/op) must
// read back as clean zeros — the summary tool prints whatever is there.
TEST(TracerTest, UntouchedOpHistogramReportsZerosNotNan) {
  Tracer tracer;
  const Histogram& h = tracer.latency(Layer::kHost, Op::kTxn);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(99), 0.0);
}

// MVCC snapshot commands: captured pins/reads/unpins re-drive against a
// fresh device (whose epochs may differ — the replayer maps them), stay
// deterministic, and degrade to skips on the non-transactional FTL.
TEST_F(ReplayTest, SnapshotCommandsReplayOnXftl) {
  std::string path = TempPath("replay_snap.trace");
  {
    SimClock clock;
    storage::SsdSpec spec = storage::OpenSsdSpec(/*num_blocks=*/64);
    storage::SimSsd ssd(spec, &clock);
    auto writer = TraceWriter::Open(path, /*events_per_frame=*/32).value();
    Tracer tracer(writer.get());
    ssd.SetTracer(&tracer);
    storage::SataDevice* dev = ssd.device();

    std::vector<uint8_t> v1(dev->page_size(), 0x11);
    std::vector<uint8_t> v2(dev->page_size(), 0x22);
    ASSERT_TRUE(dev->TxWrite(1, 0, v1.data()).ok());
    ASSERT_TRUE(dev->TxCommit(1).ok());
    uint64_t epoch = dev->SnapPin().value();
    ASSERT_TRUE(dev->TxWrite(2, 0, v2.data()).ok());
    ASSERT_TRUE(dev->TxCommit(2).ok());
    // The capture-side snapshot read serves the pre-image...
    std::vector<uint8_t> out(dev->page_size());
    ASSERT_TRUE(dev->SnapRead(epoch, 0, out.data()).ok());
    EXPECT_EQ(out, v1);
    // ...while a live read sees the new version.
    ASSERT_TRUE(dev->Read(0, out.data()).ok());
    EXPECT_EQ(out, v2);
    ASSERT_TRUE(dev->SnapUnpin(epoch).ok());
    ASSERT_TRUE(writer->Close().ok());
  }

  storage::SsdSpec spec = storage::OpenSsdSpec(64);
  auto a = ReplayTrace(path, spec).value();
  EXPECT_EQ(a.snap_pins, 2u);  // pin + unpin verbs
  EXPECT_EQ(a.reads, 2u);      // snapshot read + live read
  EXPECT_EQ(a.errors, 0u);
  auto b = ReplayTrace(path, spec).value();
  EXPECT_TRUE(a.ftl == b.ftl);
  EXPECT_EQ(a.elapsed, b.elapsed);

  // The original FTL has no snapshot verbs: all three degrade to skips.
  storage::SsdSpec page = storage::OpenSsdSpec(64);
  page.transactional = false;
  auto rp = ReplayTrace(path, page).value();
  EXPECT_EQ(rp.snap_pins, 0u);
  EXPECT_EQ(rp.skipped, 3u);  // pin, snapshot read, unpin
}

}  // namespace
}  // namespace xftl::trace
