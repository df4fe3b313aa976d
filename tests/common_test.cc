// Unit tests for the common substrate: Status/StatusOr, SimClock, Rng,
// CRC-32C, coding helpers and Histogram.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/units.h"

namespace xftl {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Corruption("bad page");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.ToString(), "Corruption: bad page");
}

TEST(StatusTest, FactoryCodesMatch) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Busy("x").code(), StatusCode::kBusy);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsNotFound());
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> p = std::move(v).value();
  EXPECT_EQ(*p, 7);
}

Status ReturnIfErrorHelper(bool fail) {
  XFTL_RETURN_IF_ERROR(fail ? Status::IoError("io") : Status::OK());
  return Status::AlreadyExists("reached end");
}

TEST(StatusMacrosTest, ReturnIfError) {
  EXPECT_EQ(ReturnIfErrorHelper(true).code(), StatusCode::kIoError);
  EXPECT_EQ(ReturnIfErrorHelper(false).code(), StatusCode::kAlreadyExists);
}

StatusOr<int> AssignHelper(bool fail) {
  XFTL_ASSIGN_OR_RETURN(
      int v, fail ? StatusOr<int>(Status::Busy("b")) : StatusOr<int>(5));
  return v + 1;
}

TEST(StatusMacrosTest, AssignOrReturn) {
  EXPECT_EQ(AssignHelper(false).value(), 6);
  EXPECT_TRUE(AssignHelper(true).status().IsBusy());
}

TEST(SimClockTest, AdvanceAndAdvanceTo) {
  SimClock clock;
  EXPECT_EQ(clock.Now(), 0u);
  clock.Advance(Micros(5));
  EXPECT_EQ(clock.Now(), 5000u);
  clock.AdvanceTo(Micros(3));  // never backwards
  EXPECT_EQ(clock.Now(), 5000u);
  clock.AdvanceTo(Micros(9));
  EXPECT_EQ(clock.Now(), 9000u);
}

TEST(UnitsTest, Conversions) {
  EXPECT_EQ(KiB(8), 8192u);
  EXPECT_EQ(MiB(1), 1048576u);
  EXPECT_EQ(Millis(2), 2000000u);
  EXPECT_DOUBLE_EQ(NanosToSeconds(Seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(NanosToMillis(Micros(1500)), 1.5);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, NuRandWithinRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NuRand(255, 1, 3000, 123);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3000);
  }
}

TEST(RngTest, FillBytesCoversBuffer) {
  Rng rng(15);
  std::vector<uint8_t> buf(37, 0);
  rng.FillBytes(buf.data(), buf.size());
  int nonzero = 0;
  for (uint8_t b : buf) nonzero += b != 0;
  EXPECT_GT(nonzero, 20);  // all-zero after fill would be astronomically rare
}

// Crc32c takes the CPU's CRC-32C instruction where there is one, and
// Crc32cPortable's tables elsewhere. Every check runs over both, so a host
// with the instruction still tests the tables.
struct CrcPath {
  const char* name;
  uint32_t (*crc)(const void* data, size_t n, uint32_t init);
};
constexpr CrcPath kCrcPaths[] = {{"Crc32c", Crc32c},
                                 {"Crc32cPortable", Crc32cPortable}};

TEST(Crc32Test, KnownVector) {
  for (const CrcPath& path : kCrcPaths) {
    SCOPED_TRACE(path.name);
    // CRC-32C("123456789") = 0xE3069283 (well-known check value).
    EXPECT_EQ(path.crc("123456789", 9, 0), 0xE3069283u);
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  for (const CrcPath& path : kCrcPaths) {
    SCOPED_TRACE(path.name);
    std::string data(1024, 'x');
    uint32_t crc = path.crc(data.data(), data.size(), 0);
    data[512] ^= 1;
    EXPECT_NE(crc, path.crc(data.data(), data.size(), 0));
  }
}

TEST(Crc32Test, EmptyInput) {
  for (const CrcPath& path : kCrcPaths) {
    SCOPED_TRACE(path.name);
    EXPECT_EQ(path.crc("", 0, 0), 0u);
  }
}

// One bytewise CRC-32C step, independent of the library's tables.
uint32_t ReferenceCrcStep(uint32_t state, uint8_t byte) {
  state ^= byte;
  for (int k = 0; k < 8; ++k) {
    state = (state >> 1) ^ ((state & 1) ? 0x82f63b78u : 0);
  }
  return state;
}

TEST(Crc32Test, MatchesBytewiseReference) {
  constexpr size_t kMaxLen = 9000;
  Rng rng(21);
  std::vector<uint8_t> buf(kMaxLen + 8);
  rng.FillBytes(buf.data(), buf.size());
  for (const CrcPath& path : kCrcPaths) {
    SCOPED_TRACE(path.name);
    // Every length at every word alignment, extending a nonzero init.
    constexpr uint32_t kInit = 0x9e3779b9u;
    for (size_t start = 0; start < 8; ++start) {
      uint32_t state = ~kInit;  // reference over buf[start, start + len)
      for (size_t len = 0; len <= kMaxLen; ++len) {
        ASSERT_EQ(path.crc(buf.data() + start, len, kInit), ~state)
            << "start " << start << " len " << len;
        if (len < kMaxLen) state = ReferenceCrcStep(state, buf[start + len]);
      }
    }
    // Split and chain: a tail's CRC extending its head's is the whole CRC.
    const uint32_t whole = path.crc(buf.data(), kMaxLen, 0);
    for (size_t split = 0; split <= kMaxLen; ++split) {
      ASSERT_EQ(path.crc(buf.data() + split, kMaxLen - split,
                         path.crc(buf.data(), split, 0)),
                whole)
          << "split " << split;
    }
  }
}

TEST(CodingTest, RoundTrip) {
  uint8_t buf[8];
  EncodeFixed16(buf, 0xBEEF);
  EXPECT_EQ(DecodeFixed16(buf), 0xBEEF);
  EncodeFixed32(buf, 0xDEADBEEF);
  EXPECT_EQ(DecodeFixed32(buf), 0xDEADBEEFu);
  EncodeFixed64(buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(DecodeFixed64(buf), 0x0123456789ABCDEFull);
}

TEST(CodingTest, VarintRoundTrip) {
  const uint64_t values[] = {0,       1,        127,        128,
                             300,     16383,    16384,      1ull << 31,
                             1ull << 63, ~0ull};
  for (uint64_t v : values) {
    std::vector<uint8_t> buf;
    PutVarint64(&buf, v);
    EXPECT_LE(buf.size(), kMaxVarint64Bytes);
    uint64_t out = 0;
    const uint8_t* next = GetVarint64(buf.data(), buf.data() + buf.size(), &out);
    ASSERT_NE(next, nullptr) << v;
    EXPECT_EQ(next, buf.data() + buf.size());
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, VarintEncodedLengths) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  PutVarint64(&buf, 128);
  EXPECT_EQ(buf.size(), 2u);
  buf.clear();
  PutVarint64(&buf, ~0ull);
  EXPECT_EQ(buf.size(), 10u);
}

TEST(CodingTest, VarintTruncatedInputReturnsNull) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, 300);  // two bytes
  uint64_t out = 0;
  EXPECT_EQ(GetVarint64(buf.data(), buf.data() + 1, &out), nullptr);
  EXPECT_EQ(GetVarint64(buf.data(), buf.data(), &out), nullptr);
}

TEST(CodingTest, VarintMalformedOverlongReturnsNull) {
  std::vector<uint8_t> buf(11, 0xff);  // never terminates within 10 bytes
  uint64_t out = 0;
  EXPECT_EQ(GetVarint64(buf.data(), buf.data() + buf.size(), &out), nullptr);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v : {1, 2, 3, 4, 100}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 22.0);
}

TEST(HistogramTest, PercentileMonotonic) {
  Histogram h;
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) h.Add(rng.Uniform(100000));
  double p50 = h.Percentile(50), p90 = h.Percentile(90), p99 = h.Percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, double(h.max()));
}

// Pins the percentile math (power-of-two buckets, linear interpolation,
// clamped to [min, max]) so the trace tooling's reported p50/p95/p99 can't
// drift silently.
TEST(HistogramTest, PercentilePinnedAllEqual) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Add(100);
  // Every sample is 100, so the clamp pins every percentile to it exactly.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(95), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 100.0);
}

TEST(HistogramTest, PercentilePinnedTwoBuckets) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Add(1);     // bucket [1, 2)
  for (int i = 0; i < 900; ++i) h.Add(1000);  // bucket [512, 1024)
  // p50: target 500, 400 into the 900-sample bucket starting at 512.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 512.0 + 400.0 / 900.0 * 512.0);
  // p95: target 950, 850 into that bucket.
  EXPECT_DOUBLE_EQ(h.Percentile(95), 512.0 + 850.0 / 900.0 * 512.0);
  // p99: interpolation overshoots the true maximum; the clamp catches it.
  EXPECT_DOUBLE_EQ(h.Percentile(99), 1000.0);
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a, b;
  a.Add(10);
  b.Add(20);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 20u);
}

// An empty histogram must report clean zeros, never NaN: per-session tables
// in xftl_trace summary and bench JSON read these fields for sessions that
// completed nothing (e.g. a read-only session on a degraded run).
TEST(HistogramTest, EmptyHistogramReportsZerosNotNan) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 0.0);
  EXPECT_FALSE(std::isnan(h.Mean()));
  EXPECT_FALSE(std::isnan(h.Percentile(99)));
}

TEST(HistogramTest, MergeWithEmptyIsIdentity) {
  Histogram a, empty;
  a.Add(10);
  a.Add(30);
  a.Merge(empty);  // merging an empty histogram changes nothing
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 30u);
  EXPECT_DOUBLE_EQ(a.Mean(), 20.0);

  Histogram b;
  b.Merge(a);  // merging INTO an empty histogram copies the stats
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.min(), 10u);
  EXPECT_EQ(b.max(), 30u);

  Histogram c, d;
  c.Merge(d);  // empty + empty stays empty and NaN-free
  EXPECT_EQ(c.count(), 0u);
  EXPECT_EQ(c.min(), 0u);
  EXPECT_DOUBLE_EQ(c.Percentile(99), 0.0);
}

}  // namespace
}  // namespace xftl
