// Pins the order statistics the benchmark reports latencies with (nearest
// rank, tail rank, interquartile mean) on known vectors. Exits nonzero on
// the first mismatch.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "samples.h"

namespace {

int failures = 0;

void Expect(uint64_t got, uint64_t want, const char* what) {
  if (got != want) {
    std::fprintf(stderr, "FAIL %s: got %llu, want %llu\n", what,
                 (unsigned long long)got, (unsigned long long)want);
    ++failures;
  }
}

}  // namespace

int main() {
  using xftl_bench::InterquartileMean;
  using xftl_bench::MinSamplesFor;
  using xftl_bench::NearestRank;
  using xftl_bench::TailPercent;
  using xftl_bench::TailValue;

  // 1..1000: the p-th percentile is exactly 10*p.
  std::vector<uint64_t> thousand(1000);
  std::iota(thousand.begin(), thousand.end(), 1);
  Expect(NearestRank(thousand, 50), 500, "p50 of 1..1000");
  Expect(NearestRank(thousand, 99), 990, "p99 of 1..1000");
  Expect(NearestRank(thousand, 100), 1000, "p100 of 1..1000");
  Expect(NearestRank(thousand, 1), 10, "p1 of 1..1000");

  // Seven samples: p50 is the ceil(3.5) = 4th smallest, p99 the largest. A
  // bucketed or interpolating estimator would land between samples.
  std::vector<uint64_t> seven = {700, 3, 90, 12, 5000, 41, 41};
  std::sort(seven.begin(), seven.end());
  Expect(NearestRank(seven, 50), 41, "p50 of seven");
  Expect(NearestRank(seven, 99), 5000, "p99 of seven");
  Expect(NearestRank(seven, 14), 3, "p14 of seven");
  Expect(NearestRank(seven, 15), 12, "p15 of seven");

  // A single sample is every percentile.
  Expect(NearestRank({42}, 1), 42, "p1 of one");
  Expect(NearestRank({42}, 99), 42, "p99 of one");

  Expect(MinSamplesFor(99), 1000, "samples for p99");
  Expect(MinSamplesFor(50), 20, "samples for p50");

  // The tail percentile leaves exactly ten samples beyond it.
  Expect(TailValue(thousand), 990, "tail of 1..1000");
  Expect(uint64_t(TailPercent(1000) * 100), 9900, "tail percent of 1000");
  std::vector<uint64_t> twenty(20);
  std::iota(twenty.begin(), twenty.end(), 1);
  Expect(TailValue(twenty), 10, "tail of 1..20");
  Expect(uint64_t(TailPercent(20)), 50, "tail percent of 20");

  // Middle half of 1..8 is 3, 4, 5, 6; of seven samples, ranks 2..6.
  Expect(uint64_t(InterquartileMean({1, 2, 3, 4, 5, 6, 7, 8}) * 10), 45,
         "IQM of 1..8");
  Expect(uint64_t(std::llround(InterquartileMean(seven) * 5)),
         12 + 41 + 41 + 90 + 700,
         "IQM of seven");

  if (failures == 0) std::printf("samples_test: ok\n");
  return failures == 0 ? 0 : 1;
}
