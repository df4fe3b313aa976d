// Exact order statistics over a full per-transaction sample vector.
//
// common/Histogram interpolates inside power-of-two buckets, which can move a
// percentile by up to a factor of two; the benchmark's regression bounds are
// a few percent, so it keeps every sample and ranks them instead.
#ifndef XFTL_BENCHMARK_SAMPLES_H_
#define XFTL_BENCHMARK_SAMPLES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xftl_bench {

// Nearest-rank percentile: the smallest sample with at least `percent`% of
// all samples at or below it, i.e. the ceil(percent/100 * n)-th smallest.
// `sorted` is ascending and non-empty; `percent` is in [1, 100]. Integer
// arithmetic, so the rank is exact for every n.
inline uint64_t NearestRank(const std::vector<uint64_t>& sorted,
                            uint32_t percent) {
  const size_t rank = (size_t(percent) * sorted.size() + 99) / 100;
  return sorted[rank - 1];
}

// Fewest samples that leave at least ten beyond the `percent`-th percentile;
// below this the percentile is one or two outliers, not a tail.
inline size_t MinSamplesFor(uint32_t percent) {
  return size_t(10) * 100 / (100 - percent);
}

// The highest percentile that still has ten samples beyond it:
// 100 (n - 10) / n. Its nearest-rank value is the (n - 10)-th smallest
// sample. Needs n > 10.
inline double TailPercent(size_t n) {
  return 100.0 * double(n - 10) / double(n);
}
inline uint64_t TailValue(const std::vector<uint64_t>& sorted) {
  return sorted[sorted.size() - 11];
}

// Interquartile mean: the mean of the middle half of the samples, ranks
// n/4 + 1 through n - n/4. Simulated latencies cluster on a few exact values,
// so the median either never moves or jumps between clusters from seed to
// seed; the interquartile mean moves continuously with the clusters' shares.
inline double InterquartileMean(const std::vector<uint64_t>& sorted) {
  const size_t lo = sorted.size() / 4;
  const size_t hi = sorted.size() - lo;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += double(sorted[i]);
  return sum / double(hi - lo);
}

}  // namespace xftl_bench

#endif  // XFTL_BENCHMARK_SAMPLES_H_
