#include "ftl/ager.h"

#include <cmath>
#include <vector>

#include "common/counters.h"

namespace xftl::ftl {

double Ager::UtilizationForValidity(double validity) {
  CHECK_GT(validity, 0.0);
  CHECK_LT(validity, 1.0);
  // u = (v - 1) / ln(v); v -> 1 gives u -> 1, v -> 0 gives u -> 0.
  return (validity - 1.0) / std::log(validity);
}

StatusOr<double> Ager::Age(PageFtl* ftl, uint64_t seed,
                           int overwrite_rounds) {
  Rng rng(seed);
  const uint64_t n = ftl->num_logical_pages();
  const uint32_t page_size = ftl->page_size();
  std::vector<uint8_t> buf(page_size);

  // Sequential fill so every logical page is mapped.
  for (uint64_t lpn = 0; lpn < n; ++lpn) {
    rng.FillBytes(buf.data(), 64);  // cheap, content is irrelevant
    XFTL_RETURN_IF_ERROR(ftl->Write(lpn, buf.data()));
  }

  // Random overwrites to fragment blocks; measure the last round only.
  for (int round = 0; round < overwrite_rounds; ++round) {
    bool last = round == overwrite_rounds - 1;
    const FtlStats before = ftl->stats();
    for (uint64_t i = 0; i < n; ++i) {
      rng.FillBytes(buf.data(), 64);
      XFTL_RETURN_IF_ERROR(ftl->Write(rng.Uniform(n), buf.data()));
    }
    if (last) {
      return CounterDelta(ftl->stats(), before)
          .MeanGcValidRatio(ftl->pages_per_block());
    }
  }
  return 0.0;
}

}  // namespace xftl::ftl
