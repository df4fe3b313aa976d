// Device aging (preconditioning), reproducing the paper's "we controlled
// aging of the flash memory chips such that the ratio of valid pages carried
// over by garbage collection was approximately 30%, 50% or 70%".
//
// With uniform random overwrites and greedy victim selection, the
// steady-state victim validity is a monotonic function of the logical-space
// utilization, so the knob we expose is the utilization used when sizing the
// FTL's logical space. UtilizationForValidity() inverts the closed-form
// greedy/uniform relation  u = (v - 1) / ln(v)  (Desnoyers' analytic model),
// and Age() then drives the device to steady state and reports the validity
// actually achieved.
#ifndef XFTL_FTL_AGER_H_
#define XFTL_FTL_AGER_H_

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "ftl/page_ftl.h"

namespace xftl::ftl {

class Ager {
 public:
  // Logical-space utilization (logical pages / physical data pages) that
  // yields approximately `validity` mean valid ratio in GC victims under a
  // uniform random write workload. `validity` in (0, 1).
  static double UtilizationForValidity(double validity);

  // Fills the whole logical space sequentially and then performs
  // `overwrite_rounds` x num_logical_pages uniform random overwrites so
  // garbage collection reaches steady state. Returns the mean victim
  // validity measured over the final round.
  static StatusOr<double> Age(PageFtl* ftl, uint64_t seed = 42,
                              int overwrite_rounds = 3);
};

}  // namespace xftl::ftl

#endif  // XFTL_FTL_AGER_H_
