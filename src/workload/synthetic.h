// The paper's synthetic workload (§6.2): a TPC-H style `partsupp` table of
// 60,000 tuples of ~220 bytes; each transaction updates the supplycost of a
// fixed number of tuples picked by random partkey, then commits.
#ifndef XFTL_WORKLOAD_SYNTHETIC_H_
#define XFTL_WORKLOAD_SYNTHETIC_H_

#include <cstdint>

#include "common/status.h"
#include "sql/database.h"

namespace xftl::workload {

struct SyntheticConfig {
  // Paper: 60,000 tuples of 220 bytes (dbgen partsupp). Scale down for unit
  // tests.
  uint32_t num_tuples = 60000;
  uint32_t transactions = 1000;
  uint32_t updates_per_transaction = 5;
  uint64_t seed = 1;
};

// Creates and populates the partsupp table.
Status LoadPartsupp(sql::Database* db, const SyntheticConfig& config);

// Runs the update transactions. The database must already be loaded.
Status RunSyntheticUpdates(sql::Database* db, const SyntheticConfig& config);

}  // namespace xftl::workload

#endif  // XFTL_WORKLOAD_SYNTHETIC_H_
