#include "workload/synthetic.h"

#include <string>

#include "common/rng.h"

namespace xftl::workload {

// Paper: partsupp tuples of 220 bytes (dbgen).
constexpr uint32_t kTupleBytes = 220;

Status LoadPartsupp(sql::Database* db, const SyntheticConfig& config) {
  XFTL_RETURN_IF_ERROR(
      db->Exec("CREATE TABLE partsupp ("
               "ps_partkey INTEGER PRIMARY KEY, "
               "ps_suppkey INT, ps_availqty INT, "
               "ps_supplycost REAL, ps_comment TEXT)")
          .status());

  Rng rng(config.seed);
  // Pad the row to ~kTupleBytes with the comment column (dbgen style).
  constexpr uint32_t pad = kTupleBytes - 60;

  XFTL_RETURN_IF_ERROR(db->Begin());
  const uint32_t batch = 64;
  std::string sql;
  for (uint32_t key = 1; key <= config.num_tuples; ++key) {
    if (sql.empty()) {
      sql = "INSERT INTO partsupp VALUES ";
    } else {
      sql += ", ";
    }
    sql += "(" + std::to_string(key) + ", " +
           std::to_string(1 + rng.Uniform(1000)) + ", " +
           std::to_string(rng.Uniform(10000)) + ", " +
           std::to_string(double(rng.Uniform(100000)) / 100.0) + ", '" +
           rng.AlphaString(pad) + "')";
    if (key % batch == 0 || key == config.num_tuples) {
      XFTL_RETURN_IF_ERROR(db->Exec(sql).status());
      sql.clear();
    }
    // Commit in chunks so the load itself does not explode the page cache.
    if (key % 4096 == 0) {
      XFTL_RETURN_IF_ERROR(db->Commit());
      XFTL_RETURN_IF_ERROR(db->Begin());
    }
  }
  return db->Commit();
}

Status RunSyntheticUpdates(sql::Database* db, const SyntheticConfig& config) {
  Rng rng(config.seed + 0x5eed);
  for (uint32_t txn = 0; txn < config.transactions; ++txn) {
    XFTL_RETURN_IF_ERROR(db->Begin());
    for (uint32_t u = 0; u < config.updates_per_transaction; ++u) {
      uint64_t key = 1 + rng.Uniform(config.num_tuples);
      // Read then update, as the paper describes.
      XFTL_RETURN_IF_ERROR(
          db->Exec("SELECT ps_supplycost FROM partsupp WHERE ps_partkey = " +
                   std::to_string(key))
              .status());
      XFTL_RETURN_IF_ERROR(
          db->Exec("UPDATE partsupp SET ps_supplycost = " +
                   std::to_string(double(rng.Uniform(100000)) / 100.0) +
                   " WHERE ps_partkey = " + std::to_string(key))
              .status());
    }
    XFTL_RETURN_IF_ERROR(db->Commit());
  }
  return Status::OK();
}

}  // namespace xftl::workload
