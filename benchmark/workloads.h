// The benchmark's two transaction generators. Both draw every key and value
// from a seeded Rng and keep what they need to check the database later:
//
//   TpccWorkload    the five TPC-C transactions of workload/tpcc, issued
//                   statement by statement through the Sql boundary, plus the
//                   count of committed NewOrders the consistency checks need.
//                   The statements and the order of random draws must stay
//                   those of workload/tpcc.cc; only the choice of transaction
//                   type differs (a shuffled deck, see Txn).
//   UpdateWorkload  the paper's synthetic partsupp workload (5 SELECT+UPDATE
//                   pairs per transaction) with a shadow copy of every
//                   committed ps_supplycost.
//
// Loading reuses the library loaders (workload::Tpcc::Load, LoadPartsupp).
#ifndef XFTL_BENCHMARK_WORKLOADS_H_
#define XFTL_BENCHMARK_WORKLOADS_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "boundary.h"
#include "common/rng.h"
#include "workload/synthetic.h"
#include "workload/tpcc.h"

namespace xftl_bench {

inline std::string SqlText(const std::string& s) { return s; }
inline std::string SqlText(const char* s) { return s; }
template <class T>
  requires std::is_arithmetic_v<T>
std::string SqlText(T v) {
  return std::to_string(v);
}
template <class... Ts>
std::string Cat(const Ts&... parts) {
  std::string out;
  ((out += SqlText(parts)), ...);
  return out;
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Creates the schema and loads the initial data (set-up).
  virtual Status Load(xftl::sql::Database* db, xftl::SimClock* clock) = 0;
  // One transaction of the workload's mix. Corruption means a read disagreed
  // with what the benchmark committed: the run is wrong, not merely slow.
  virtual Status Txn(Sql* sql) = 0;
  // One committed write transaction (the first one after a restart).
  virtual Status WriteTxn(Sql* sql) = 0;
  // A write transaction that dirties ~10 pages and is never committed.
  virtual Status InFlight(Sql* sql) = 0;
  // Checks the whole database against what the benchmark committed.
  virtual Status Verify(Sql* sql) = 0;
};

class TpccWorkload : public Workload {
 public:
  TpccWorkload(const xftl::workload::TpccMix& mix,
               const xftl::workload::TpccScale& scale, uint64_t seed)
      : mix_(mix), scale_(scale), rng_(seed) {}

  Status Load(xftl::sql::Database* db, xftl::SimClock* clock) override {
    return xftl::workload::Tpcc(db, clock, scale_).Load();
  }

  // Types are dealt from a shuffled deck of 100 cards that holds the mix's
  // exact percentages (TPC-C 5.2.4.2), so every seed runs the same mix.
  Status Txn(Sql* sql) override {
    if (next_card_ == deck_.size()) Shuffle();
    int pick = deck_[next_card_++];
    if ((pick -= mix_.delivery) < 0) return Delivery(sql);
    if ((pick -= mix_.order_status) < 0) return OrderStatus(sql);
    if ((pick -= mix_.payment) < 0) return Payment(sql);
    if ((pick -= mix_.stock_level) < 0) return StockLevel(sql);
    return NewOrder(sql);
  }

  Status WriteTxn(Sql* sql) override { return NewOrder(sql); }

  // Bumps every warehouse's w_ytd without its districts, adds an order, and
  // zeroes the quantity of ten stock rows spread over the table: each one
  // breaks an invariant Verify checks if it survives the crash.
  Status InFlight(Sql* sql) override {
    XFTL_RETURN_IF_ERROR(sql->Begin());
    XFTL_RETURN_IF_ERROR(
        sql->Exec("UPDATE warehouse SET w_ytd = w_ytd + 1000000.0").status());
    XFTL_RETURN_IF_ERROR(
        sql->Exec("INSERT INTO orders (o_id, o_d_id, o_w_id, o_c_id, "
                  "o_carrier_id, o_ol_cnt, o_all_local) VALUES "
                  "(0, 1, 1, 1, NULL, 5, 1)")
            .status());
    const int stock_rows = scale_.warehouses * scale_.items;
    for (int k = 0; k < 10; ++k) {
      XFTL_RETURN_IF_ERROR(
          sql->Exec(Cat("UPDATE stock SET s_quantity = 0 WHERE s_key = ",
                        1 + k * stock_rows / 10))
              .status());
    }
    return Status::OK();
  }

  // TPC-C consistency conditions 1 and 2 (w_ytd = sum of d_ytd; d_next_o_id
  // - 1 = max(o_id)), the order count, and the stock-quantity floor the
  // NewOrder update keeps (quantities never drop below 10).
  Status Verify(Sql* sql) override {
    XFTL_ASSIGN_OR_RETURN(auto ws,
                          sql->Exec("SELECT w_id, w_ytd FROM warehouse"));
    XFTL_ASSIGN_OR_RETURN(
        auto ds, sql->Exec("SELECT d_w_id, SUM(d_ytd) FROM district "
                           "GROUP BY d_w_id"));
    if (ws.rows.size() != size_t(scale_.warehouses) ||
        ds.rows.size() != ws.rows.size()) {
      return Status::Corruption("warehouse or district rows missing");
    }
    std::map<int64_t, double> district_ytd;
    for (const auto& row : ds.rows) district_ytd[row[0].AsInt()] = row[1].AsReal();
    for (const auto& row : ws.rows) {
      // Half a cent: payments are whole cents, summed in two orders.
      if (std::fabs(row[1].AsReal() - district_ytd[row[0].AsInt()]) > 0.005) {
        return Status::Corruption(Cat("w_ytd != sum(d_ytd) for warehouse ",
                                      row[0].AsInt()));
      }
    }
    for (int w = 1; w <= scale_.warehouses; ++w) {
      for (int d = 1; d <= scale_.districts_per_warehouse; ++d) {
        XFTL_ASSIGN_OR_RETURN(
            auto next, sql->Exec(Cat("SELECT d_next_o_id FROM district WHERE "
                                     "d_w_id = ", w, " AND d_id = ", d)));
        XFTL_ASSIGN_OR_RETURN(
            auto max, sql->Exec(Cat("SELECT MAX(o_id) FROM orders WHERE "
                                    "o_w_id = ", w, " AND o_d_id = ", d)));
        if (next.rows.size() != 1 || max.rows.size() != 1 ||
            next.rows[0][0].AsInt() - 1 != max.rows[0][0].AsInt()) {
          return Status::Corruption(
              Cat("d_next_o_id - 1 != max(o_id) in district ", w, "/", d));
        }
      }
    }
    XFTL_ASSIGN_OR_RETURN(auto orders,
                          sql->Exec("SELECT COUNT(*) FROM orders"));
    const int64_t want = int64_t(scale_.warehouses) *
                             scale_.districts_per_warehouse *
                             scale_.initial_orders_per_district +
                         int64_t(new_orders_);
    if (orders.rows[0][0].AsInt() != want) {
      return Status::Corruption(Cat("orders: ", orders.rows[0][0].AsInt(),
                                    " rows, want ", want));
    }
    XFTL_ASSIGN_OR_RETURN(
        auto low, sql->Exec("SELECT COUNT(*) FROM stock WHERE s_quantity < 10"));
    if (low.rows[0][0].AsInt() != 0) {
      return Status::Corruption("stock quantity below 10");
    }
    return Status::OK();
  }

 private:
  int RandomWarehouse() { return 1 + int(rng_.Uniform(scale_.warehouses)); }
  int RandomDistrict() {
    return 1 + int(rng_.Uniform(scale_.districts_per_warehouse));
  }
  int RandomCustomer() {
    return 1 + int(rng_.NuRand(255, 1, scale_.customers_per_district, 123) %
                   scale_.customers_per_district);
  }
  int RandomItem() {
    return 1 + int(rng_.NuRand(8191, 1, scale_.items, 5677) % scale_.items);
  }

  void Shuffle() {
    for (int i = 0; i < 100; ++i) deck_[i] = i;
    for (int i = 99; i > 0; --i) std::swap(deck_[i], deck_[rng_.Uniform(i + 1)]);
    next_card_ = 0;
  }

  Status NewOrder(Sql* sql) {
    const int w = RandomWarehouse(), d = RandomDistrict(), c = RandomCustomer();
    const int ol_cnt = 5 + int(rng_.Uniform(11));
    XFTL_RETURN_IF_ERROR(sql->Begin());
    XFTL_ASSIGN_OR_RETURN(
        auto dist, sql->Exec(Cat("SELECT d_key, d_tax, d_next_o_id FROM "
                                 "district WHERE d_w_id = ", w, " AND d_id = ",
                                 d)));
    if (dist.rows.empty()) return Status::NotFound("district");
    const int64_t d_key = dist.rows[0][0].AsInt();
    const int64_t o_id = dist.rows[0][2].AsInt();
    XFTL_RETURN_IF_ERROR(
        sql->Exec(Cat("UPDATE district SET d_next_o_id = ", o_id + 1,
                      " WHERE d_key = ", d_key))
            .status());
    XFTL_RETURN_IF_ERROR(
        sql->Exec(Cat("SELECT c_balance, c_last FROM customer WHERE c_w_id = ",
                      w, " AND c_d_id = ", d, " AND c_id = ", c))
            .status());
    XFTL_RETURN_IF_ERROR(
        sql->Exec(Cat("INSERT INTO orders (o_id, o_d_id, o_w_id, o_c_id, "
                      "o_carrier_id, o_ol_cnt, o_all_local) VALUES (",
                      o_id, ", ", d, ", ", w, ", ", c, ", NULL, ", ol_cnt,
                      ", 1)"))
            .status());
    XFTL_RETURN_IF_ERROR(
        sql->Exec(Cat("INSERT INTO new_order (no_o_id, no_d_id, no_w_id) "
                      "VALUES (", o_id, ", ", d, ", ", w, ")"))
            .status());
    for (int l = 1; l <= ol_cnt; ++l) {
      const int item = RandomItem();
      XFTL_ASSIGN_OR_RETURN(
          auto price,
          sql->Exec(Cat("SELECT i_price FROM item WHERE i_id = ", item)));
      if (price.rows.empty()) return Status::NotFound("item");
      XFTL_ASSIGN_OR_RETURN(
          auto stock, sql->Exec(Cat("SELECT s_key, s_quantity FROM stock "
                                    "WHERE s_w_id = ", w, " AND s_i_id = ",
                                    item)));
      if (stock.rows.empty()) return Status::NotFound("stock");
      const int64_t qty = stock.rows[0][1].AsInt();
      const int64_t order_qty = 1 + int64_t(rng_.Uniform(10));
      const int64_t new_qty =
          qty >= order_qty + 10 ? qty - order_qty : qty - order_qty + 91;
      XFTL_RETURN_IF_ERROR(
          sql->Exec(Cat("UPDATE stock SET s_quantity = ", new_qty,
                        ", s_ytd = s_ytd + ", order_qty,
                        ", s_order_cnt = s_order_cnt + 1 WHERE s_key = ",
                        stock.rows[0][0].AsInt()))
              .status());
      XFTL_RETURN_IF_ERROR(
          sql->Exec(Cat("INSERT INTO order_line (ol_o_id, ol_d_id, ol_w_id, "
                        "ol_number, ol_i_id, ol_supply_w_id, ol_quantity, "
                        "ol_amount, ol_dist_info) VALUES (",
                        o_id, ", ", d, ", ", w, ", ", l, ", ", item, ", ", w,
                        ", ", order_qty, ", ",
                        double(order_qty) * price.rows[0][0].AsReal(), ", '",
                        rng_.AlphaString(24), "')"))
              .status());
    }
    XFTL_RETURN_IF_ERROR(sql->Commit());
    ++new_orders_;
    return Status::OK();
  }

  Status Payment(Sql* sql) {
    const int w = RandomWarehouse(), d = RandomDistrict();
    const std::string amount =
        std::to_string(1.0 + double(rng_.Uniform(499900)) / 100.0);
    XFTL_RETURN_IF_ERROR(sql->Begin());
    XFTL_RETURN_IF_ERROR(sql->Exec(Cat("UPDATE warehouse SET w_ytd = w_ytd + ",
                                       amount, " WHERE w_id = ", w))
                             .status());
    XFTL_RETURN_IF_ERROR(
        sql->Exec(Cat("UPDATE district SET d_ytd = d_ytd + ", amount,
                      " WHERE d_w_id = ", w, " AND d_id = ", d))
            .status());
    // 60% by last name, 40% by id (TPC-C 2.5.2.2); the scaled-down data set
    // may lack a name, which falls back to an id.
    static const char* kLastNames[] = {"BAR",  "OUGHT", "ABLE",  "PRI",
                                       "PRES", "ESE",   "ANTI",  "CALLY",
                                       "ATION", "EING"};
    const std::string by_id = Cat("SELECT c_key FROM customer WHERE c_w_id = ",
                                  w, " AND c_d_id = ", d, " AND c_id = ");
    xftl::sql::ResultSet customers;
    if (rng_.Bernoulli(0.6)) {
      XFTL_ASSIGN_OR_RETURN(
          customers,
          sql->Exec(Cat("SELECT c_key FROM customer WHERE c_w_id = ", w,
                        " AND c_d_id = ", d, " AND c_last = '",
                        kLastNames[rng_.Uniform(10)], "' ORDER BY c_first")));
      if (customers.rows.empty()) {
        XFTL_ASSIGN_OR_RETURN(customers,
                              sql->Exec(Cat(by_id, RandomCustomer())));
      }
    } else {
      XFTL_ASSIGN_OR_RETURN(customers, sql->Exec(Cat(by_id, RandomCustomer())));
    }
    if (customers.rows.empty()) return Status::NotFound("customer");
    const int64_t c_key = customers.rows[customers.rows.size() / 2][0].AsInt();
    XFTL_RETURN_IF_ERROR(
        sql->Exec(Cat("UPDATE customer SET c_balance = c_balance - ", amount,
                      ", c_ytd_payment = c_ytd_payment + ", amount,
                      ", c_payment_cnt = c_payment_cnt + 1 WHERE c_key = ",
                      c_key))
            .status());
    XFTL_RETURN_IF_ERROR(
        sql->Exec(Cat("INSERT INTO history (h_c_id, h_c_d_id, h_c_w_id, "
                      "h_d_id, h_w_id, h_amount, h_data) VALUES (",
                      c_key, ", ", d, ", ", w, ", ", d, ", ", w, ", ", amount,
                      ", '", rng_.AlphaString(18), "')"))
            .status());
    return sql->Commit();
  }

  Status OrderStatus(Sql* sql) {
    const int w = RandomWarehouse(), d = RandomDistrict(), c = RandomCustomer();
    XFTL_RETURN_IF_ERROR(
        sql->Exec(Cat("SELECT c_balance, c_first, c_last FROM customer WHERE "
                      "c_w_id = ", w, " AND c_d_id = ", d, " AND c_id = ", c))
            .status());
    XFTL_ASSIGN_OR_RETURN(
        auto orders,
        sql->Exec(Cat("SELECT o_id, o_carrier_id FROM orders WHERE o_w_id = ",
                      w, " AND o_d_id = ", d, " AND o_c_id = ", c,
                      " ORDER BY o_id DESC LIMIT 1")));
    if (orders.rows.empty()) return Status::OK();
    return sql
        ->Exec(Cat("SELECT ol_i_id, ol_quantity, ol_amount FROM order_line "
                   "WHERE ol_w_id = ", w, " AND ol_d_id = ", d,
                   " AND ol_o_id = ", orders.rows[0][0].AsInt()))
        .status();
  }

  Status Delivery(Sql* sql) {
    const int w = RandomWarehouse();
    const int carrier = 1 + int(rng_.Uniform(10));
    XFTL_RETURN_IF_ERROR(sql->Begin());
    for (int d = 1; d <= scale_.districts_per_warehouse; ++d) {
      XFTL_ASSIGN_OR_RETURN(
          auto oldest,
          sql->Exec(Cat("SELECT no_key, no_o_id FROM new_order WHERE "
                        "no_w_id = ", w, " AND no_d_id = ", d,
                        " ORDER BY no_o_id ASC LIMIT 1")));
      if (oldest.rows.empty()) continue;
      const int64_t o_id = oldest.rows[0][1].AsInt();
      XFTL_RETURN_IF_ERROR(sql->Exec(Cat("DELETE FROM new_order WHERE no_key = ",
                                         oldest.rows[0][0].AsInt()))
                               .status());
      XFTL_RETURN_IF_ERROR(
          sql->Exec(Cat("UPDATE orders SET o_carrier_id = ", carrier,
                        " WHERE o_w_id = ", w, " AND o_d_id = ", d,
                        " AND o_id = ", o_id))
              .status());
      XFTL_ASSIGN_OR_RETURN(
          auto sum, sql->Exec(Cat("SELECT SUM(ol_amount), MIN(ol_o_id) FROM "
                                  "order_line WHERE ol_w_id = ", w,
                                  " AND ol_d_id = ", d, " AND ol_o_id = ",
                                  o_id)));
      const double total = sum.rows.empty() ? 0.0 : sum.rows[0][0].AsReal();
      XFTL_RETURN_IF_ERROR(
          sql->Exec(Cat("UPDATE customer SET c_balance = c_balance + ", total,
                        ", c_delivery_cnt = c_delivery_cnt + 1 WHERE "
                        "c_w_id = ", w, " AND c_d_id = ", d, " AND c_id = ",
                        1 + rng_.Uniform(scale_.customers_per_district)))
              .status());
    }
    return sql->Commit();
  }

  Status StockLevel(Sql* sql) {
    const int w = RandomWarehouse(), d = RandomDistrict();
    const int threshold = 10 + int(rng_.Uniform(11));
    XFTL_ASSIGN_OR_RETURN(
        auto next, sql->Exec(Cat("SELECT d_next_o_id FROM district WHERE "
                                 "d_w_id = ", w, " AND d_id = ", d)));
    if (next.rows.empty()) return Status::NotFound("district");
    return sql
        ->Exec(Cat("SELECT COUNT(DISTINCT s.s_i_id) FROM order_line ol JOIN "
                   "stock s ON s.s_i_id = ol.ol_i_id AND s.s_w_id = "
                   "ol.ol_w_id WHERE ol.ol_w_id = ", w, " AND ol.ol_d_id = ",
                   d, " AND ol.ol_o_id >= ", next.rows[0][0].AsInt() - 20,
                   " AND s.s_quantity < ", threshold))
        .status();
  }

  const xftl::workload::TpccMix mix_;
  const xftl::workload::TpccScale scale_;
  xftl::Rng rng_;
  std::array<int, 100> deck_{};
  size_t next_card_ = deck_.size();
  uint64_t new_orders_ = 0;  // committed NewOrder transactions
};

class UpdateWorkload : public Workload {
 public:
  static constexpr uint32_t kTuples = 20000;
  static constexpr uint32_t kUpdatesPerTxn = 5;

  // `data_seed` draws the loaded table, `seed` the transaction stream.
  UpdateWorkload(uint64_t data_seed, uint64_t seed)
      : data_seed_(data_seed), rng_(seed) {}

  // Loads partsupp, then reads every supplycost back into the shadow.
  Status Load(xftl::sql::Database* db, xftl::SimClock* clock) override {
    xftl::workload::SyntheticConfig config;
    config.num_tuples = kTuples;
    config.seed = data_seed_;
    XFTL_RETURN_IF_ERROR(xftl::workload::LoadPartsupp(db, config));
    XFTL_ASSIGN_OR_RETURN(
        auto rows, db->Exec("SELECT ps_partkey, ps_supplycost FROM partsupp"));
    shadow_.assign(kTuples + 1, -1);
    for (const auto& row : rows.rows) {
      shadow_[size_t(row[0].AsInt())] = std::llround(row[1].AsReal() * 100);
    }
    return Status::OK();
  }

  // Each SELECT must return the last committed (or own staged) value.
  Status Txn(Sql* sql) override {
    std::vector<std::pair<uint32_t, int64_t>> staged;
    XFTL_RETURN_IF_ERROR(sql->Begin());
    for (uint32_t u = 0; u < kUpdatesPerTxn; ++u) {
      const uint32_t key = 1 + uint32_t(rng_.Uniform(kTuples));
      const int64_t cents = int64_t(rng_.Uniform(100000));
      XFTL_ASSIGN_OR_RETURN(
          auto read, sql->Exec(Cat("SELECT ps_supplycost FROM partsupp WHERE "
                                   "ps_partkey = ", key)));
      int64_t want = shadow_[key];
      for (const auto& [k, c] : staged) {
        if (k == key) want = c;
      }
      if (read.rows.size() != 1 ||
          std::llround(read.rows[0][0].AsReal() * 100) != want) {
        return Status::Corruption(Cat("partsupp ", key, " read a value the "
                                      "benchmark never committed"));
      }
      XFTL_RETURN_IF_ERROR(
          sql->Exec(Cat("UPDATE partsupp SET ps_supplycost = ",
                        double(cents) / 100.0, " WHERE ps_partkey = ", key))
              .status());
      staged.emplace_back(key, cents);
    }
    XFTL_RETURN_IF_ERROR(sql->Commit());
    for (const auto& [k, c] : staged) shadow_[k] = c;
    return Status::OK();
  }

  Status WriteTxn(Sql* sql) override { return Txn(sql); }

  // Ten keys spread over the table get a negative cost no committed
  // transaction ever writes.
  Status InFlight(Sql* sql) override {
    XFTL_RETURN_IF_ERROR(sql->Begin());
    for (uint32_t k = 0; k < 10; ++k) {
      XFTL_RETURN_IF_ERROR(
          sql->Exec(Cat("UPDATE partsupp SET ps_supplycost = -1.0 WHERE "
                        "ps_partkey = ", 1 + k * (kTuples / 10)))
              .status());
    }
    return Status::OK();
  }

  Status Verify(Sql* sql) override {
    XFTL_ASSIGN_OR_RETURN(
        auto rows,
        sql->Exec("SELECT ps_partkey, ps_supplycost FROM partsupp"));
    if (rows.rows.size() != kTuples) {
      return Status::Corruption(Cat("partsupp has ", rows.rows.size(),
                                    " rows, want ", kTuples));
    }
    for (const auto& row : rows.rows) {
      const int64_t key = row[0].AsInt();
      if (key < 1 || key > int64_t(kTuples) ||
          std::llround(row[1].AsReal() * 100) != shadow_[size_t(key)]) {
        return Status::Corruption(
            Cat("partsupp ", key, " differs from the last committed value"));
      }
    }
    return Status::OK();
  }

 private:
  const uint64_t data_seed_;
  xftl::Rng rng_;
  std::vector<int64_t> shadow_;  // key -> ps_supplycost in cents
};

}  // namespace xftl_bench

#endif  // XFTL_BENCHMARK_WORKLOADS_H_
