// Tables 3 and 4: TPC-C transaction mixes (configuration) and throughput in
// transactions per simulated minute, WAL vs X-FTL, on a scaled-down data set
// (the paper used DBT-2 with 10 warehouses on real hardware; relative
// throughput is what transfers).
//
// Flags: --txns=N (per cell, default 400) --warehouses=N --items=N
// --link_fault_rate=F (inject SATA link faults; crc=F, timeout=F/2,
// abort=F/5 - every cell asserts zero data loss)
// --json (machine-readable JSON Lines instead of the tables)
// --trace=PREFIX (capture each cell's event stream to
// PREFIX.<setup>.<mix>.trace for xftl_trace)
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "workload/harness.h"
#include "workload/tpcc.h"

using namespace xftl;
using namespace xftl::workload;

int main(int argc, char** argv) {
  uint64_t txns = uint64_t(bench::FlagInt(argc, argv, "txns", 400));
  double link_fault_rate =
      bench::FlagDouble(argc, argv, "link_fault_rate", 0.0);
  bool json = bench::FlagBool(argc, argv, "json");
  std::string trace_prefix = bench::FlagString(argc, argv, "trace", "");
  TpccScale scale;
  scale.warehouses = int(bench::FlagInt(argc, argv, "warehouses", 2));
  scale.items = int(bench::FlagInt(argc, argv, "items", 500));
  scale.districts_per_warehouse = 10;
  scale.customers_per_district = 30;
  scale.initial_orders_per_district = 30;

  struct MixRow {
    const char* name;
    const char* slug;  // file-name/JSON friendly
    TpccMix mix;
  };
  const MixRow mixes[] = {
      {"Write-intensive", "write-int", WriteIntensiveMix()},
      {"Read-intensive", "read-int", ReadIntensiveMix()},
      {"Selection-only", "select-only", SelectionOnlyMix()},
      {"Join-only", "join-only", JoinOnlyMix()},
  };

  if (!json) {
    bench::PrintHeader("Table 3: TPC-C workload mixes (percent)");
    std::printf("%-16s %9s %13s %9s %12s %10s\n", "workload", "Delivery",
                "OrderStatus", "Payment", "StockLevel", "NewOrder");
    for (const MixRow& m : mixes) {
      std::printf("%-16s %8d%% %12d%% %8d%% %11d%% %9d%%\n", m.name,
                  m.mix.delivery, m.mix.order_status, m.mix.payment,
                  m.mix.stock_level, m.mix.new_order);
    }

    std::printf("\n");
    bench::PrintHeader("Table 4: TPC-C throughput (transactions per simulated "
                       "minute)");
    std::printf(
        "config: %d warehouses, %d items, %llu transactions per cell\n\n",
        scale.warehouses, scale.items, (unsigned long long)txns);
    std::printf("%-8s %16s %16s %16s %16s\n", "mode", "Write-int.",
                "Read-int.", "Select-only", "Join-only");
  }

  double results[2][4];
  Setup setups[2] = {Setup::kWal, Setup::kXftl};
  for (int si = 0; si < 2; ++si) {
    if (!json) std::printf("%-8s", SetupName(setups[si]));
    for (int mi = 0; mi < 4; ++mi) {
      HarnessConfig cfg;
      cfg.setup = setups[si];
      cfg.device_blocks = 256;
      // The paper's database is far larger than every cache; at our
      // scaled-down size, small SQLite and file-system caches reproduce the
      // same miss behaviour (this is what exposes WAL's two-file read
      // indirection on the read-heavy mixes).
      cfg.db_cache_pages = uint32_t(bench::FlagInt(argc, argv, "cache", 64));
      cfg.fs_cache_pages =
          uint32_t(bench::FlagInt(argc, argv, "fs_cache", 128));
      if (link_fault_rate > 0) {
        cfg.link_fault.crc_error_prob = link_fault_rate;
        cfg.link_fault.timeout_prob = link_fault_rate / 2;
        cfg.link_fault.abort_prob = link_fault_rate / 5;
        cfg.link_fault.seed = 0x79cc ^ (uint64_t(si) << 8) ^ uint64_t(mi);
      }
      Harness h(cfg);
      CHECK(h.Setup().ok());
      auto* db = h.OpenDatabase("tpcc.db").value();
      Tpcc tpcc(db, h.clock(), scale);
      CHECK(tpcc.Load().ok());
      // DBT-2 style ramp-up before the measured interval.
      CHECK(tpcc.Run(mixes[mi].mix, txns / 4).ok());
      if (!trace_prefix.empty()) {
        std::string path = trace_prefix + "." + SetupName(setups[si]) + "." +
                           mixes[mi].slug + ".trace";
        CHECK(h.EnableTracing(path).ok());
      }
      h.StartMeasurement();
      auto result = tpcc.Run(mixes[mi].mix, txns);
      CHECK(result.ok()) << result.status().ToString();
      IoSnapshot s = h.Snapshot();
      // Under injected link faults the cell must still complete losslessly.
      CHECK(h.ssd()->device()->stats().deferred_errors == 0);
      CHECK(!h.ssd()->device()->link_failed());
      if (!trace_prefix.empty()) CHECK(h.FinishTracing().ok());
      results[si][mi] = result->tpm();
      if (json) {
        bench::JsonObject o;
        o.Add("bench", "table4_tpcc")
            .Add("setup", SetupName(setups[si]))
            .Add("mix", mixes[mi].slug)
            .Add("txns", txns)
            .Add("tpm", results[si][mi])
            .Add("link_fault_rate", link_fault_rate)
            .Add("link_resets", s.sata.link_resets)
            .Add("elapsed_s", NanosToSeconds(s.elapsed))
            .Add("ftl_page_writes", s.ftl.TotalPageWrites())
            .Add("ftl_page_reads", s.ftl.host_page_reads)
            .Add("gc_count", s.ftl.gc_runs)
            .Add("erase_count", s.ftl.block_erases)
            .Add("fsync_calls", s.fsync_calls);
        o.Print();
      } else {
        std::printf(" %16.0f", results[si][mi]);
      }
      std::fflush(stdout);
    }
    if (!json) std::printf("\n");
  }
  if (!json) {
    std::printf("\nX-FTL / WAL ratio: %.2fx  %.2fx  %.2fx  %.2fx\n",
                results[1][0] / results[0][0], results[1][1] / results[0][1],
                results[1][2] / results[0][2], results[1][3] / results[0][3]);
    std::printf("paper (tpmC): WAL 251/3942/281856/35662, "
                "X-FTL 582/9925/277586/35888 -> 2.3x / 2.5x / ~1.0x / ~1.0x\n");
  }
  return 0;
}
