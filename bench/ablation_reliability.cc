// Ablation: end-to-end reliability under injected NAND failures. Sweeps the
// program/erase status-failure probability (with a wear-driven raw bit error
// rate held constant) over the full SQL stack in the X-FTL setup and reports
// transaction throughput, write amplification, the failure-handling counters,
// and whether the device degraded to read-only. At the highest rates the run
// is EXPECTED to stop early with ResourceExhausted — the point is that it
// stops cleanly, with everything committed so far still readable.
//
// A second sweep isolates the volatile program buffer's flush cost: the
// same workload on perfect media with the profile-default buffer depth vs a
// depth-1 (write-through) buffer. The barrier count is identical — the
// durability contract doesn't change — but the deep buffer overlaps
// programs across banks between barriers, so each flush retires more pages
// in less simulated time.
//
// Flags: --tuples=N --txns=N --rber=F --json
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "workload/harness.h"
#include "workload/synthetic.h"

using namespace xftl;
using namespace xftl::workload;

namespace {

// One paper-style transaction: 5 read-modify-write updates by random key.
Status OneTransaction(sql::Database* db, Rng& rng, uint32_t tuples) {
  XFTL_RETURN_IF_ERROR(db->Begin());
  for (uint32_t u = 0; u < 5; ++u) {
    uint64_t key = 1 + rng.Uniform(tuples);
    Status s = db->Exec("UPDATE partsupp SET ps_supplycost = " +
                        std::to_string(double(rng.Uniform(100000)) / 100.0) +
                        " WHERE ps_partkey = " + std::to_string(key))
                   .status();
    if (!s.ok()) {
      (void)db->Rollback();
      return s;
    }
  }
  return db->Commit();
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t tuples = uint32_t(bench::FlagInt(argc, argv, "tuples", 8000));
  uint32_t txns = uint32_t(bench::FlagInt(argc, argv, "txns", 600));
  double rber = bench::FlagDouble(argc, argv, "rber", 1e-5);
  bool json = bench::FlagBool(argc, argv, "json");

  if (!json) {
    bench::PrintHeader(
        "Ablation: throughput & write amplification vs injected NAND fault "
        "rate");
    std::printf(
        "config: %u tuples, up to %u transactions (5 updates each), X-FTL "
        "setup,\n        rber_base=%.0e (+5e-7 per P/E cycle), erase fail "
        "rate = program fail rate\n\n",
        tuples, txns, rber);
    std::printf("%-9s | %5s %9s %6s | %6s %6s %4s %9s %8s | %s\n", "fail-rate",
                "txns", "tx/s", "WA", "pfail", "efail", "bad", "ecc-bits",
                "reissue", "outcome");
  }

  for (double rate : {0.0, 1e-4, 1e-3, 5e-3, 2e-2}) {
    HarnessConfig cfg;
    cfg.setup = Setup::kXftl;
    cfg.device_blocks = 256;
    cfg.fault.program_fail_prob = rate;
    cfg.fault.erase_fail_prob = rate;
    cfg.fault.rber_base = rber;
    cfg.fault.rber_per_pe_cycle = 5e-7;
    Harness h(cfg);
    CHECK(h.Setup().ok());
    auto* db = h.OpenDatabase("reliability.db").value();
    SyntheticConfig wl;
    wl.num_tuples = tuples;
    CHECK(LoadPartsupp(db, wl).ok());

    h.StartMeasurement();

    Rng rng(99);
    uint32_t done = 0;
    std::string stop;
    for (; done < txns; ++done) {
      Status s = OneTransaction(db, rng, tuples);
      if (!s.ok()) {
        stop = StatusCodeToString(s.code());
        break;
      }
    }
    IoSnapshot s = h.Snapshot();
    const ftl::FtlStats& d = s.ftl;
    double wa = d.host_page_writes == 0
                    ? 0.0
                    : double(d.TotalPageWrites()) / double(d.host_page_writes);
    double secs = NanosToSeconds(s.elapsed);

    // Degraded or not, everything committed so far must still be readable.
    bool reads_ok = db->Exec("SELECT COUNT(*) FROM partsupp").ok();
    std::string outcome =
        stop.empty() ? "completed" : "stopped: " + stop;
    outcome += h.ssd()->ftl()->read_only() ? ", read-only" : "";
    outcome += reads_ok ? ", reads ok" : ", READS BROKEN";

    if (json) {
      bench::JsonObject o;
      o.Add("section", "fault_sweep")
          .Add("fail_rate", rate)
          .Add("txns", uint64_t(done))
          .Add("tx_per_sec", secs > 0 ? done / secs : 0.0)
          .Add("wa", wa)
          .Add("program_fails", s.flash.program_fails)
          .Add("erase_fails", s.flash.erase_fails)
          .Add("grown_bad_blocks", s.ftl.grown_bad_blocks)
          .Add("ecc_corrected_bits", s.flash.ecc_corrected)
          .Add("read_only", h.ssd()->ftl()->read_only())
          .Add("reads_ok", reads_ok)
          .Add("outcome", stop.empty() ? "completed" : stop);
      o.Print();
    } else {
      std::printf(
          "%-9.0e | %5u %9.1f %6.2f | %6llu %6llu %4llu %9llu %8llu | "
          "%s\n",
          rate, done, secs > 0 ? done / secs : 0.0, wa,
          (unsigned long long)s.flash.program_fails,
          (unsigned long long)s.flash.erase_fails,
          (unsigned long long)s.ftl.grown_bad_blocks,
          (unsigned long long)s.flash.ecc_corrected,
          (unsigned long long)h.ssd()->ftl()->stats().program_fail_reissues,
          outcome.c_str());
    }
    std::fflush(stdout);
  }
  if (!json) {
    std::printf(
        "\nwrite amplification rises with the fault rate (every failure "
        "relocates a block's live pages); at the highest rates the spare "
        "pool drains and the device degrades to read-only instead of "
        "failing hard\n");
  }

  // --- flush-cost ablation: program buffer depth --------------------------
  if (!json) {
    std::printf("\nflush cost of the volatile program buffer (perfect "
                "media, %u transactions)\n",
                txns);
    std::printf("%-9s | %5s %9s %9s | %8s %9s %10s\n", "buffer", "txns",
                "tx/s", "sim-ms", "flushes", "flushed", "pages/flush");
  }
  for (uint32_t depth : {0u, 1u}) {  // 0 = profile default (deep buffer)
    HarnessConfig cfg;
    cfg.setup = Setup::kXftl;
    cfg.device_blocks = 256;
    cfg.write_buffer_pages = depth;
    Harness h(cfg);
    CHECK(h.Setup().ok());
    auto* db = h.OpenDatabase("flushcost.db").value();
    SyntheticConfig wl;
    wl.num_tuples = tuples;
    CHECK(LoadPartsupp(db, wl).ok());

    h.StartMeasurement();
    Rng rng(99);
    uint32_t done = 0;
    for (; done < txns; ++done) {
      if (!OneTransaction(db, rng, tuples).ok()) break;
    }
    IoSnapshot s = h.Snapshot();
    uint64_t flushes = s.flash.buffer_flushes;
    uint64_t flushed = s.flash.programs_flushed;
    double secs = NanosToSeconds(s.elapsed);
    uint32_t actual =
        depth == 0 ? h.ssd()->flash()->config().write_buffer_pages : depth;

    if (json) {
      bench::JsonObject o;
      o.Add("section", "flush_ablation")
          .Add("buffer_pages", uint64_t(actual))
          .Add("profile_default", depth == 0)
          .Add("txns", uint64_t(done))
          .Add("tx_per_sec", secs > 0 ? done / secs : 0.0)
          .Add("sim_ms", double(s.elapsed) / 1e6)
          .Add("buffer_flushes", flushes)
          .Add("programs_flushed", flushed)
          .Add("pages_per_flush",
               flushes == 0 ? 0.0 : double(flushed) / double(flushes));
      o.Print();
    } else {
      std::printf("%-9u | %5u %9.1f %9.2f | %8llu %9llu %10.2f\n", actual,
                  done, secs > 0 ? done / secs : 0.0, double(s.elapsed) / 1e6,
                  (unsigned long long)flushes, (unsigned long long)flushed,
                  flushes == 0 ? 0.0 : double(flushed) / double(flushes));
    }
    std::fflush(stdout);
  }
  if (!json) {
    std::printf(
        "\nthe barrier count is fixed by the durability contract; a deeper "
        "buffer overlaps programs across banks between barriers, so the "
        "same flushes cost less simulated time\n");
  }
  return 0;
}
