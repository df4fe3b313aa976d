// Multi-session host bench: sessions x devices x arrival rate over the
// striped array, reporting array throughput and per-session latency.
//
// The paper benchmarks one SQLite connection on one drive; this bench asks
// the scale-out question the host layer exists for: with N concurrent
// connections multiplexed onto a D-device striped volume, how does array
// throughput scale with D at a fixed per-session arrival rate, and what do
// the per-session tails look like?
//
// Default sweep: devices {1, 2, 4, 8} x sessions {8, 64}, open-loop Poisson
// arrivals, 1-row auto-commit INSERT transactions on the S830 profile. The
// acceptance row is 8 devices / 64 sessions sustaining >= 10k simulated
// txn/s. CI asserts the 1 -> 4 device scaling on the 8-session rows
// (scripts/ci: bench-smoke, BENCH_host.json).
//
//   --devices=N     run a single cell with N devices (0 = sweep 1,2,4,8)
//   --sessions=N    run a single cell with N sessions (0 = sweep 8,64)
//   --rate=R        per-session open-loop arrival rate, txn/s (default 250)
//   --txns=N        transactions per session (default 200)
//   --stripe=N      stripe unit in pages (default 64)
//   --blocks=N      flash blocks per member (default 256)
//   --closed        closed-loop (zero think time) instead of Poisson
//   --profile=s830|openssd   member profile (default s830)
//   --setup=xftl|wal|rbj     stack configuration (default xftl)
//   --commit=drain|barrier|plp  firmware commit discipline (default keeps
//                            the profile's: OpenSSD drain, S830 PLP).
//                            barrier replaces commit-path queue drains with
//                            order-preserving barriers (epoch-prefix
//                            durability; cross-device PREPARE still
//                            completion-waits before the commit record)
//   --cpu-statement-us=N     SQL parse/plan CPU per statement (default 10;
//                            the library default of 45 is calibrated to the
//                            paper's 2009-era single-core host)
//   --trace=PATH    capture a trace (xftl_trace summary shows per-session
//                   p99 from the kHost events)
//   --kill-member=N cut power on member N mid-run and keep scheduling
//                   degraded (failed dispatches are counted, sessions roll
//                   back and continue); requires a pinned multi-device cell
//   --kill-after=N  dispatches before the cut fires (default 50)
//   --json          emit one JSON line per cell
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "workload/harness.h"

namespace xftl::bench {
namespace {

struct Cell {
  uint32_t devices;
  uint32_t sessions;
};

int Run(int argc, char** argv) {
  const long devices_flag = FlagInt(argc, argv, "devices", 0);
  const long sessions_flag = FlagInt(argc, argv, "sessions", 0);
  const double rate = FlagDouble(argc, argv, "rate", 250.0);
  const long txns = FlagInt(argc, argv, "txns", 200);
  const long stripe = FlagInt(argc, argv, "stripe", 64);
  const long blocks = FlagInt(argc, argv, "blocks", 256);
  const bool closed = FlagBool(argc, argv, "closed");
  const std::string profile = FlagString(argc, argv, "profile", "s830");
  const std::string setup = FlagString(argc, argv, "setup", "xftl");
  const std::string commit = FlagString(argc, argv, "commit", "");
  const long cpu_us = FlagInt(argc, argv, "cpu-statement-us", 10);
  const std::string trace = FlagString(argc, argv, "trace", "");
  const long kill_member = FlagInt(argc, argv, "kill-member", -1);
  const long kill_after = FlagInt(argc, argv, "kill-after", 50);
  const bool json = FlagBool(argc, argv, "json");

  std::vector<Cell> cells;
  std::vector<uint32_t> device_axis =
      devices_flag > 0 ? std::vector<uint32_t>{uint32_t(devices_flag)}
                       : std::vector<uint32_t>{1, 2, 4, 8};
  std::vector<uint32_t> session_axis =
      sessions_flag > 0 ? std::vector<uint32_t>{uint32_t(sessions_flag)}
                        : std::vector<uint32_t>{8, 64};
  for (uint32_t s : session_axis) {
    for (uint32_t d : device_axis) cells.push_back({d, s});
  }

  if (!json) {
    PrintHeader("bench_host: sessions x devices x arrival rate");
    std::printf("profile %s, setup %s, %s arrivals at %.0f txn/s/session, "
                "%ld txns/session, stripe %ld pages\n\n",
                profile.c_str(), setup.c_str(),
                closed ? "closed-loop" : "open-loop Poisson", rate, txns,
                stripe);
    std::printf("%8s %9s %12s %12s %12s %12s %10s\n", "devices", "sessions",
                "txn/s", "p50-us", "p99-us", "makespan-ms", "busy-frac");
  }

  for (const Cell& cell : cells) {
    workload::HarnessConfig hc;
    hc.setup = setup == "wal"   ? workload::Setup::kWal
               : setup == "rbj" ? workload::Setup::kRbj
                                : workload::Setup::kXftl;
    hc.s830 = profile != "openssd";
    hc.device_blocks = uint32_t(blocks);
    hc.num_devices = cell.devices;
    hc.stripe_pages = uint32_t(stripe);
    hc.cpu_per_statement = Micros(uint64_t(cpu_us));
    hc.seed = 42;
    if (commit == "drain") {
      hc.commit_mode = ftl::CommitMode::kDrain;
    } else if (commit == "barrier") {
      hc.commit_mode = ftl::CommitMode::kBarrier;
    } else if (commit == "plp") {
      hc.commit_mode = ftl::CommitMode::kPlp;
    } else if (!commit.empty()) {
      std::fprintf(stderr, "--commit must be drain, barrier or plp\n");
      return 1;
    }
    workload::Harness h(hc);
    Status st = h.Setup();
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed (%u devices): %s\n", cell.devices,
                   st.ToString().c_str());
      return 1;
    }
    if (!trace.empty()) {
      // Trace only the cell the flags pinned; a sweep would overwrite it.
      if (cells.size() > 1) {
        std::fprintf(stderr,
                     "--trace needs a single cell: pin --devices and "
                     "--sessions\n");
        return 1;
      }
      st = h.EnableTracing(trace);
      if (!st.ok()) {
        std::fprintf(stderr, "tracing: %s\n", st.ToString().c_str());
        return 1;
      }
    }

    workload::MultiSessionConfig mc;
    mc.sessions = cell.sessions;
    mc.txns_per_session = uint64_t(txns);
    mc.open_loop = !closed;
    mc.rate_per_sec = rate;
    mc.think_time = 0;
    mc.rows_per_txn = 1;
    mc.explicit_txn = false;
    if (kill_member >= 0) {
      if (cells.size() > 1 || cell.devices < 2 ||
          cell.devices <= uint32_t(kill_member)) {
        std::fprintf(stderr,
                     "--kill-member needs a pinned striped cell (>= 2 "
                     "devices) with more devices than the victim index\n");
        return 1;
      }
      mc.kill_member = int32_t(kill_member);
      mc.kill_after_txns = uint64_t(kill_after);
      mc.continue_on_error = true;
    }
    auto r = h.RunMultiSession(mc);
    if (!r.ok()) {
      std::fprintf(stderr, "run failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    if (!r->run_status.ok()) {
      // A degraded run must still COMPLETE: continue-on-error absorbs the
      // per-dispatch failures, so any surviving error is a real defect.
      std::fprintf(stderr, "run died mid-flight: %s\n",
                   r->run_status.ToString().c_str());
      return 1;
    }
    if (!trace.empty()) (void)h.FinishTracing();

    if (kill_member >= 0) {
      // Probe the surviving stripes: the degraded array must keep serving
      // reads that do not touch the dead member.
      host::StripedVolume* vol = h.volume();
      uint64_t probed = 0, probe_errors = 0;
      std::vector<uint8_t> back(vol->page_size());
      for (uint64_t lpn = 0; lpn < vol->num_pages() && probed < 256; ++lpn) {
        if (vol->Map(lpn).device == uint32_t(kill_member)) continue;
        ++probed;
        if (!vol->Read(lpn, back.data()).ok()) ++probe_errors;
      }
      if (probe_errors != 0) {
        std::fprintf(stderr,
                     "degraded read probe: %llu/%llu surviving-stripe reads "
                     "failed\n",
                     (unsigned long long)probe_errors,
                     (unsigned long long)probed);
        return 1;
      }
    }

    // Merge per-session latency for the cell-level view; busy fraction is
    // host occupancy relative to total session activity.
    Histogram all;
    uint64_t busy = 0, waited = 0;
    for (const auto& s : r->sessions) {
      all.Merge(s.latency);
      busy += s.busy;
      waited += s.waited;
    }
    const double busy_frac =
        busy + waited > 0 ? double(busy) / double(busy + waited) : 0.0;

    if (json) {
      JsonObject o;
      o.Add("bench", "host")
          .Add("profile", profile)
          .Add("setup", setup)
          .Add("commit", commit.empty() ? "default" : commit)
          .Add("devices", uint64_t(cell.devices))
          .Add("sessions", uint64_t(cell.sessions))
          .Add("rate_per_session", rate)
          .Add("txns_per_session", uint64_t(txns))
          .Add("open_loop", !closed)
          .Add("committed", r->committed)
          .Add("failed", r->failed)
          .Add("txns_per_sec", r->txns_per_sec)
          .Add("p50_us", all.Percentile(50) / 1e3)
          .Add("p99_us", all.Percentile(99) / 1e3)
          .Add("makespan_ms", NanosToMillis(r->makespan))
          .Add("busy_frac", busy_frac);
      o.Print();
    } else {
      std::printf("%8u %9u %12.0f %12.1f %12.1f %12.2f %10.3f\n",
                  cell.devices, cell.sessions, r->txns_per_sec,
                  all.Percentile(50) / 1e3, all.Percentile(99) / 1e3,
                  NanosToMillis(r->makespan), busy_frac);
    }
  }
  return 0;
}

}  // namespace
}  // namespace xftl::bench

int main(int argc, char** argv) { return xftl::bench::Run(argc, argv); }
