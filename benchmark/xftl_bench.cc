// xftl_bench: one workload, one seed, one process, one connection.
//
//   xftl_bench --workload=NAME --seed=N [--seconds=S] [--traced]
//
// Builds the stack from public constructors (SimSsd -> ExtFs -> Database),
// runs set-up (build, age, load, warm-up), a measured closed loop of
// transactions with zero think time, and then a power cut and restart that
// ends in a full correctness check. Prints one JSON object on stdout. On any
// failure it prints the reason on stderr and exits 1 without metrics.
//
// Untraced runs report the end-to-end metrics: the simulated clock (what the
// paper measures) and the host clock (what the simulator costs). Host time is
// the process's CPU time: the process is single-threaded and does no I/O, so
// on an idle machine that is its wall time, and on a shared one it leaves out
// the time spent waiting for a CPU. Set-up is repeated and its median
// reported. --traced runs the workload twice, once
// bare and once with the boundary timers and the stack's tracer attached,
// insists that the simulated results are bit-identical, and reports the
// per-layer metrics of the traced pass.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "boundary.h"
#include "ftl/ager.h"
#include "samples.h"
#include "storage/sim_ssd.h"
#include "trace/tracer.h"
#include "workloads.h"

namespace xftl_bench {
namespace {

using xftl::SimNanos;
namespace fs = xftl::fs;
namespace sql = xftl::sql;
namespace storage = xftl::storage;
namespace trace = xftl::trace;

// OpenSSD profile (drain commit), 256 blocks of 128 8 KiB pages.
constexpr uint32_t kDeviceBlocks = 256;
// The loaded database and the device aging are the same in every run;
// --seed picks the transaction stream. The seed-to-seed spread, which sets
// the simulated metrics' bounds, then comes from the stream alone.
constexpr uint64_t kDataSeed = 0xda7a;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
// host_txn_per_s is the median over this many equal slices of the measured
// phase, so a burst of load from other processes on the host moves a few
// slices, not the result.
constexpr size_t kSlices = 20;
// Before the power cut: a WAL checkpoint and kFillTxns committed
// transactions, so every cut has the same amount of log in front of it (WAL:
// the frames of kFillTxns transactions).
constexpr int kFillTxns = 100;

// Host CPU time of this process, for the end-to-end host metrics. The
// boundary timers read the wall clock (WallNanos), which is cheaper per call.
uint64_t CpuNanos() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return uint64_t(ts.tv_sec) * 1000000000 + uint64_t(ts.tv_nsec);
}

struct Spec {
  std::string name;
  bool tpcc = false;      // TPC-C; otherwise the synthetic update workload
  bool xftl = true;       // X-FTL stack; otherwise the WAL baseline
  double gc_valid = 0.0;  // age the device to this GC-victim validity
  xftl::workload::TpccMix mix;
  uint32_t db_cache_pages = 0;
  uint32_t fs_cache_pages = 0;
  uint32_t warmup_txns = 0;
  // Measured transactions per --seconds: about one second of host time on
  // a 4-core x86 box, so a run measures roughly --seconds. A fixed count
  // keeps every simulated result a function of the seed alone.
  uint32_t txns_per_second = 0;
};

std::vector<Spec> Specs() {
  std::vector<Spec> specs(4);
  // The paper's headline cell: every commit is fsync -> TxCommit -> X-L2P
  // write. The database outgrows both caches (64 pager, 128 fs pages).
  specs[0] = {"tpcc-write", true, true, 0.0,
              xftl::workload::WriteIntensiveMix(), 64, 128, 500, 430};
  // Same stack and data; reads beside writes on the same layers.
  specs[1] = {"tpcc-read", true, true, 0.0,
              xftl::workload::ReadIntensiveMix(), 64, 128, 200, 150};
  // Aged device (70% GC-victim validity); ~5 MB of partsupp fits the
  // 2000-page pager cache, so GC and X-FTL commit dominate simulated time.
  specs[2] = {"update-xftl-aged", false, true, 0.7, {}, 2000, 512, 1000, 4700};
  // The WAL baseline on the same aged device: pager WAL + fs journal, plain
  // page FTL, never touches xftl.
  specs[3] = {"update-wal-aged", false, false, 0.7, {}, 2000, 512, 1000, 2250};
  return specs;
}

struct Stack {
  xftl::SimClock clock;
  std::unique_ptr<storage::SimSsd> ssd;
  std::unique_ptr<TimedDevice> timed;  // traced runs only
  std::unique_ptr<trace::Tracer> tracer;
  fs::FsOptions fs_options;
  sql::DbOptions db_options;
  std::unique_ptr<fs::ExtFs> fs;
  std::unique_ptr<sql::Database> db;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Sql> sql;
  uint32_t setup_db_pages = 0;

  storage::TxBlockDevice* device() {
    if (timed != nullptr) return timed.get();
    return ssd->device();
  }
};

constexpr const char* kDbPath = "bench.db";

xftl::StatusOr<std::unique_ptr<Stack>> SetUp(const Spec& spec, uint64_t seed,
                                             bool traced) {
  auto st = std::make_unique<Stack>();
  const double utilization =
      spec.gc_valid > 0 ? xftl::ftl::Ager::UtilizationForValidity(spec.gc_valid)
                        : 0.5;
  storage::SsdSpec ssd_spec = storage::OpenSsdSpec(kDeviceBlocks, utilization);
  ssd_spec.transactional = spec.xftl;
  st->ssd = std::make_unique<storage::SimSsd>(ssd_spec, &st->clock);
  if (spec.gc_valid > 0) {
    XFTL_RETURN_IF_ERROR(
        xftl::ftl::Ager::Age(st->ssd->ftl(), kDataSeed).status());
  }
  if (traced) {
    st->timed = std::make_unique<TimedDevice>(st->ssd->device(), &st->clock);
  }
  st->fs_options.journal_mode =
      spec.xftl ? fs::JournalMode::kOff : fs::JournalMode::kOrdered;
  st->fs_options.cache_pages = spec.fs_cache_pages;
  XFTL_RETURN_IF_ERROR(fs::ExtFs::Mkfs(st->device(), st->fs_options));
  XFTL_ASSIGN_OR_RETURN(
      st->fs, fs::ExtFs::Mount(st->device(), st->fs_options, &st->clock));
  st->db_options.journal_mode =
      spec.xftl ? sql::SqlJournalMode::kOff : sql::SqlJournalMode::kWal;
  st->db_options.cache_pages = spec.db_cache_pages;
  XFTL_ASSIGN_OR_RETURN(
      st->db, sql::Database::Open(st->fs.get(), kDbPath, st->db_options));
  if (spec.tpcc) {
    xftl::workload::TpccScale scale;
    scale.warehouses = 2;
    scale.items = 500;
    scale.seed = kDataSeed;
    st->workload = std::make_unique<TpccWorkload>(spec.mix, scale, seed);
  } else {
    st->workload = std::make_unique<UpdateWorkload>(kDataSeed, seed);
  }
  XFTL_RETURN_IF_ERROR(st->workload->Load(st->db.get(), &st->clock));
  st->sql = std::make_unique<Sql>(&st->clock, st->timed.get());
  st->sql->set_db(st->db.get());
  for (uint32_t i = 0; i < spec.warmup_txns; ++i) {
    XFTL_RETURN_IF_ERROR(st->workload->Txn(st->sql.get()));
  }
  st->setup_db_pages = st->db->pager()->page_count();
  return st;
}

// Public stats structs, read before and after the measured phase.
struct Counters {
  sql::PagerStats pager;
  fs::FsStats fs;
  fs::JournalStats journal;
  uint64_t fs_cache_steals = 0;
  storage::SataStats sata;
  xftl::ftl::XftlStats xftl;
  xftl::ftl::FtlStats ftl;
  xftl::flash::FlashStats flash;
};

Counters ReadCounters(Stack& st) {
  Counters c;
  c.pager = st.db->pager()->stats();
  c.fs = st.fs->stats();
  c.journal = st.fs->journal_stats();
  c.fs_cache_steals = st.fs->cache_steals();
  c.sata = st.ssd->device()->stats();
  if (st.ssd->xftl() != nullptr) c.xftl = st.ssd->xftl()->xstats();
  c.ftl = st.ssd->ftl()->stats();
  c.flash = st.ssd->flash()->stats();
  return c;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Power cut -> first committed transaction, and its parts.
struct Restart {
  SimNanos total = 0;
  SimNanos device = 0, mount = 0, db_open = 0, first_txn = 0;
  SimNanos xftl_recovery = 0;  // X-FTL's own share of `device`
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> latencies;  // sim ns per txn, sorted; failed = max
  SimNanos txn_sim_total = 0;       // summed txn latency, failures included
  SimNanos sim_ns = 0;              // measured phase, simulated
  uint64_t wall_ns = 0;             // measured phase, host wall clock
  uint64_t cpu_ns = 0;              // measured phase, host CPU time
  std::vector<uint64_t> slice_cpu_ns;  // CPU ns per kSlices-th of it
  uint64_t flash_programs = 0;
  Restart restart;
  std::vector<Metric> layers;       // traced runs only
};

Status Fail(const std::string& what) { return Status::Corruption(what); }

// One transaction of the closed loop. A failed transaction is rolled back and
// counted; a Corruption from the workload's own read checks ends the run.
Status RunTxn(Stack& st, RunResult* r) {
  const SimNanos t0 = st.clock.Now();
  Status s = st.workload->Txn(st.sql.get());
  if (s.code() == xftl::StatusCode::kCorruption) return s;
  if (!s.ok() && st.db->in_transaction()) (void)st.sql->Rollback();
  const SimNanos latency = st.clock.Now() - t0;
  r->attempted++;
  r->txn_sim_total += latency;
  if (!s.ok()) r->failed++;
  // A failed transaction misses every latency limit.
  r->latencies.push_back(s.ok() ? latency : UINT64_MAX);
  return Status::OK();
}

double Ms(uint64_t ns) { return double(ns) / 1e6; }

double SumMs(const xftl::Histogram& h) {
  return h.Mean() * double(h.count()) / 1e6;
}

// Per-layer p99s are reported over however many calls the layer saw; the
// call count sits beside each one.
double P99Us(std::vector<uint64_t> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return double(NearestRank(samples, 99)) / 1e3;
}

void LayerMetrics(Stack& st, const Counters& a, const Counters& b,
                  std::vector<Metric>* out) {
  auto add = [&](std::string name, double value, const char* unit) {
    out->push_back({std::move(name), value, unit});
  };
  auto timer = [&](const std::string& prefix, const Timer& t) {
    add(prefix + ".calls", double(t.calls), "count");
    add(prefix + ".sim_ms", Ms(t.sim_ns), "ms");
    add(prefix + ".wall_ms", Ms(t.wall_ns), "ms");
  };
  const Sql& q = *st.sql;
  timer("sql.exec", q.timer(Sql::kExec));
  timer("sql.commit", q.timer(Sql::kCommit));
  add("sql.commit.sim_p99_us", P99Us(q.timer(Sql::kCommit).sim_samples), "us");
  const TimedDevice& dev = *st.timed;
  for (int c = 0; c < TimedDevice::kNumCmds; ++c) {
    timer(std::string("storage.") + TimedDevice::kCmdNames[c], dev.timer(c));
  }
  add("storage.commit.sim_p99_us",
      P99Us(dev.timer(TimedDevice::kCommit).sim_samples), "us");
  add("storage.flush.sim_p99_us",
      P99Us(dev.timer(TimedDevice::kFlush).sim_samples), "us");
  add("storage.batch.pages", double(dev.batch_pages()), "count");
  add("sql_fs.self_sim_ms", Ms(q.self_sim_ns()), "ms");
  add("sql_fs.self_wall_ms", Ms(q.self_wall_ns()), "ms");

  auto count = [&](const char* name, uint64_t after, uint64_t before) {
    add(name, double(after - before), "count");
  };
  count("sql.pager.page_reads", b.pager.page_reads, a.pager.page_reads);
  count("sql.pager.db_page_writes", b.pager.db_page_writes,
        a.pager.db_page_writes);
  count("sql.pager.journal_page_writes", b.pager.journal_page_writes,
        a.pager.journal_page_writes);
  count("sql.pager.checkpoints", b.pager.checkpoints, a.pager.checkpoints);
  count("sql.pager.cache_steals", b.pager.cache_steals, a.pager.cache_steals);
  count("sql.pager.wal_index_hits", b.pager.wal_index_hits,
        a.pager.wal_index_hits);
  count("fs.fsync_calls", b.fs.fsync_calls, a.fs.fsync_calls);
  count("fs.data_page_writes", b.fs.data_page_writes, a.fs.data_page_writes);
  count("fs.metadata_page_writes", b.fs.metadata_page_writes,
        a.fs.metadata_page_writes);
  count("fs.journal_commits", b.journal.commits, a.journal.commits);
  count("fs.cache_steals", b.fs_cache_steals, a.fs_cache_steals);
  count("storage.queue_full_stalls", b.sata.queue_full_stalls,
        a.sata.queue_full_stalls);
  count("storage.queued_commands", b.sata.queued_commands,
        a.sata.queued_commands);
  count("xftl.commits", b.xftl.commits, a.xftl.commits);
  count("xftl.empty_commits", b.xftl.empty_commits, a.xftl.empty_commits);
  count("xftl.xl2p_snapshot_pages", b.xftl.xl2p_snapshot_pages,
        a.xftl.xl2p_snapshot_pages);
  count("xftl.forced_checkpoints", b.xftl.forced_checkpoints,
        a.xftl.forced_checkpoints);
  const xftl::ftl::FtlStats ftl = b.ftl.Delta(a.ftl);
  count("ftl.host_page_writes", ftl.host_page_writes, 0);
  count("ftl.host_page_reads", ftl.host_page_reads, 0);
  count("ftl.gc_runs", ftl.gc_runs, 0);
  count("ftl.gc_copyback_writes", ftl.gc_copyback_writes, 0);
  add("ftl.gc_valid_ratio",
      ftl.MeanGcValidRatio(st.ssd->flash()->config().pages_per_block),
      "ratio");
  count("ftl.meta_page_writes", ftl.meta_page_writes, 0);
  count("ftl.block_erases", ftl.block_erases, 0);
  count("ftl.flush_barriers", ftl.flush_barriers, 0);
  add("ftl.write_amp",
      ftl.host_page_writes == 0
          ? 0.0
          : double(ftl.TotalPageWrites()) / double(ftl.host_page_writes),
      "ratio");
  count("flash.page_programs", b.flash.page_programs, a.flash.page_programs);
  count("flash.page_reads", b.flash.page_reads, a.flash.page_reads);
  count("flash.block_erases", b.flash.block_erases, a.flash.block_erases);
  count("flash.programs_stalled_for_bank", b.flash.programs_stalled_for_bank,
        a.flash.programs_stalled_for_bank);
  count("flash.programs_stalled_for_order", b.flash.programs_stalled_for_order,
        a.flash.programs_stalled_for_order);
  count("setup.db_pages", st.setup_db_pages, 0);

  // The stack's own tracer, attached for the measured phase only: leaf
  // times the benchmark cannot see from outside. Program latency runs from
  // issue to retire, so it includes queueing on the bank and channel.
  const trace::Tracer& t = *st.tracer;
  add("ftl.gc.sim_ms", SumMs(t.latency(trace::Layer::kFtl, trace::Op::kGc)),
      "ms");
  add("flash.program.busy_ms",
      SumMs(t.latency(trace::Layer::kFlash, trace::Op::kWrite)), "ms");
  add("flash.read.busy_ms",
      SumMs(t.latency(trace::Layer::kFlash, trace::Op::kRead)), "ms");
  add("flash.erase.busy_ms",
      SumMs(t.latency(trace::Layer::kFlash, trace::Op::kErase)), "ms");
}

void AttachTracer(Stack& st, trace::Tracer* tracer) {
  st.ssd->SetTracer(tracer);
  st.fs->set_tracer(tracer);
  st.db->pager()->set_tracer(tracer);
}

Status MeasuredPhase(Stack& st, uint64_t txns, bool traced, RunResult* r) {
  if (traced) {
    st.tracer = std::make_unique<trace::Tracer>();
    AttachTracer(st, st.tracer.get());
    st.timed->Reset();
    st.sql->Reset();
  }
  const Counters before = ReadCounters(st);
  const SimNanos sim0 = st.clock.Now();
  const uint64_t wall0 = WallNanos();
  const uint64_t cpu0 = CpuNanos();
  const uint64_t slice = txns / kSlices;  // txns >= 1000
  uint64_t slice_start = cpu0;
  for (uint64_t i = 1; i <= txns; ++i) {
    XFTL_RETURN_IF_ERROR(RunTxn(st, r));
    if (i % slice == 0 && i / slice <= kSlices) {
      const uint64_t now = CpuNanos();
      r->slice_cpu_ns.push_back(now - slice_start);
      slice_start = now;
    }
  }
  r->cpu_ns = CpuNanos() - cpu0;
  r->wall_ns = WallNanos() - wall0;
  r->sim_ns = st.clock.Now() - sim0;
  const Counters after = ReadCounters(st);
  r->flash_programs = after.flash.page_programs - before.flash.page_programs;
  std::sort(r->latencies.begin(), r->latencies.end());
  if (!traced) return Status::OK();

  AttachTracer(st, nullptr);
  // Parts sum to the whole: every simulated nanosecond of the loop is inside
  // a transaction, every transaction is made of sql calls, and all storage
  // time is nested in them.
  if (r->txn_sim_total != r->sim_ns) {
    return Fail("summed txn latency != measured simulated time");
  }
  if (st.sql->self_sim_ns() + st.timed->sim_ns() != r->txn_sim_total) {
    return Fail("sql_fs self time + storage time != summed txn latency");
  }
  LayerMetrics(st, before, after, &r->layers);
  r->layers.push_back({"trace.residual_wall_ms",
                       Ms(r->wall_ns - st.sql->wall_ns()), "ms"});
  return Status::OK();
}

// The drive flush barrier (its mapping checkpoint) before the in-flight
// transaction is there because without it a committed page can be lost at
// the cut when garbage collection moved its previous copy while the page's
// transaction was open (see README, "Known bug"). Once the FTL is fixed the
// flush goes, and restart_ms and the restart split get a new baseline.
Status CrashRestart(Stack& st, RunResult* r) {
  XFTL_RETURN_IF_ERROR(st.db->Checkpoint());
  for (int i = 0; i < kFillTxns; ++i) {
    XFTL_RETURN_IF_ERROR(st.workload->Txn(st.sql.get()));
  }
  XFTL_RETURN_IF_ERROR(st.device()->FlushBarrier());
  XFTL_RETURN_IF_ERROR(st.workload->InFlight(st.sql.get()));
  // Power cut: the process dies with its transaction open, the host's
  // caches vanish, and the drive loses whatever had not reached the cells.
  st.db->Abandon();
  st.db.reset();
  st.fs.reset();
  Restart& rs = r->restart;
  const SimNanos cut = st.clock.Now();
  SimNanos t = cut;
  auto lap = [&] {
    const SimNanos now = st.clock.Now();
    const SimNanos d = now - t;
    t = now;
    return d;
  };
  XFTL_RETURN_IF_ERROR(st.ssd->PowerCycle());
  rs.device = lap();
  if (st.ssd->xftl() != nullptr) {
    rs.xftl_recovery = st.ssd->xftl()->xstats().last_recovery_nanos;
  }
  XFTL_ASSIGN_OR_RETURN(
      st.fs, fs::ExtFs::Mount(st.device(), st.fs_options, &st.clock));
  rs.mount = lap();
  XFTL_ASSIGN_OR_RETURN(
      st.db, sql::Database::Open(st.fs.get(), kDbPath, st.db_options));
  st.sql->set_db(st.db.get());
  rs.db_open = lap();
  XFTL_RETURN_IF_ERROR(st.workload->WriteTxn(st.sql.get()));
  rs.first_txn = lap();
  rs.total = st.clock.Now() - cut;
  return st.workload->Verify(st.sql.get());
}

Status Run(Stack& st, uint64_t txns, bool traced, RunResult* r) {
  XFTL_RETURN_IF_ERROR(MeasuredPhase(st, txns, traced, r));
  XFTL_RETURN_IF_ERROR(CrashRestart(st, r));
  if (!traced) return Status::OK();
  // The four restart parts are consecutive laps of one clock, so they sum to
  // restart_ms by construction; X-FTL's own recovery time must fit in the
  // device part.
  const Restart& rs = r->restart;
  if (rs.xftl_recovery > rs.device) {
    return Fail("xftl recovery time exceeds the device restart");
  }
  r->layers.push_back({"restart.device_ms", Ms(rs.device), "ms"});
  r->layers.push_back({"restart.mount_ms", Ms(rs.mount), "ms"});
  r->layers.push_back({"restart.db_open_ms", Ms(rs.db_open), "ms"});
  r->layers.push_back({"restart.first_txn_ms", Ms(rs.first_txn), "ms"});
  r->layers.push_back({"xftl.recovery_ms", Ms(rs.xftl_recovery), "ms"});
  return Status::OK();
}

std::vector<Metric> EndToEnd(const RunResult& r, double setup_s) {
  const std::vector<uint64_t>& lat = r.latencies;
  const uint64_t committed = r.attempted - r.failed;
  std::vector<uint64_t> slices = r.slice_cpu_ns;
  std::sort(slices.begin(), slices.end());
  const uint64_t median_slice = NearestRank(slices, 50);
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"txn_per_s", double(committed) / (double(r.sim_ns) / 1e9), "txn/s"},
      {"txn_iqm_ms", InterquartileMean(lat) / 1e6, "ms"},
      {"txn_tail_ms", Ms(TailValue(lat)), "ms"},
      {"flash_writes_per_txn", double(r.flash_programs) / double(committed),
       "pages/txn"},
      {"restart_ms", Ms(r.restart.total), "ms"},
      {"host_txn_per_s",
       double(r.attempted / kSlices) / (double(median_slice) / 1e9),
       "txn/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", double(usage.ru_maxrss) / 1024.0, "MiB"},
      // Reported beside the bounded metrics: the exact median and p99 (the
      // run refuses to start with too few samples for a p99) and the
      // percentile txn_tail_ms stands for.
      {"txn_p50_ms", Ms(NearestRank(lat, 50)), "ms"},
      {"txn_p99_ms", Ms(NearestRank(lat, 99)), "ms"},
      {"txn_tail_pct", TailPercent(lat.size()), "%"},
  };
}

bool SameSimulation(const RunResult& a, const RunResult& b) {
  return a.latencies == b.latencies && a.sim_ns == b.sim_ns &&
         a.flash_programs == b.flash_programs &&
         a.restart.total == b.restart.total;
}

void PrintJson(const Spec& spec, uint64_t seed, uint32_t seconds, bool traced,
               const RunResult& r, const std::vector<Metric>& metrics) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %u, "
              "\"traced\": %s, \"correct\": true, \"attempted\": %llu, "
              "\"failed\": %llu, \"metrics\": {",
              spec.name.c_str(), (unsigned long long)seed, seconds,
              traced ? "true" : "false", (unsigned long long)r.attempted,
              (unsigned long long)r.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int Usage(const std::vector<Spec>& specs) {
  std::fprintf(stderr,
               "usage: xftl_bench --workload=NAME --seed=N [--seconds=S] "
               "[--traced]\nworkloads:");
  for (const Spec& s : specs) std::fprintf(stderr, " %s", s.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  const std::vector<Spec> specs = Specs();
  using xftl::bench::FlagBool;
  using xftl::bench::FlagString;
  const std::string name = FlagString(argc, argv, "workload", "");
  uint64_t seed = 0;
  uint32_t seconds = 0;
  try {
    seed = std::stoull(FlagString(argc, argv, "seed", "1"));
    seconds = uint32_t(std::stoul(FlagString(argc, argv, "seconds", "10")));
  } catch (const std::exception&) {
    return Usage(specs);
  }
  const bool traced = FlagBool(argc, argv, "traced");
  auto it = std::find_if(specs.begin(), specs.end(),
                         [&](const Spec& s) { return s.name == name; });
  if (it == specs.end() || seconds == 0 || seconds > 3600) return Usage(specs);
  const Spec& spec = *it;
  const uint64_t txns = uint64_t(spec.txns_per_second) * seconds;
  if (txns < MinSamplesFor(99)) {
    std::fprintf(stderr,
                 "xftl_bench: %llu transactions cannot support a p99; raise "
                 "--seconds\n",
                 (unsigned long long)txns);
    return 2;
  }

  auto fail = [](const char* phase, const Status& s) {
    std::fprintf(stderr, "xftl_bench: %s failed: %s\n", phase,
                 s.ToString().c_str());
    return 1;
  };

  // Untraced: several set-ups (the median is setup_s); measure on the last.
  // Traced: one bare pass and one traced pass from identical set-ups.
  std::vector<double> setup_s;
  RunResult bare;
  {
    std::unique_ptr<Stack> st;
    for (int k = 0; k < (traced ? 1 : kSetups); ++k) {
      st.reset();
      const uint64_t cpu0 = CpuNanos();
      auto built = SetUp(spec, seed, /*traced=*/false);
      if (!built.ok()) return fail("set-up", built.status());
      setup_s.push_back(double(CpuNanos() - cpu0) / 1e9);
      st = std::move(built).value();
    }
    Status s = Run(*st, txns, /*traced=*/false, &bare);
    if (!s.ok()) return fail("run", s);
  }
  if (!traced) {
    std::sort(setup_s.begin(), setup_s.end());
    PrintJson(spec, seed, seconds, false, bare,
              EndToEnd(bare, setup_s[setup_s.size() / 2]));
    return 0;
  }

  RunResult traced_run;
  {
    auto built = SetUp(spec, seed, /*traced=*/true);
    if (!built.ok()) return fail("traced set-up", built.status());
    Status s = Run(*built.value(), txns, /*traced=*/true, &traced_run);
    if (!s.ok()) return fail("traced run", s);
  }
  if (!SameSimulation(bare, traced_run)) {
    return fail("trace determinism",
                Fail("the traced run's simulated results differ from the "
                     "untraced run's"));
  }
  traced_run.layers.push_back(
      {"trace.overhead_pct",
       (double(traced_run.cpu_ns) / double(bare.cpu_ns) - 1.0) * 100.0,
       "%"});
  PrintJson(spec, seed, seconds, true, traced_run, traced_run.layers);
  return 0;
}

}  // namespace
}  // namespace xftl_bench

int main(int argc, char** argv) { return xftl_bench::Main(argc, argv); }
