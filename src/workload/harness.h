// Benchmark harness: assembles the full stack (flash -> FTL/X-FTL -> SATA ->
// ext-like FS -> MiniSQLite) for one experimental configuration, mirroring
// the paper's three setups:
//
//   RBJ   SQLite rollback-journal mode on ext4 (ordered) on the original FTL
//   WAL   SQLite write-ahead-log mode  on ext4 (ordered) on the original FTL
//   X-FTL SQLite journaling off        on ext4 (off)     on X-FTL
//
// plus optional device aging to a target GC valid-page ratio (Figure 5's
// 30/50/70% knob), and a stats snapshot covering every column of Table 1.
#ifndef XFTL_WORKLOAD_HARNESS_H_
#define XFTL_WORKLOAD_HARNESS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "flash/flash_config.h"
#include "fs/ext_fs.h"
#include "ftl/ftl_stats.h"
#include "host/volume.h"
#include "sql/database.h"
#include "storage/sim_ssd.h"
#include "trace/trace_file.h"
#include "trace/tracer.h"

namespace xftl::workload {

// The three end-to-end configurations the paper compares.
enum class Setup { kRbj, kWal, kXftl };
const char* SetupName(Setup setup);

struct HarnessConfig {
  Setup setup = Setup::kXftl;
  // Device geometry (defaults to the OpenSSD profile; utilization is
  // overridden by `gc_valid_target` when aging is requested).
  uint32_t device_blocks = 256;
  // Age the device so GC victims carry ~this fraction of valid pages
  // (0 disables aging and uses a moderate default utilization).
  double gc_valid_target = 0.0;
  // Use the S830 profile instead of OpenSSD (Figure 9).
  bool s830 = false;
  uint32_t fs_cache_pages = 512;
  // SQLite's default page-cache is ~2000 pages; the paper ran stock SQLite.
  uint32_t db_cache_pages = 2000;
  uint64_t seed = 42;
  // NAND failure injection for the measured device (program/erase status
  // failures + wear-driven bit errors); zeroed = perfect media.
  flash::FaultModel fault;
  // Transient SATA link faults; zeroed = perfect link. Composes with `fault`.
  storage::LinkFaultModel link_fault;
  // Volatile program-buffer depth; 0 keeps the device profile's default.
  // Depth 1 is effectively write-through (every program drains before the
  // next), isolating what the buffer saves at flush barriers.
  uint32_t write_buffer_pages = 0;
  // Firmware commit discipline override; empty keeps the device profile's
  // default (OpenSSD: drain, S830: PLP).
  std::optional<ftl::CommitMode> commit_mode;
  // Device array: >1 builds a host::StripedVolume of identical members
  // instead of a single drive. 1 keeps the exact legacy single-device path
  // (no stripe rounding of the logical space, so seeded single-device
  // results are bit-identical to before the volume layer existed).
  uint32_t num_devices = 1;
  uint32_t stripe_pages = 64;
  // Cross-device two-phase commit on the striped volume; false restores the
  // unsafe serial fan-out (the bench/ablation_array_faults baseline).
  bool two_phase_commit = true;
  // Host CPU-time model override for the databases this harness opens;
  // 0 keeps the library default (sql::DbOptions). Multi-session throughput
  // benches lower it: the default is calibrated to the paper's 2009-era
  // single-core host.
  SimNanos cpu_per_statement = 0;
};

// Everything Table 1 reports, for one measured interval.
struct IoSnapshot {
  // Host side.
  uint64_t sqlite_db_writes = 0;       // pages written to database files
  uint64_t sqlite_journal_writes = 0;  // pages written to journal/WAL files
  uint64_t fs_meta_writes = 0;         // file-system metadata + journal
  uint64_t fsync_calls = 0;
  // Device side, summed over the array's members. Table 1's FTL columns are
  // ftl.TotalPageWrites() (GC copy-backs and mapping pages included),
  // ftl.host_page_reads, ftl.gc_runs and ftl.block_erases.
  ftl::FtlStats ftl;
  storage::SataStats sata;
  flash::FlashStats flash;
  // Time.
  SimNanos elapsed = 0;
};

// Multi-session mode: N concurrent connections, each on its own database
// file, interleaved by a host::SessionScheduler over the (possibly striped)
// device array.
struct MultiSessionConfig {
  uint32_t sessions = 4;
  uint64_t txns_per_session = 100;
  // Arrival model shared by all sessions (per-session rate).
  bool open_loop = true;
  double rate_per_sec = 500.0;
  SimNanos think_time = 0;
  // Transaction shape (see host::SessionConfig).
  uint32_t rows_per_txn = 1;
  bool explicit_txn = false;
  // Degraded-array mode: keep scheduling past dispatch failures (each one
  // counted in MultiSessionResult::failed, sessions rolled back and kept
  // going) instead of aborting the run on the first error.
  bool continue_on_error = false;
  // Mid-run member kill: after `kill_after_txns` dispatches, cut power on
  // member `kill_member` and keep running degraded (requires a striped
  // volume and usually continue_on_error). -1 = never.
  int32_t kill_member = -1;
  uint64_t kill_after_txns = 0;
  // Readers-vs-writer mode: this many read-only sessions (ids after the
  // writers) open their own connections onto session 1's database file and
  // run BEGIN READONLY + full-scan + snapshot-verify per dispatch, while
  // the writer sessions keep committing. Requires sessions >= 1.
  uint32_t readers = 0;
  uint64_t txns_per_reader = 0;       // 0 = txns_per_session
  double reader_rate_per_sec = 0.0;   // 0 = rate_per_sec
};

struct SessionReport {
  uint32_t id = 0;
  bool read_only = false;
  uint64_t dispatched = 0;
  uint64_t committed = 0;
  SimNanos busy = 0;    // host-busy share of this session's dispatches
  SimNanos waited = 0;  // device-wait share
  SimNanos done = 0;    // completion time of this session's LAST dispatch,
                        // relative to run start (per-session throughput =
                        // committed / done, exact even when other sessions
                        // keep running afterwards)
  Histogram latency;    // arrival -> completion, per transaction
};

struct MultiSessionResult {
  // OK for a complete run; the first dispatch error otherwise (armed power
  // cut, dead media, ...) with per-session progress up to that instant
  // intact — crash tests read committed() per session from here.
  Status run_status;
  SimNanos makespan = 0;  // array-wide completion time of the run
  uint64_t dispatched = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;  // dispatches that errored (continue_on_error runs)
  double txns_per_sec = 0.0;  // committed / makespan
  std::vector<SessionReport> sessions;
};

class Harness {
 public:
  explicit Harness(const HarnessConfig& config);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  // Builds the stack: device array (+aging), mkfs, mount. Call once.
  Status Setup();

  // Opens (or reopens) a database file on the mounted file system with the
  // configured journal mode.
  StatusOr<sql::Database*> OpenDatabase(const std::string& name);
  // Opens an ADDITIONAL read-only connection onto `name` (which must exist —
  // usually another connection's live database). Each call returns a fresh
  // connection; they are registered under "<name>@r<k>" for CloseDatabase.
  StatusOr<sql::Database*> OpenReaderConnection(const std::string& name);
  Status CloseDatabase(const std::string& name);

  // Simulated crash: databases and file system are torn down, the device
  // power-cycles and recovers, and the file system remounts. Databases must
  // be reopened (their open runs host-side recovery).
  Status CrashAndRecover();

  // Per-member crash: only member `m` of the striped volume power-cycles
  // (the other fault domains stay up and keep their state); host state is
  // torn down and remounted like CrashAndRecover, and the volume resolves
  // the member's in-doubt transactions against the coordinator's commit
  // records during its reboot. Requires num_devices > 1.
  Status CrashMemberAndRecover(uint32_t m);

  // Runs `config.sessions` concurrent connections to completion on fresh
  // per-session databases ("s<k>.db"), scheduled by a
  // host::SessionScheduler. Requires Setup(); composes with EnableTracing()
  // (per-session kHost/kTxn events land in the trace). The returned Status
  // covers stack assembly only; a mid-run dispatch failure lands in
  // MultiSessionResult::run_status with progress intact.
  StatusOr<MultiSessionResult> RunMultiSession(const MultiSessionConfig& mc);

  // Measured GC validity achieved by aging (0 when aging was disabled).
  double aged_validity() const { return aged_validity_; }

  SimClock* clock() { return &clock_; }
  fs::ExtFs* fs() { return fs_.get(); }
  // The i-th array member (i < num_devices). With num_devices == 1 the
  // single legacy drive is member 0.
  storage::SimSsd* ssd(uint32_t i = 0) const;
  uint32_t num_devices() const { return config_.num_devices; }
  // Null unless num_devices > 1.
  host::StripedVolume* volume() { return volume_.get(); }
  // The device the file system is mounted on: the single drive's SATA
  // front-end or the striped volume.
  storage::TxBlockDevice* device();
  sql::SqlJournalMode sql_mode() const;

  // Marks the start of a measured interval / produces its Table-1 row.
  void StartMeasurement();
  IoSnapshot Snapshot() const;

  // Starts event capture: every layer of the stack (pager, fs, SATA, X-FTL,
  // FTL, flash) records into one Tracer. With a non-empty `path` the events
  // also stream to a binary trace file whose kSata records a TraceReplayer
  // can re-drive; an empty path keeps in-memory histograms only. Call after
  // Setup(); databases opened later are wired automatically.
  Status EnableTracing(const std::string& path);
  // Seals and closes the trace file (no-op without a file sink).
  Status FinishTracing();
  // Null until EnableTracing().
  trace::Tracer* tracer() { return tracer_.get(); }

 private:
  // Every counter of the stack as it stands now, `elapsed` = the clock.
  IoSnapshot Collect() const;
  void WireTracer();
  // The file-system options of this setup (mkfs and every mount).
  fs::FsOptions MountOptions() const;
  // Opens `name` with this setup's database options and registers the
  // connection under `key`.
  StatusOr<sql::Database*> OpenConnection(const std::string& name,
                                          std::string key, bool read_only);
  // The crash verbs' shared body: drops host state without the polite
  // shutdown path, runs `power_cycle` on the devices, then remounts.
  Status CrashAndRemount(const std::function<Status()>& power_cycle);

  const HarnessConfig config_;
  SimClock clock_;
  std::unique_ptr<storage::SimSsd> ssd_;          // num_devices == 1
  std::unique_ptr<host::StripedVolume> volume_;   // num_devices > 1
  std::unique_ptr<fs::ExtFs> fs_;
  std::vector<std::pair<std::string, std::unique_ptr<sql::Database>>> dbs_;
  double aged_validity_ = 0.0;
  std::unique_ptr<trace::TraceWriter> trace_writer_;
  std::unique_ptr<trace::Tracer> tracer_;
  IoSnapshot baseline_;  // Collect() at StartMeasurement()
};

}  // namespace xftl::workload

#endif  // XFTL_WORKLOAD_HARNESS_H_
