// Session: one host connection — its own database, its own open-transaction
// context, its own arrival process and latency accounting. Sessions are
// passive: they know how to run ONE application transaction and how to
// sample the inter-arrival gap to the next one; the SessionScheduler
// (scheduler.h) decides when each runs and how their device time overlaps.
//
// The transaction shape mirrors tests/crash_sweep_test.cc so the same ACID
// verification applies after an array power cut: transaction t inserts
// `rows_per_txn` related rows with ids rows_per_txn*(t-1)+1 .. rows_per_txn*t,
// a = id * 7, b = "v<id>". Each session writes its OWN database file, so
// sessions are isolated by construction at the SQL layer and interleave only
// on the shared device array below.
#ifndef XFTL_HOST_SESSION_H_
#define XFTL_HOST_SESSION_H_

#include <memory>
#include <string>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "sql/database.h"

namespace xftl::host {

struct SessionConfig {
  // Session id, >= 1 (0 means "untagged" throughout the trace subsystem).
  uint32_t id = 1;
  // Transactions this session will dispatch in total.
  uint64_t txns = 100;
  // Rows inserted per transaction (3 = the crash-sweep shape).
  uint32_t rows_per_txn = 3;
  // Wrap the inserts in BEGIN/COMMIT (3 statements of parse/plan CPU) or
  // run a bare auto-committing statement stream (throughput benches).
  bool explicit_txn = true;
  // Arrival model. Open loop: a Poisson process at `rate_per_sec`,
  // independent of completions — queueing delay shows up in latency.
  // Closed loop: the next transaction arrives `think_time` after the
  // previous one completed.
  bool open_loop = true;
  double rate_per_sec = 100.0;
  SimNanos think_time = 0;
  // Seed for this session's arrival sampling (combine with id for fleets).
  uint64_t seed = 1;
  // After a failed transaction, roll the connection back (best effort) so
  // the next dispatch starts clean — degraded-array runs where failures are
  // expected and the session keeps going (scheduler continue-on-error).
  bool rollback_on_error = false;
  // Read-only session: each dispatch runs BEGIN READONLY, scans the whole
  // table, verifies the snapshot (integrity a = id*7, whole transactions
  // only, prefix ids, row count never shrinking across dispatches), and
  // COMMITs. The session's db must be a connection onto ANOTHER session's
  // database file — the writer it reads behind. Init() is a no-op (the
  // writer owns the schema), and committed() counts clean read transactions.
  bool read_only = false;
};

class Session {
 public:
  // `db` is not owned; the caller (harness / test / bench) keeps it alive
  // and handles crash-abandon + reopen.
  Session(const SessionConfig& config, sql::Database* db);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Creates the session's table. Call once after the database is opened
  // (idempotence is not needed: each session owns its file).
  Status Init();

  // Runs the next application transaction to completion (the scheduler's
  // dispatch unit). Advances the shared clock through the whole stack.
  // On success the transaction was acknowledged committed.
  Status RunTxn();

  // Samples the gap from this arrival to the next (exponential under open
  // loop, think_time under closed loop). Deterministic per seed.
  SimNanos NextInterarrival();

  // Called by the scheduler with the arrival->completion span.
  void NoteLatency(SimNanos latency) { latency_.Add(latency); }

  const SessionConfig& config() const { return config_; }
  uint32_t id() const { return config_.id; }
  bool Done() const { return dispatched_ >= config_.txns; }
  uint64_t dispatched() const { return dispatched_; }
  // Transactions acknowledged committed (<= dispatched; the difference is a
  // dispatch that died mid-flight, e.g. at a power cut).
  uint64_t committed() const { return committed_; }
  const Histogram& latency() const { return latency_; }

  sql::Database* db() { return db_; }

  // Post-recovery ACID check, crash-sweep style, against a REOPENED
  // database: integrity (a = id*7, b = "v<id>"), atomicity (whole
  // transactions only), prefix ordering, and durability (>= `acked`
  // transactions survive; pass the session's committed() from before the
  // cut). Returns the number of surviving transactions.
  static StatusOr<uint64_t> VerifyRecovered(sql::Database* db,
                                            uint32_t rows_per_txn,
                                            uint64_t acked);

 private:
  // One read-only dispatch: BEGIN READONLY + full-scan + verify + COMMIT.
  Status RunReadTxn();
  const SessionConfig config_;
  sql::Database* db_;
  Rng rng_;
  uint64_t dispatched_ = 0;
  uint64_t committed_ = 0;
  // Rows the last successful read-only dispatch saw; a later snapshot that
  // sees fewer went backwards.
  uint64_t rows_seen_ = 0;
  Histogram latency_;
};

}  // namespace xftl::host

#endif  // XFTL_HOST_SESSION_H_
