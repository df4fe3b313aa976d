#include "workload/harness.h"

#include "common/counters.h"
#include "ftl/ager.h"
#include "host/scheduler.h"
#include "host/session.h"

namespace xftl::workload {

const char* SetupName(Setup setup) {
  switch (setup) {
    case Setup::kRbj:
      return "RBJ";
    case Setup::kWal:
      return "WAL";
    case Setup::kXftl:
      return "X-FTL";
  }
  return "?";
}

Harness::Harness(const HarnessConfig& config) : config_(config) {}
Harness::~Harness() = default;

sql::SqlJournalMode Harness::sql_mode() const {
  switch (config_.setup) {
    case Setup::kRbj:
      return sql::SqlJournalMode::kDelete;
    case Setup::kWal:
      return sql::SqlJournalMode::kWal;
    case Setup::kXftl:
      return sql::SqlJournalMode::kOff;
  }
  return sql::SqlJournalMode::kDelete;
}

Status Harness::Setup() {
  double utilization = 0.5;
  if (config_.gc_valid_target > 0) {
    utilization = ftl::Ager::UtilizationForValidity(config_.gc_valid_target);
  }
  storage::SsdSpec spec = config_.s830
                              ? storage::S830Spec(config_.device_blocks, utilization)
                              : storage::OpenSsdSpec(config_.device_blocks, utilization);
  // X-FTL only for the X-FTL setup; the others run the original FTL.
  spec.transactional = config_.setup == Setup::kXftl;
  spec.flash.fault = config_.fault;
  spec.link_fault = config_.link_fault;
  if (config_.write_buffer_pages > 0) {
    spec.flash.write_buffer_pages = config_.write_buffer_pages;
  }
  if (config_.commit_mode) spec.ftl.commit_mode = *config_.commit_mode;
  if (config_.num_devices > 1) {
    host::VolumeConfig vc;
    vc.num_devices = config_.num_devices;
    vc.stripe_pages = config_.stripe_pages;
    vc.two_phase_commit = config_.two_phase_commit;
    vc.spec = spec;
    volume_ = std::make_unique<host::StripedVolume>(vc, &clock_);
    if (config_.gc_valid_target > 0) {
      double sum = 0;
      for (uint32_t i = 0; i < config_.num_devices; ++i) {
        XFTL_ASSIGN_OR_RETURN(
            double v,
            ftl::Ager::Age(volume_->member(i)->ftl(), config_.seed + i));
        sum += v;
      }
      aged_validity_ = sum / config_.num_devices;
    }
  } else {
    ssd_ = std::make_unique<storage::SimSsd>(spec, &clock_);
    if (config_.gc_valid_target > 0) {
      XFTL_ASSIGN_OR_RETURN(aged_validity_,
                            ftl::Ager::Age(ssd_->ftl(), config_.seed));
    }
  }

  const fs::FsOptions fs_opt = MountOptions();
  XFTL_RETURN_IF_ERROR(fs::ExtFs::Mkfs(device(), fs_opt));
  XFTL_ASSIGN_OR_RETURN(fs_, fs::ExtFs::Mount(device(), fs_opt, &clock_));
  return Status::OK();
}

fs::FsOptions Harness::MountOptions() const {
  fs::FsOptions opt;
  opt.journal_mode = config_.setup == Setup::kXftl ? fs::JournalMode::kOff
                                                   : fs::JournalMode::kOrdered;
  opt.cache_pages = config_.fs_cache_pages;
  return opt;
}

storage::SimSsd* Harness::ssd(uint32_t i) const {
  if (volume_ != nullptr) return volume_->member(i);
  CHECK_EQ(i, 0u);
  return ssd_.get();
}

storage::TxBlockDevice* Harness::device() {
  if (volume_ != nullptr) return volume_.get();
  return ssd_ == nullptr ? nullptr : ssd_->device();
}

StatusOr<sql::Database*> Harness::OpenDatabase(const std::string& name) {
  for (auto& [db_name, db] : dbs_) {
    if (db_name == name && db != nullptr) return db.get();
  }
  return OpenConnection(name, name, /*read_only=*/false);
}

StatusOr<sql::Database*> Harness::OpenReaderConnection(
    const std::string& name) {
  return OpenConnection(name, name + "@r" + std::to_string(dbs_.size()),
                        /*read_only=*/true);
}

StatusOr<sql::Database*> Harness::OpenConnection(const std::string& name,
                                                 std::string key,
                                                 bool read_only) {
  sql::DbOptions opt;
  opt.journal_mode = sql_mode();
  opt.cache_pages = config_.db_cache_pages;
  opt.read_only = read_only;
  if (config_.cpu_per_statement > 0) {
    opt.cpu_per_statement = config_.cpu_per_statement;
  }
  XFTL_ASSIGN_OR_RETURN(auto db, sql::Database::Open(fs_.get(), name, opt));
  if (tracer_ != nullptr) db->pager()->set_tracer(tracer_.get());
  dbs_.emplace_back(std::move(key), std::move(db));
  return dbs_.back().second.get();
}

Status Harness::CloseDatabase(const std::string& name) {
  for (auto it = dbs_.begin(); it != dbs_.end(); ++it) {
    if (it->first == name) {
      XFTL_RETURN_IF_ERROR(it->second->Close());
      dbs_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("database " + name);
}

Status Harness::CrashAndRecover() {
  // One rail: the striped volume cuts every member at the same simulated
  // instant before any member starts recovering.
  return CrashAndRemount([this] {
    return volume_ != nullptr ? volume_->PowerCycle() : ssd_->PowerCycle();
  });
}

Status Harness::CrashMemberAndRecover(uint32_t m) {
  if (volume_ == nullptr) {
    return Status::FailedPrecondition("member crash needs a striped volume");
  }
  // Host state is torn down exactly like a whole-array crash — the dead
  // member took shared file-system stripes with it, so every connection's
  // view is suspect until the remount re-reads from the recovered array.
  return CrashAndRemount([this, m] { return volume_->PowerCycleMember(m); });
}

Status Harness::CrashAndRemount(const std::function<Status()>& power_cycle) {
  // Drop host state without rolling anything back: a real crash does not
  // get to run the polite shutdown path.
  for (auto& [name, db] : dbs_) {
    if (db != nullptr) db->Abandon();
  }
  dbs_.clear();
  fs_.reset();
  XFTL_RETURN_IF_ERROR(power_cycle());
  XFTL_ASSIGN_OR_RETURN(fs_,
                        fs::ExtFs::Mount(device(), MountOptions(), &clock_));
  WireTracer();
  return Status::OK();
}

Status Harness::EnableTracing(const std::string& path) {
  if (ssd_ == nullptr && volume_ == nullptr) {
    return Status::FailedPrecondition("EnableTracing before Setup");
  }
  if (!path.empty()) {
    XFTL_ASSIGN_OR_RETURN(trace_writer_, trace::TraceWriter::Open(path));
  }
  tracer_ = std::make_unique<trace::Tracer>(trace_writer_.get());
  WireTracer();
  return Status::OK();
}

Status Harness::FinishTracing() {
  if (trace_writer_ == nullptr) return Status::OK();
  Status s = trace_writer_->Close();
  trace_writer_.reset();
  if (tracer_ != nullptr) tracer_->set_sink(nullptr);
  return s;
}

void Harness::WireTracer() {
  if (tracer_ == nullptr) return;
  if (volume_ != nullptr) {
    volume_->SetTracer(tracer_.get());
  } else {
    ssd_->SetTracer(tracer_.get());
  }
  if (fs_ != nullptr) fs_->set_tracer(tracer_.get());
  for (auto& [name, db] : dbs_) {
    if (db != nullptr) db->pager()->set_tracer(tracer_.get());
  }
}

IoSnapshot Harness::Collect() const {
  IoSnapshot c;
  for (const auto& [name, db] : dbs_) {
    if (db == nullptr) continue;
    const auto& ps = db->pager()->stats();
    c.sqlite_db_writes += ps.db_page_writes;
    c.sqlite_journal_writes += ps.journal_page_writes;
  }
  const auto& fstats = fs_->stats();
  c.fs_meta_writes = fstats.TotalMetadataWrites(fs_->journal_stats());
  c.fsync_calls = fstats.fsync_calls;
  // Array-wide view: counters summed over every member.
  for (uint32_t i = 0; i < num_devices(); ++i) {
    storage::SimSsd* m = ssd(i);
    AddCounters(&c.ftl, m->ftl()->stats());
    AddCounters(&c.sata, m->device()->stats());
    AddCounters(&c.flash, m->flash()->stats());
  }
  c.elapsed = clock_.Now();
  return c;
}

StatusOr<MultiSessionResult> Harness::RunMultiSession(
    const MultiSessionConfig& mc) {
  if (fs_ == nullptr) {
    return Status::FailedPrecondition("RunMultiSession before Setup");
  }
  if (mc.sessions == 0) {
    return Status::InvalidArgument("need at least one session");
  }

  std::vector<std::unique_ptr<host::Session>> sessions;
  std::vector<host::Session*> raw;
  sessions.reserve(mc.sessions);
  for (uint32_t k = 1; k <= mc.sessions; ++k) {
    XFTL_ASSIGN_OR_RETURN(sql::Database * db,
                          OpenDatabase("s" + std::to_string(k) + ".db"));
    host::SessionConfig sc;
    sc.id = k;
    sc.txns = mc.txns_per_session;
    sc.rows_per_txn = mc.rows_per_txn;
    sc.explicit_txn = mc.explicit_txn;
    sc.open_loop = mc.open_loop;
    sc.rate_per_sec = mc.rate_per_sec;
    sc.think_time = mc.think_time;
    sc.seed = config_.seed;
    sc.rollback_on_error = mc.continue_on_error;
    auto s = std::make_unique<host::Session>(sc, db);
    XFTL_RETURN_IF_ERROR(s->Init());
    raw.push_back(s.get());
    sessions.push_back(std::move(s));
  }
  // Read-only sessions: fresh connections onto session 1's database, opened
  // AFTER the writers so the schema exists.
  for (uint32_t k = 1; k <= mc.readers; ++k) {
    XFTL_ASSIGN_OR_RETURN(sql::Database * db, OpenReaderConnection("s1.db"));
    host::SessionConfig sc;
    sc.id = mc.sessions + k;
    sc.txns = mc.txns_per_reader > 0 ? mc.txns_per_reader : mc.txns_per_session;
    sc.rows_per_txn = mc.rows_per_txn;
    sc.open_loop = mc.open_loop;
    sc.rate_per_sec =
        mc.reader_rate_per_sec > 0 ? mc.reader_rate_per_sec : mc.rate_per_sec;
    sc.think_time = mc.think_time;
    sc.seed = config_.seed;
    sc.read_only = true;
    auto s = std::make_unique<host::Session>(sc, db);
    XFTL_RETURN_IF_ERROR(s->Init());
    raw.push_back(s.get());
    sessions.push_back(std::move(s));
  }

  const SimNanos start = clock_.Now();
  MultiSessionResult result;
  {
    host::SessionScheduler sched(&clock_, raw, tracer_.get());
    sched.set_continue_on_error(mc.continue_on_error);
    if (mc.kill_member >= 0 && volume_ != nullptr) {
      // Run up to the kill point, then pull one member's plug and keep
      // scheduling degraded: survivors' stripes stay live, dispatches that
      // touch the dead member fail and are counted.
      auto steps = sched.RunSteps(mc.kill_after_txns);
      if (!steps.ok()) {
        result.run_status = steps.status();
      } else {
        volume_->CutPowerMember(uint32_t(mc.kill_member));
        result.run_status = sched.Run();
      }
    } else {
      result.run_status = sched.Run();
    }
    result.makespan = sched.makespan() - start;
    result.dispatched = sched.dispatched();
    result.failed = sched.failed();
    for (size_t i = 0; i < raw.size(); ++i) {
      const host::SessionProgress& p = sched.progress()[i];
      SessionReport r;
      r.id = raw[i]->id();
      r.read_only = raw[i]->config().read_only;
      r.dispatched = raw[i]->dispatched();
      r.committed = raw[i]->committed();
      r.busy = p.busy;
      r.waited = p.waited;
      r.done = p.prev_done > start ? p.prev_done - start : 0;
      r.latency = raw[i]->latency();
      result.committed += r.committed;
      result.sessions.push_back(r);
    }
  }
  if (result.makespan > 0) {
    result.txns_per_sec =
        double(result.committed) / NanosToSeconds(result.makespan);
  }
  return result;
}

void Harness::StartMeasurement() { baseline_ = Collect(); }

IoSnapshot Harness::Snapshot() const {
  const IoSnapshot now = Collect();
  IoSnapshot s;
  s.sqlite_db_writes = now.sqlite_db_writes - baseline_.sqlite_db_writes;
  s.sqlite_journal_writes =
      now.sqlite_journal_writes - baseline_.sqlite_journal_writes;
  s.fs_meta_writes = now.fs_meta_writes - baseline_.fs_meta_writes;
  s.fsync_calls = now.fsync_calls - baseline_.fsync_calls;
  s.ftl = CounterDelta(now.ftl, baseline_.ftl);
  s.sata = CounterDelta(now.sata, baseline_.sata);
  s.flash = CounterDelta(now.flash, baseline_.flash);
  s.elapsed = now.elapsed - baseline_.elapsed;
  return s;
}

}  // namespace xftl::workload
