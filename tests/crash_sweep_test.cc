// Crash-consistency sweep: arm a power failure at the K-th flash program
// for many values of K, run a transactional SQL workload until the failure
// hits, power-cycle the whole stack, and verify the ACID invariants:
//
//   * atomicity - every transaction is all-or-nothing (each inserts three
//     related rows; either all three or none survive);
//   * durability - transactions acknowledged as committed survive, except
//     that rollback-journal mode may lose the very last acknowledged
//     transaction (the journal unlink is its commit point and its metadata
//     may not be durable yet - true of real SQLite on ext4 too);
//   * prefix ordering - the surviving transactions form a prefix of the
//     acknowledged ones;
//   * integrity - all surviving rows carry self-consistent values.
//
// This is the closest thing to a model checker the simulated stack has, and
// it exercises arbitrary interleavings of torn pages with journal writes,
// WAL frames, X-L2P snapshots, checkpoints and GC.
//
// Two suites share one body:
//   * Points — the original deterministic crash points (a cut at program
//     K that keeps every buffered program), still pinned so regressions
//     bisect.
//   * Randomized — seeded CrashPlans: crash point, per-program survival of
//     the volatile write buffer and the torn-sector count are all drawn from
//     the seed, turning the sweep into a randomized model checker that is
//     still deterministic per seed. XFTL_SWEEP_SEEDS overrides the seed
//     count per configuration (scripts/check.sh --sweep-seeds=N).
//
// Every PowerCycle() additionally runs the offline invariant checker
// (xftl_fsck) against the recovered state, so each crash point is also an
// fsck test case.
//
// Double-crash rows (`_dc`) keep committing after the first recovery until a
// second seeded CrashPlan fires, power-cycle again and re-check everything
// over both lives. They reach the state a checkpoint-bounded boot adds: a
// second cut before any new root, so the third boot scans from the first
// boot's checkpoint over blocks that boot resumed and the second life filled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/counters.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "sql/btree_check.h"
#include "sql/database.h"
#include "storage/sim_ssd.h"

namespace xftl::sql {
namespace {

storage::SsdSpec SweepSpec(bool transactional) {
  storage::SsdSpec spec = storage::OpenSsdSpec(64, 0.6);
  spec.flash.page_size = 1024;
  spec.flash.pages_per_block = 16;
  spec.flash.num_blocks = 256;
  spec.ftl.meta_blocks = 6;
  spec.ftl.min_free_blocks = 4;
  spec.ftl.num_logical_pages = 2600;
  spec.xftl.xl2p_capacity = 180;
  spec.transactional = transactional;
  return spec;
}

struct SweepParam {
  SqlJournalMode mode;
  uint64_t crash_after_programs;
  // File-system journal mode under the journaled SQL modes (kOff SQL always
  // runs with the fs journal off; the paper's X-FTL configuration).
  fs::JournalMode fs_mode = fs::JournalMode::kOrdered;
  // NAND status-failure injection composed with the power failure: every
  // N-th program/erase reports a status failure (0 = clean media). ACID must
  // hold across the combination — grown bad blocks, relocations and the
  // power cut interleave arbitrarily.
  uint64_t program_fail_every = 0;
  uint64_t erase_fail_every = 0;
  // FTL under test: the transactional X-FTL or the plain page-mapping FTL.
  bool transactional = true;
  // Seeds the CrashPlan (buffer survival and the torn page's sector
  // boundary). A seed of 0 is a deterministic row: every buffered program
  // persists, whatever persist_prob says.
  uint64_t seed = 0;
  double persist_prob = 0.5;
  // Compose probabilistic SATA link faults (CRC retransfers, NCQ timeouts,
  // spurious aborts with queue-abort recovery) with the power cut, so the
  // cut can land with NCQ tags in flight and REDO reissues mid-recovery.
  bool link_faults = false;
  // Firmware commit discipline. kBarrier replaces every commit-path drain
  // with an order-preserving barrier: the cut can then land between a
  // barrier and its commit verb with whole acknowledged epochs still
  // buffered. Atomicity, prefix ordering and integrity must STILL hold
  // (epoch-prefix durability) — only the "acked implies durable" lower
  // bound is relaxed.
  ftl::CommitMode commit_mode = ftl::CommitMode::kDrain;
  // Keep an MVCC reader pinned from just after schema creation until the
  // power cut. Pins are volatile: recovery must discard them cleanly (the
  // stale epoch is rejected, not mis-served) and must never resurrect a
  // snapshot-only pre-image into the live state.
  bool pinned_reader = false;
  // Pull the plug between transactions (after crash_after_programs-many
  // commits) instead of arming a mid-program failure. kPlp needs this: an
  // armed failure latches the flash dead, so the capacitor's emergency
  // checkpoint — the only durability kPlp commits have — can never run.
  bool clean_cut = false;
  // After the first recovery, arm a second seeded CrashPlan (drawn from
  // `seed`), keep committing until it fires and recover again. Under kPlp
  // the second life's commits are not durable at that cut (see clean_cut);
  // everything the first recovery kept still must be.
  bool double_crash = false;
};

// What one sweep row observed.
struct CrashOutcome {
  bool crashed = true;  // false: the failure point lies beyond the workload
  // Double-crash rows: no new root reached flash before the second cut,
  // and the second life wrote into blocks the first recovery resumed.
  bool before_new_root = false;
};

// Commits transactions first, first+1, ..., last until one fails. Each
// inserts three related rows: ids 3t-2..3t, a = id * 7, b = "v<id>".
// Sets `acked` to the last acknowledged transaction (first - 1 if none) and
// returns the failure that stopped the loop (OK if every one committed).
Status CommitUntilFailure(Database* db, int64_t first, int64_t last,
                          int64_t* acked) {
  *acked = first - 1;
  for (int64_t txn = first; txn <= last; ++txn) {
    std::string sql = "BEGIN;";
    for (int64_t r = 3 * txn - 2; r <= 3 * txn; ++r) {
      sql += " INSERT INTO t VALUES (" + std::to_string(r) + ", " +
             std::to_string(r * 7) + ", 'v" + std::to_string(r) + "');";
    }
    sql += " COMMIT;";
    Status s = db->Exec(sql).status();
    if (!s.ok()) return s;
    *acked = txn;
  }
  return Status::OK();
}

// A loop run toward an armed cut must stop at the cut. While the flash is
// still alive the only acceptable failure is ResourceExhausted: the
// NAND-fault rows may run out of good blocks or meta space first.
void ExpectStoppedByCut(const Status& stop, const flash::FlashDevice& dev) {
  if (stop.ok() || dev.HasFailed()) return;
  EXPECT_EQ(stop.code(), StatusCode::kResourceExhausted)
      << "a transaction failed before the armed cut: " << stop.ToString();
}

// Integrity, per-transaction atomicity and prefix ordering of table t, plus
// every B-tree and the file system. Sets `survived` to the number of
// transactions found.
void CheckDatabase(Database* db, fs::ExtFs* fs, int64_t* survived) {
  auto rows = db->Exec("SELECT id, a, b FROM t ORDER BY id");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::set<int64_t> ids;
  for (const Row& row : rows->rows) {
    int64_t id = row[0].AsInt();
    EXPECT_EQ(row[1].AsInt(), id * 7) << "integrity violated for id " << id;
    EXPECT_EQ(row[2].AsText(), "v" + std::to_string(id));
    ids.insert(id);
  }
  ASSERT_EQ(ids.size() % 3, 0u) << "a transaction was torn";
  *survived = int64_t(ids.size()) / 3;
  for (int64_t txn = 1; txn <= *survived; ++txn) {
    for (int64_t r = 3 * txn - 2; r <= 3 * txn; ++r) {
      EXPECT_TRUE(ids.count(r)) << "non-prefix survival at txn " << txn;
    }
  }
  auto tree_report = CheckAllTrees(db->pager());
  ASSERT_TRUE(tree_report.ok()) << tree_report.status().ToString();
  EXPECT_EQ(tree_report->cells % 1, 0u);  // report populated
  auto fsck = fs->Fsck();
  ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
}

void RunCrashPoint(const SweepParam& param, CrashOutcome* out) {
  SimClock clock;
  storage::SsdSpec spec = SweepSpec(param.transactional);
  if (param.link_faults) {
    // Low rates: recovery fires regularly across the workload but retries
    // never exhaust, so the link-level machinery adds interleavings without
    // adding legitimate data loss.
    spec.link_fault.crc_error_prob = 0.005;
    spec.link_fault.timeout_prob = 0.002;
    spec.link_fault.abort_prob = 0.001;
    spec.link_fault.seed = param.seed ^ 0x11ec0debull;
  }
  spec.ftl.commit_mode = param.commit_mode;
  storage::SimSsd ssd(spec, &clock);
  fs::FsOptions fs_opt;
  fs_opt.journal_mode = param.mode == SqlJournalMode::kOff
                            ? fs::JournalMode::kOff
                            : param.fs_mode;
  ASSERT_TRUE(fs::ExtFs::Mkfs(ssd.device(), fs_opt).ok());
  auto fs = std::move(fs::ExtFs::Mount(ssd.device(), fs_opt, &clock)).value();
  DbOptions db_opt;
  db_opt.journal_mode = param.mode;
  db_opt.cache_pages = 16;  // small: forces steals mid-transaction
  auto db = std::move(Database::Open(fs.get(), "sweep.db", db_opt)).value();
  ASSERT_TRUE(
      db->Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, a INT, b TEXT)")
          .ok());

  // Arm the failure, then run transactions until it fires. Scripted NAND
  // status failures (if any) stay active through the crash, the recovery and
  // the post-recovery verification.
  ssd.flash()->ScriptProgramFailEvery(param.program_fail_every);
  ssd.flash()->ScriptEraseFailEvery(param.erase_fail_every);
  if (param.clean_cut) {
    // No armed failure: the cut lands between transactions, below.
  } else {
    flash::CrashPlan plan;
    plan.crash_after_programs = param.crash_after_programs;
    plan.seed = param.seed;
    plan.persist_prob = param.seed != 0 ? param.persist_prob : 1.0;
    ssd.flash()->ArmCrashPlan(plan);
  }
  // A pinned reader alive at the cut point: pin the post-schema snapshot at
  // the device and hold it across the crash. The snapshot read must keep
  // serving the pinned state while the writer churns toward the cut.
  uint64_t pin_epoch = 0;
  std::vector<uint8_t> pinned_page0(spec.flash.page_size);
  if (param.pinned_reader) {
    auto pin = ssd.device()->SnapPin();
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    pin_epoch = pin.value();
    ASSERT_TRUE(ssd.device()->Read(0, pinned_page0.data()).ok());
    std::vector<uint8_t> via_snap(spec.flash.page_size);
    ASSERT_TRUE(
        ssd.device()->SnapRead(pin_epoch, 0, via_snap.data()).ok());
    EXPECT_EQ(via_snap, pinned_page0);
  }

  // Long enough that every armed point fires even in the leanest mode
  // (kOff + fdatasync writes the fewest pages per transaction). A clean cut
  // reuses crash_after_programs as the transaction count instead.
  const int64_t kMaxTxns =
      param.clean_cut ? int64_t(param.crash_after_programs) : 400;
  int64_t acked = 0;
  const Status stop = CommitUntilFailure(db.get(), 1, kMaxTxns, &acked);
  if (!param.clean_cut) {
    ExpectStoppedByCut(stop, *ssd.flash());
    if (acked == kMaxTxns) {
      out->crashed = false;  // failure point beyond this workload
      return;
    }
  }

  // Power-cycles and recovers the entire stack (the cut drops the volatile
  // program buffer per the armed plan; the reboot recovers, then fsck-checks
  // the result), runs `at_cut` on the powered-off flash, notes the root the
  // drive booted from and each block's write pointer, and reopens.
  const flash::FlashDevice& dev = *ssd.flash();
  const flash::FlashConfig& fc = dev.config();
  uint64_t booted_root = 0;
  std::vector<uint32_t> booted_wp(fc.num_blocks);
  std::vector<uint64_t> booted_erases(fc.num_blocks);
  auto power_cycle = [&](const std::function<void()>& at_cut) {
    db->Abandon();
    db.reset();
    fs.reset();
    const size_t inflight_at_cut = ssd.device()->InflightCommands();
    const storage::SataStats sata_before = ssd.device()->stats();
    ssd.CutPower();
    at_cut();
    Status cycled = ssd.Reboot();
    ASSERT_TRUE(cycled.ok()) << cycled.ToString();
    booted_root = ssd.ftl()->last_root_seq();
    for (flash::BlockNum b = 0; b < fc.num_blocks; ++b) {
      booted_wp[b] = dev.NextProgramPage(b);
      booted_erases[b] = dev.EraseCount(b);
    }
    // Drop accounting: the cut discards exactly the unacknowledged suffix —
    // every NCQ tag in flight at power-off, no more, no less.
    const storage::SataStats dropped =
        CounterDelta(ssd.device()->stats(), sata_before);
    EXPECT_EQ(dropped.dropped_on_power_cut, inflight_at_cut);
    EXPECT_GE(dropped.dropped_pages_on_power_cut, inflight_at_cut);
    EXPECT_EQ(ssd.device()->InflightCommands(), 0u);
    fs = std::move(fs::ExtFs::Mount(ssd.device(), fs_opt, &clock)).value();
    db = std::move(Database::Open(fs.get(), "sweep.db", db_opt)).value();
  };
  power_cycle([] {});
  if (::testing::Test::HasFatalFailure()) return;

  if (param.pinned_reader) {
    // Pins are volatile: recovery discards them (count drops to zero), the
    // stale epoch is rejected rather than mis-served, and unpinning the
    // dead token stays a clean no-op.
    EXPECT_EQ(ssd.xftl()->PinnedSnapshotCount(), 0u);
    std::vector<uint8_t> buf(spec.flash.page_size);
    Status stale = ssd.device()->SnapRead(pin_epoch, 0, buf.data());
    EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition)
        << stale.ToString();
    EXPECT_TRUE(ssd.device()->SnapUnpin(pin_epoch).ok());
    // No snapshot-only pre-image was resurrected into the live state: a
    // fresh pin sees exactly what live reads see, page for page.
    auto repin = ssd.device()->SnapPin();
    ASSERT_TRUE(repin.ok()) << repin.status().ToString();
    for (uint64_t lpn : {uint64_t{0}, uint64_t{1}, uint64_t{7},
                         uint64_t{42}}) {
      std::vector<uint8_t> live(spec.flash.page_size);
      std::vector<uint8_t> snap(spec.flash.page_size);
      ASSERT_TRUE(ssd.device()->Read(lpn, live.data()).ok());
      ASSERT_TRUE(
          ssd.device()->SnapRead(repin.value(), lpn, snap.data()).ok());
      EXPECT_EQ(snap, live) << "lpn " << lpn;
    }
    EXPECT_TRUE(ssd.device()->SnapUnpin(repin.value()).ok());
  }

  int64_t survived = 0;
  CheckDatabase(db.get(), fs.get(), &survived);
  if (::testing::Test::HasFatalFailure()) return;
  // Durability: everything acknowledged must survive, modulo the
  // rollback-journal mode's last-transaction window. Barrier commits trade
  // exactly this bound away — the cut may drop an acknowledged suffix of
  // epochs wholesale — while atomicity, prefix ordering and integrity above
  // still held unconditionally.
  const int64_t tolerance = param.mode == SqlJournalMode::kDelete ? 1 : 0;
  if (param.commit_mode != ftl::CommitMode::kBarrier) {
    EXPECT_GE(survived, acked - tolerance)
        << "acknowledged transactions lost (acked " << acked << ")";
  }
  EXPECT_LE(survived, acked + 1) << "unacknowledged transaction surfaced";

  if (param.double_crash) {
    // Second life: ids continue after the survivors; a second seeded plan
    // cuts power again, usually within the first few commits.
    const uint64_t armed_root = ssd.ftl()->last_root_seq();
    // Half the rows cut within the first commit's first programs: with a
    // flush per commit (drain, kPlp; rollback journal or WAL) that is the
    // only window before the second life writes a new root.
    Rng rng(param.seed ^ 0xdc2dc2dc2dc2dc2dull);
    flash::CrashPlan plan;
    plan.crash_after_programs =
        1 + (rng.Uniform(2) == 0 ? rng.Uniform(3) : rng.Uniform(120));
    plan.seed = rng.Next();
    plan.persist_prob = param.persist_prob;
    ssd.flash()->ArmCrashPlan(plan);
    int64_t acked2 = 0;
    const Status stop2 =
        CommitUntilFailure(db.get(), survived + 1, survived + 400, &acked2);
    ASSERT_LT(acked2, survived + 400) << "second failure point never hit";
    ExpectStoppedByCut(stop2, dev);

    // Only an open block the first boot resumed can gain pages without
    // being erased first; mount and open count as the second life too.
    bool wrote_resumed = false;
    power_cycle([&] {
      for (flash::BlockNum b = 0; b < fc.num_blocks; ++b) {
        wrote_resumed |= booted_wp[b] > 0 &&
                         booted_wp[b] < fc.pages_per_block &&
                         dev.EraseCount(b) == booted_erases[b] &&
                         dev.NextProgramPage(b) > booted_wp[b];
      }
    });
    if (::testing::Test::HasFatalFailure()) return;
    out->before_new_root = wrote_resumed && booted_root == armed_root;

    const int64_t survived_first = survived;
    CheckDatabase(db.get(), fs.get(), &survived);
    if (::testing::Test::HasFatalFailure()) return;
    // What the first recovery found was durable on flash already; the
    // second life's acknowledged commits obey the same bounds as the
    // first's, except that kPlp's are not durable at an armed cut.
    EXPECT_GE(survived, survived_first)
        << "a transaction the first recovery kept was lost";
    if (param.commit_mode == ftl::CommitMode::kDrain) {
      EXPECT_GE(survived, acked2 - tolerance)
          << "acknowledged transactions lost (acked " << acked2 << ")";
    }
    EXPECT_LE(survived, acked2 + 1) << "unacknowledged transaction surfaced";
  }

  // And the database keeps working — except that under composed NAND
  // failures the media may legitimately have degraded to read-only, in which
  // case the only acceptable outcome is a clean ResourceExhausted (reads,
  // including everything verified above, still work).
  Status ins =
      db->Exec("INSERT INTO t VALUES (100000, 700000, 'v100000')").status();
  if (!ins.ok()) {
    EXPECT_EQ(ins.code(), StatusCode::kResourceExhausted) << ins.ToString();
    EXPECT_TRUE(ssd.ftl()->read_only());
  }
}

class CrashSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CrashSweepTest, AcidInvariantsHold) {
  CrashOutcome out;
  RunCrashPoint(GetParam(), &out);
  if (!out.crashed) GTEST_SKIP() << "failure point beyond this workload";
}

std::vector<SweepParam> SweepPoints() {
  std::vector<SweepParam> points;
  for (SqlJournalMode mode : {SqlJournalMode::kDelete, SqlJournalMode::kWal,
                              SqlJournalMode::kOff}) {
    for (uint64_t k : {23ull, 57ull, 101ull, 187ull, 266ull, 341ull, 512ull,
                       700ull, 903ull, 1337ull}) {
      points.push_back({mode, k});
    }
  }
  // Data journaling (ext "full") under the journaled SQL modes.
  for (SqlJournalMode mode : {SqlJournalMode::kDelete, SqlJournalMode::kWal}) {
    for (uint64_t k : {57ull, 266ull, 700ull}) {
      points.push_back({mode, k, fs::JournalMode::kFull});
    }
  }
  // Power failure composed with NAND status failures: the media grows bad
  // blocks (with retirement relocations in flight) right up to the cut. The
  // rates are chosen so the device degrades but does not exhaust its spares
  // within the workload.
  for (SqlJournalMode mode : {SqlJournalMode::kDelete, SqlJournalMode::kWal,
                              SqlJournalMode::kOff}) {
    for (uint64_t k : {101ull, 512ull, 903ull}) {
      points.push_back({mode, k, fs::JournalMode::kOrdered,
                        /*program_fail_every=*/61, /*erase_fail_every=*/9});
    }
  }
  // All of it at once: full data journaling + faulty media + power cut.
  for (SqlJournalMode mode : {SqlJournalMode::kDelete, SqlJournalMode::kWal}) {
    points.push_back({mode, 341ull, fs::JournalMode::kFull,
                      /*program_fail_every=*/61, /*erase_fail_every=*/9});
  }
  // SATA link faults composed with the power cut: the cut lands with queue
  // recovery, backoff retransfers and REDO reissues interleaved arbitrarily.
  for (SqlJournalMode mode : {SqlJournalMode::kDelete, SqlJournalMode::kWal,
                              SqlJournalMode::kOff}) {
    for (uint64_t k : {57ull, 341ull, 903ull}) {
      SweepParam p{mode, k};
      p.link_faults = true;
      points.push_back(p);
    }
  }
  // Barrier firmware: a dense crash-point set so cuts land in every window
  // of the ordered commit — mid-write, between the barrier and the commit
  // verb, and mid-snapshot with earlier acknowledged epochs still buffered.
  for (SqlJournalMode mode : {SqlJournalMode::kDelete, SqlJournalMode::kWal,
                              SqlJournalMode::kOff}) {
    for (uint64_t k : {23ull, 57ull, 101ull, 187ull, 266ull, 341ull, 512ull,
                       700ull, 903ull, 1337ull}) {
      SweepParam p{mode, k};
      p.commit_mode = ftl::CommitMode::kBarrier;
      points.push_back(p);
    }
  }
  // Barrier firmware composed with SATA link faults: a link reset rebuilds
  // the NCQ queue while epoch state persists below it.
  for (SqlJournalMode mode : {SqlJournalMode::kDelete, SqlJournalMode::kWal,
                              SqlJournalMode::kOff}) {
    for (uint64_t k : {57ull, 341ull, 903ull}) {
      SweepParam p{mode, k};
      p.commit_mode = ftl::CommitMode::kBarrier;
      p.link_faults = true;
      points.push_back(p);
    }
  }
  // An MVCC reader pinned and alive at the cut point, across every journal
  // mode and every firmware commit discipline. Crash points stay early so
  // the retained pre-images (bounded by distinct pages written after the
  // pin) fit the X-L2P table alongside the active transaction.
  for (SqlJournalMode mode : {SqlJournalMode::kDelete, SqlJournalMode::kWal,
                              SqlJournalMode::kOff}) {
    for (ftl::CommitMode cm : {ftl::CommitMode::kDrain,
                               ftl::CommitMode::kBarrier,
                               ftl::CommitMode::kPlp}) {
      // kPlp commits are durable only through the capacitor's emergency
      // checkpoint, which an armed mid-program failure (dead flash) can
      // never take — those rows pull the plug cleanly between transactions
      // instead (the count reuses the crash_after_programs field).
      const bool clean = cm == ftl::CommitMode::kPlp;
      const std::vector<uint64_t> ks = clean
                                           ? std::vector<uint64_t>{25, 60}
                                           : std::vector<uint64_t>{41, 101};
      for (uint64_t k : ks) {
        SweepParam p{mode, k};
        p.commit_mode = cm;
        p.pinned_reader = true;
        p.clean_cut = clean;
        points.push_back(p);
      }
    }
  }
  return points;
}

INSTANTIATE_TEST_SUITE_P(
    Points, CrashSweepTest, ::testing::ValuesIn(SweepPoints()),
    [](const auto& info) {
      std::string name = std::string(SqlJournalModeName(info.param.mode));
      if (info.param.fs_mode == fs::JournalMode::kFull &&
          info.param.mode != SqlJournalMode::kOff) {
        name += "_fsfull";
      }
      name += "_k" + std::to_string(info.param.crash_after_programs);
      if (info.param.program_fail_every != 0 ||
          info.param.erase_fail_every != 0) {
        name += "_faulty";
      }
      if (info.param.link_faults) name += "_lf";
      if (info.param.commit_mode == ftl::CommitMode::kBarrier) name += "_bar";
      if (info.param.commit_mode == ftl::CommitMode::kPlp) name += "_plp";
      if (info.param.pinned_reader) name += "_pin";
      return name;
    });

// ---------------------------------------------------------------------------
// Randomized model checking: per-seed CrashPlans over every journal mode ×
// FTL profile. The page-mapping FTL cannot run SQL's kOff mode (it needs the
// device transaction commands), so that cell is absent.
// ---------------------------------------------------------------------------

int SweepSeedsPerConfig() {
  if (const char* env = std::getenv("XFTL_SWEEP_SEEDS")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

std::vector<SweepParam> RandomizedPoints() {
  struct Config {
    bool transactional;
    SqlJournalMode mode;
    ftl::CommitMode commit = ftl::CommitMode::kDrain;
  };
  const Config configs[] = {
      {true, SqlJournalMode::kDelete},
      {true, SqlJournalMode::kWal},
      {true, SqlJournalMode::kOff},
      {false, SqlJournalMode::kDelete},
      {false, SqlJournalMode::kWal},
      // Barrier firmware under the randomized checker: the seeded buffer
      // sampling composes with epoch-prefix forced drops (CrashNow pass 2).
      {true, SqlJournalMode::kDelete, ftl::CommitMode::kBarrier},
      {true, SqlJournalMode::kWal, ftl::CommitMode::kBarrier},
      {true, SqlJournalMode::kOff, ftl::CommitMode::kBarrier},
  };
  const double kPersistProbs[] = {0.25, 0.5, 0.75};
  const int per_config = SweepSeedsPerConfig();
  std::vector<SweepParam> points;
  for (const Config& cfg : configs) {
    for (int i = 0; i < per_config; ++i) {
      // The seed pins everything: the crash point and persist probability
      // are drawn from it here, the buffer-survival and tear sampling from
      // it inside the device. Reproduce any failure from its test name.
      uint64_t seed = (uint64_t(cfg.transactional) << 62) ^
                      (uint64_t(cfg.mode) << 56) ^
                      (uint64_t(cfg.commit) << 50) ^
                      ((uint64_t(i) + 1) * 0x9e3779b97f4a7c15ull);
      Rng rng(seed);
      SweepParam p;
      p.mode = cfg.mode;
      p.transactional = cfg.transactional;
      p.commit_mode = cfg.commit;
      p.seed = seed;
      p.crash_after_programs = 20 + rng.Uniform(900);
      p.persist_prob = kPersistProbs[rng.Uniform(3)];
      // A third of the seeds also run under probabilistic link faults, so
      // the randomized checker explores power cuts landing mid-recovery.
      p.link_faults = (i % 3) == 0;
      points.push_back(p);
    }
  }
  return points;
}

class RandomCrashSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RandomCrashSweepTest, AcidInvariantsHold) {
  CrashOutcome out;
  RunCrashPoint(GetParam(), &out);
  if (!out.crashed) GTEST_SKIP() << "failure point beyond this workload";
}

std::string SeededName(const SweepParam& p, bool with_seed = true) {
  std::string name = p.transactional ? "xftl" : "pageftl";
  name += "_" + std::string(SqlJournalModeName(p.mode));
  if (with_seed) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(p.seed));
    name += "_s";
    name += hex;
  }
  if (p.link_faults) name += "_lf";
  if (p.commit_mode == ftl::CommitMode::kBarrier) name += "_bar";
  if (p.commit_mode == ftl::CommitMode::kPlp) name += "_plp";
  if (p.double_crash) name += "_dc";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, RandomCrashSweepTest, ::testing::ValuesIn(RandomizedPoints()),
    [](const auto& info) { return SeededName(info.param); });

// ---------------------------------------------------------------------------
// Double crash: every journal mode x FTL profile x commit discipline (drain,
// barrier, kPlp with a clean first cut), a tenth of XFTL_SWEEP_SEEDS seeds
// per configuration.
// ---------------------------------------------------------------------------

std::vector<SweepParam> DoubleCrashPoints() {
  const int per_config = std::max(1, SweepSeedsPerConfig() / 10);
  std::vector<SweepParam> points;
  for (bool transactional : {true, false}) {
    for (SqlJournalMode mode : {SqlJournalMode::kDelete, SqlJournalMode::kWal,
                                SqlJournalMode::kOff}) {
      if (!transactional && mode == SqlJournalMode::kOff) continue;
      for (ftl::CommitMode cm : {ftl::CommitMode::kDrain,
                                 ftl::CommitMode::kBarrier,
                                 ftl::CommitMode::kPlp}) {
        for (int i = 0; i < per_config; ++i) {
          uint64_t seed = (uint64_t(transactional) << 62) ^
                          (uint64_t(mode) << 56) ^ (uint64_t(cm) << 50) ^
                          ((uint64_t(i) + 1) * 0xd1b54a32d192ed03ull);
          Rng rng(seed);
          SweepParam p;
          p.mode = mode;
          p.transactional = transactional;
          p.commit_mode = cm;
          p.seed = seed;
          p.double_crash = true;
          // kPlp's first cut is a clean plug-pull after that many commits.
          p.clean_cut = cm == ftl::CommitMode::kPlp;
          p.crash_after_programs =
              p.clean_cut ? 5 + rng.Uniform(60) : 20 + rng.Uniform(900);
          p.persist_prob = 0.25 + 0.25 * double(rng.Uniform(3));
          points.push_back(p);
        }
      }
    }
  }
  return points;
}

INSTANTIATE_TEST_SUITE_P(
    DoubleCrash, RandomCrashSweepTest,
    ::testing::ValuesIn(DoubleCrashPoints()),
    [](const auto& info) { return SeededName(info.param); });

// The second cut must land before any new root in every configuration: the
// state where the third boot loads the root the second life started from
// and must scan the blocks the first boot resumed, which the second life
// wrote into. Re-runs every double-crash row and counts.
TEST(DoubleCrashCoverageTest, SecondCutLandsBeforeANewRootInEveryConfig) {
  std::map<std::string, int> landed;
  for (const SweepParam& p : DoubleCrashPoints()) {
    const std::string name = SeededName(p, /*with_seed=*/false);
    CrashOutcome out;
    RunCrashPoint(p, &out);
    ASSERT_FALSE(HasFailure()) << SeededName(p);
    landed[name] += out.before_new_root ? 1 : 0;
  }
  for (const auto& [config, n] : landed) {
    std::printf("%-40s %d rows cut before a new root\n", config.c_str(), n);
    EXPECT_GT(n, 0) << config;
  }
}

}  // namespace
}  // namespace xftl::sql
