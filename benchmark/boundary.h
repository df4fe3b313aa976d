// The two layer boundaries the benchmark owns, timed on both clocks.
//
//   Sql          wraps every call the benchmark makes into sql::Database.
//   TimedDevice  is the TxBlockDevice the file system is mounted on; it
//                forwards each command to the drive's SATA front-end.
//
// Each call records its count, simulated nanoseconds and host nanoseconds.
// Sql also subtracts the storage time nested inside each call, which leaves
// the time spent in sql and fs together (the pager calls the file system
// directly, so the benchmark cannot split those two from outside).
//
// Untraced runs use Sql without a TimedDevice: no clock is read at all.
#ifndef XFTL_BENCHMARK_BOUNDARY_H_
#define XFTL_BENCHMARK_BOUNDARY_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "sql/database.h"
#include "storage/block_device.h"

namespace xftl_bench {

using xftl::Status;
using xftl::StatusOr;

inline uint64_t WallNanos() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

struct Timer {
  uint64_t calls = 0;
  uint64_t sim_ns = 0;
  uint64_t wall_ns = 0;
  std::vector<uint64_t> sim_samples;  // per call, for exact percentiles

  void Add(uint64_t sim, uint64_t wall) {
    ++calls;
    sim_ns += sim;
    wall_ns += wall;
    sim_samples.push_back(sim);
  }
};

class TimedDevice : public xftl::storage::TxBlockDevice {
 public:
  enum Cmd { kRead, kWrite, kBatch, kTrim, kFlush, kBarrier, kCommit, kAbort };
  static constexpr int kNumCmds = 8;
  static constexpr std::array<const char*, kNumCmds> kCmdNames = {
      "read", "write", "batch", "trim", "flush", "barrier", "commit", "abort"};

  // `inner` and `clock` must outlive this device.
  TimedDevice(xftl::storage::TxBlockDevice* inner, const xftl::SimClock* clock)
      : inner_(inner), clock_(clock) {}

  uint32_t page_size() const override { return inner_->page_size(); }
  uint64_t num_pages() const override { return inner_->num_pages(); }

  Status Read(uint64_t page, uint8_t* data) override {
    return Time(kRead, [&] { return inner_->Read(page, data); });
  }
  Status Write(uint64_t page, const uint8_t* data) override {
    return Time(kWrite, [&] { return inner_->Write(page, data); });
  }
  Status WriteBatch(const uint64_t* pages, const uint8_t* const* datas,
                    size_t n, size_t* accepted = nullptr) override {
    batch_pages_ += n;
    return Time(kBatch,
                [&] { return inner_->WriteBatch(pages, datas, n, accepted); });
  }
  Status Trim(uint64_t page) override {
    return Time(kTrim, [&] { return inner_->Trim(page); });
  }
  Status FlushBarrier() override {
    return Time(kFlush, [&] { return inner_->FlushBarrier(); });
  }
  Status Barrier() override {
    return Time(kBarrier, [&] { return inner_->Barrier(); });
  }

  bool SupportsTransactions() const override {
    return inner_->SupportsTransactions();
  }
  Status TxRead(xftl::storage::TxId t, uint64_t page, uint8_t* data) override {
    return Time(kRead, [&] { return inner_->TxRead(t, page, data); });
  }
  Status TxWrite(xftl::storage::TxId t, uint64_t page,
                 const uint8_t* data) override {
    return Time(kWrite, [&] { return inner_->TxWrite(t, page, data); });
  }
  Status TxWriteBatch(xftl::storage::TxId t, const uint64_t* pages,
                      const uint8_t* const* datas, size_t n,
                      size_t* accepted = nullptr) override {
    batch_pages_ += n;
    return Time(kBatch, [&] {
      return inner_->TxWriteBatch(t, pages, datas, n, accepted);
    });
  }
  Status TxCommit(xftl::storage::TxId t) override {
    return Time(kCommit, [&] { return inner_->TxCommit(t); });
  }
  Status TxAbort(xftl::storage::TxId t) override {
    return Time(kAbort, [&] { return inner_->TxAbort(t); });
  }

  // Forwarded untimed so the decorator changes nothing the stack can see;
  // the benchmark's workloads never open read-only transactions.
  bool SupportsSnapshots() const override {
    return inner_->SupportsSnapshots();
  }
  StatusOr<uint64_t> SnapPin() override { return inner_->SnapPin(); }
  Status SnapUnpin(uint64_t epoch) override { return inner_->SnapUnpin(epoch); }
  Status SnapRead(uint64_t epoch, uint64_t page, uint8_t* data) override {
    return inner_->SnapRead(epoch, page, data);
  }

  const Timer& timer(int cmd) const { return timers_[cmd]; }
  uint64_t batch_pages() const { return batch_pages_; }
  // Totals over every command, read around each sql call to find the storage
  // time nested inside it.
  uint64_t sim_ns() const { return sim_ns_; }
  uint64_t wall_ns() const { return wall_ns_; }

  void Reset() {
    timers_ = {};
    batch_pages_ = sim_ns_ = wall_ns_ = 0;
  }

 private:
  template <class F>
  Status Time(Cmd cmd, F&& call) {
    const xftl::SimNanos sim0 = clock_->Now();
    const uint64_t wall0 = WallNanos();
    Status s = call();
    const uint64_t wall = WallNanos() - wall0;
    const uint64_t sim = clock_->Now() - sim0;
    timers_[cmd].Add(sim, wall);
    sim_ns_ += sim;
    wall_ns_ += wall;
    return s;
  }

  xftl::storage::TxBlockDevice* const inner_;
  const xftl::SimClock* const clock_;
  std::array<Timer, kNumCmds> timers_;
  uint64_t batch_pages_ = 0;
  uint64_t sim_ns_ = 0;
  uint64_t wall_ns_ = 0;
};

class Sql {
 public:
  enum Verb { kExec, kBegin, kCommit, kRollback };
  static constexpr int kNumVerbs = 4;

  // `device` is null in untraced runs, which then time nothing.
  Sql(const xftl::SimClock* clock, const TimedDevice* device)
      : clock_(clock), device_(device) {}

  // The connection calls go to; replaced after every restart.
  void set_db(xftl::sql::Database* db) { db_ = db; }
  xftl::sql::Database* db() const { return db_; }

  StatusOr<xftl::sql::ResultSet> Exec(const std::string& sql) {
    return Time(kExec, [&] { return db_->Exec(sql); });
  }
  Status Begin() {
    return Time(kBegin, [&] { return db_->Begin(); });
  }
  Status Commit() {
    return Time(kCommit, [&] { return db_->Commit(); });
  }
  Status Rollback() {
    return Time(kRollback, [&] { return db_->Rollback(); });
  }

  const Timer& timer(int verb) const { return timers_[verb]; }
  uint64_t sim_ns() const { return sim_ns_; }
  uint64_t wall_ns() const { return wall_ns_; }
  // Time inside sql calls minus the storage time nested in them.
  uint64_t self_sim_ns() const { return self_sim_ns_; }
  uint64_t self_wall_ns() const { return self_wall_ns_; }

  void Reset() {
    timers_ = {};
    sim_ns_ = wall_ns_ = self_sim_ns_ = self_wall_ns_ = 0;
  }

 private:
  template <class F>
  auto Time(Verb verb, F&& call) -> decltype(call()) {
    if (device_ == nullptr) return call();
    const xftl::SimNanos sim0 = clock_->Now();
    const uint64_t dev_sim0 = device_->sim_ns();
    const uint64_t dev_wall0 = device_->wall_ns();
    const uint64_t wall0 = WallNanos();
    auto result = call();
    const uint64_t wall = WallNanos() - wall0;
    const uint64_t sim = clock_->Now() - sim0;
    timers_[verb].Add(sim, wall);
    sim_ns_ += sim;
    wall_ns_ += wall;
    self_sim_ns_ += sim - (device_->sim_ns() - dev_sim0);
    self_wall_ns_ += wall - (device_->wall_ns() - dev_wall0);
    return result;
  }

  const xftl::SimClock* const clock_;
  const TimedDevice* const device_;
  xftl::sql::Database* db_ = nullptr;
  std::array<Timer, kNumVerbs> timers_;
  uint64_t sim_ns_ = 0;
  uint64_t wall_ns_ = 0;
  uint64_t self_sim_ns_ = 0;
  uint64_t self_wall_ns_ = 0;
};

}  // namespace xftl_bench

#endif  // XFTL_BENCHMARK_BOUNDARY_H_
