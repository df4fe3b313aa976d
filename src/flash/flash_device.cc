#include "flash/flash_device.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

namespace xftl::flash {

FlashDevice::FlashDevice(const FlashConfig& config, SimClock* clock)
    : config_(config), clock_(clock), fault_rng_(config.fault.seed) {
  CHECK_GT(config_.num_blocks, 0u);
  CHECK_GT(config_.pages_per_block, 0u);
  CHECK_GT(config_.num_banks, 0u);
  CHECK_GT(config_.write_buffer_pages, 0u);
  blocks_.resize(config_.num_blocks);
  bank_busy_until_.assign(config_.num_banks, 0);
}

void FlashDevice::ScriptProgramFail(uint64_t countdown) {
  scripted_program_fails_.push_back(program_ops_ + std::max<uint64_t>(countdown, 1));
}

void FlashDevice::ScriptEraseFail(uint64_t countdown) {
  scripted_erase_fails_.push_back(erase_ops_ + std::max<uint64_t>(countdown, 1));
}

bool FlashDevice::FaultFires(std::vector<uint64_t>& scripted,
                             uint64_t op_count, uint64_t period, double prob) {
  auto it = std::find(scripted.begin(), scripted.end(), op_count);
  if (it != scripted.end()) {
    scripted.erase(it);
    return true;
  }
  if (period > 0 && op_count % period == 0) return true;
  return prob > 0 && fault_rng_.Bernoulli(prob);
}

uint32_t FlashDevice::SampleBitErrors(const Block& blk, uint32_t retry_level) {
  const FaultModel& fm = config_.fault;
  double rber = fm.rber_base + fm.rber_per_pe_cycle * double(blk.erase_count);
  if (rber <= 0) return 0;
  rber *= std::pow(fm.retry_rber_factor, double(retry_level));
  const double bits = double(config_.page_size) * 8.0;
  double lambda = std::min(rber, 1.0) * bits;
  // Knuth's Poisson sampler; lambda is tiny for realistic RBERs and the loop
  // is bounded by the page's bit count for the torture configurations.
  double l = std::exp(-lambda);
  double p = 1.0;
  uint32_t k = 0;
  do {
    k++;
    p *= fault_rng_.NextDouble();
  } while (p > l && k < bits);
  return k - 1;
}

Status FlashDevice::CheckAlive() const {
  if (failed_) return Status::IoError("device lost power");
  return Status::OK();
}

Status FlashDevice::CheckPpn(Ppn ppn) const {
  if (ppn >= config_.TotalPages()) {
    return Status::OutOfRange("ppn " + std::to_string(ppn) +
                              " beyond device");
  }
  return Status::OK();
}

void FlashDevice::EnsureAllocated(Block& blk) {
  if (blk.data == nullptr) {
    blk.data = std::make_unique_for_overwrite<uint8_t[]>(
        size_t(config_.pages_per_block) * config_.page_size);
    blk.page_state.assign(config_.pages_per_block, PageState::kErased);
    blk.oob.assign(config_.pages_per_block, PageOob{});
  }
}

uint8_t* FlashDevice::PageData(Block& blk, uint32_t page) {
  return blk.data.get() + size_t(page) * config_.page_size;
}

SimNanos FlashDevice::ScheduleOnBank(uint32_t bank, SimNanos latency,
                                     SimNanos not_before) {
  SimNanos start =
      std::max({clock_->Now(), bank_busy_until_[bank], not_before});
  bank_busy_until_[bank] = start + latency;
  return bank_busy_until_[bank];
}

void FlashDevice::NoteBarrier(uint64_t kind, uint64_t a, uint32_t tid,
                              SimNanos latency) {
  if (tracer_ != nullptr) {
    tracer_->Record(trace::Layer::kFlash, trace::Op::kBarrier, clock_->Now(),
                    tid, a, kind, latency, StatusCode::kOk);
  }
}

void FlashDevice::AdvanceEpoch() {
  RetireDrained();
  // Everything issued so far belongs to the closing epoch: the next fenced
  // program must wait for the latest of those completions.
  epoch_fence_ = std::max(epoch_fence_, epoch_last_done_);
  current_epoch_++;
  stats_.barrier_epochs++;
  // Distinct epochs still undrained (buffered_ is in issue order and epochs
  // are monotone, so a linear scan counts runs).
  uint64_t in_flight = 0;
  uint64_t last = ~uint64_t{0};
  for (const BufferedProgram& p : buffered_) {
    if (p.epoch != last) {
      last = p.epoch;
      in_flight++;
    }
  }
  stats_.max_epochs_in_flight =
      std::max(stats_.max_epochs_in_flight, in_flight);
  NoteBarrier(0, current_epoch_, uint32_t(in_flight), 0);
}

SimNanos FlashDevice::ScheduleOnChannel(SimNanos not_before, SimNanos latency) {
  SimNanos start = std::max({clock_->Now(), not_before, channel_busy_until_});
  channel_busy_until_ = start + latency;
  return channel_busy_until_;
}

void FlashDevice::RetireDrained() {
  SimNanos now = clock_->Now();
  buffered_.erase(
      std::remove_if(buffered_.begin(), buffered_.end(),
                     [now](const BufferedProgram& p) { return p.done <= now; }),
      buffered_.end());
}

void FlashDevice::StallIfBufferFull() {
  RetireDrained();
  if (buffered_.size() < config_.write_buffer_pages) return;
  // Wait for the earliest completion, then retire everything done by then.
  auto it = std::min_element(
      buffered_.begin(), buffered_.end(),
      [](const BufferedProgram& a, const BufferedProgram& b) {
        return a.done < b.done;
      });
  clock_->AdvanceTo(it->done);
  RetireDrained();
}

Status FlashDevice::ReadPage(Ppn ppn, uint8_t* data, PageOob* oob,
                             uint32_t* bit_errors, uint32_t retry_level) {
  XFTL_RETURN_IF_ERROR(CheckAlive());
  XFTL_RETURN_IF_ERROR(CheckPpn(ppn));
  SimNanos t0 = clock_->Now();
  Block& blk = blocks_[config_.BlockOf(ppn)];
  uint32_t page = config_.PageInBlock(ppn);
  if (bit_errors != nullptr) *bit_errors = 0;
  // Data-dependent wait: the sense queues behind whatever the bank is doing
  // (covers read-after-in-flight-program) and the transfer back then queues
  // on the shared channel. Flash-layer events carry the bank in `tid` so
  // xftl_trace summary can report per-bank utilization.
  uint32_t bank = config_.BankOf(config_.BlockOf(ppn));
  auto note = [&](StatusCode code) {
    if (tracer_ != nullptr) {
      tracer_->Record(trace::Layer::kFlash, trace::Op::kRead, t0, bank, ppn,
                      0, clock_->Now() - t0, code);
    }
  };

  SimNanos sensed = ScheduleOnBank(bank, config_.timings.read_page);
  SimNanos done = ScheduleOnChannel(sensed, config_.timings.bus_per_page);
  clock_->AdvanceTo(done);
  last_op_done_ = done;
  stats_.page_reads++;

  if (blk.data == nullptr || blk.page_state[page] == PageState::kErased) {
    std::memset(data, 0xff, config_.page_size);
    if (oob != nullptr) *oob = PageOob{};
    note(StatusCode::kOk);
    return Status::OK();
  }
  if (blk.page_state[page] == PageState::kTorn) {
    // The caller still sees the garbled bytes — checksums upstream are what
    // detect this in real systems. On the ECC path (bit_errors != nullptr) a
    // torn page senses as hopelessly noisy at every retry level, so the ECC
    // engine reports it as an uncorrectable read; raw callers keep the
    // explicit status, which makes tests crisper.
    std::memcpy(data, PageData(blk, page), config_.page_size);
    if (oob != nullptr) *oob = blk.oob[page];
    if (bit_errors != nullptr) {
      *bit_errors = config_.page_size * 8;
      note(StatusCode::kOk);
      return Status::OK();
    }
    note(StatusCode::kCorruption);
    return Status::Corruption("torn page " + std::to_string(ppn));
  }
  std::memcpy(data, PageData(blk, page), config_.page_size);
  if (oob != nullptr) *oob = blk.oob[page];
  uint32_t flips = SampleBitErrors(blk, retry_level);
  stats_.bit_flips += flips;
  if (bit_errors != nullptr) *bit_errors = flips;
  note(StatusCode::kOk);
  return Status::OK();
}

Status FlashDevice::ReadOobBatch(const std::vector<Ppn>& ppns,
                                 std::vector<std::optional<PageOob>>* out) {
  XFTL_RETURN_IF_ERROR(CheckAlive());
  for (Ppn ppn : ppns) XFTL_RETURN_IF_ERROR(CheckPpn(ppn));
  out->assign(ppns.size(), std::nullopt);
  // Every sense is queued at once: each waits only for its own bank, so the
  // batch retires when the busiest bank drains its chain of tR.
  SimNanos last = clock_->Now();
  for (size_t i = 0; i < ppns.size(); ++i) {
    BlockNum block = config_.BlockOf(ppns[i]);
    last = std::max(last, ScheduleOnBank(config_.BankOf(block),
                                         config_.timings.read_page));
    const Block& blk = blocks_[block];
    uint32_t page = config_.PageInBlock(ppns[i]);
    if (blk.data != nullptr && blk.page_state[page] != PageState::kErased) {
      (*out)[i] = blk.oob[page];
    }
  }
  clock_->AdvanceTo(last);
  stats_.oob_reads += ppns.size();
  return Status::OK();
}

Status FlashDevice::ProgramPage(Ppn ppn, const uint8_t* data,
                                const PageOob& oob) {
  XFTL_RETURN_IF_ERROR(CheckAlive());
  XFTL_RETURN_IF_ERROR(CheckPpn(ppn));
  BlockNum block = config_.BlockOf(ppn);
  Block& blk = blocks_[block];
  uint32_t page = config_.PageInBlock(ppn);
  if (blk.bad) {
    return Status::IoError("program on bad block " + std::to_string(block));
  }
  EnsureAllocated(blk);

  if (blk.page_state[page] != PageState::kErased) {
    return Status::FailedPrecondition("program of non-erased page " +
                                      std::to_string(ppn));
  }
  if (page != blk.next_page) {
    return Status::FailedPrecondition(
        "out-of-order program: block " + std::to_string(block) + " page " +
        std::to_string(page) + " (next is " + std::to_string(blk.next_page) +
        ")");
  }

  StallIfBufferFull();

  // Power-failure injection: the device dies the instant this program is
  // issued. CrashNow decides what the cells end up holding.
  if (crash_armed_ && --crash_countdown_ == 0) {
    return CrashNow(ppn, data, oob);
  }

  // Program status failure: the chip reports FAIL, the cells hold garbage
  // and the block has grown bad. The device stays alive — recovering the
  // in-flight page and retiring the block is the FTL's job.
  program_ops_++;
  if (FaultFires(scripted_program_fails_, program_ops_, program_fail_period_,
                 config_.fault.program_fail_prob)) {
    garbage_rng_.FillBytes(PageData(blk, page), config_.page_size);
    blk.page_state[page] = PageState::kTorn;
    blk.oob[page] = oob;
    blk.next_page = page + 1;
    blk.bad = true;
    stats_.program_fails++;
    // A status failure is only visible at the completion poll, so the host
    // waits out the transfer plus tPROG before it can react.
    SimNanos t0 = clock_->Now();
    uint32_t fail_bank = config_.BankOf(block);
    clock_->AdvanceTo(
        ScheduleOnChannel(t0, config_.timings.bus_per_page));
    SimNanos fail_done = ScheduleOnBank(fail_bank, config_.timings.program_page);
    clock_->AdvanceTo(fail_done);
    last_op_done_ = fail_done;
    if (tracer_ != nullptr) {
      tracer_->Record(trace::Layer::kFlash, trace::Op::kWrite, t0, fail_bank,
                      ppn, oob.lpn, clock_->Now() - t0, StatusCode::kIoError);
    }
    return Status::IoError("program status failure at page " +
                           std::to_string(ppn));
  }

  std::memcpy(PageData(blk, page), data, config_.page_size);
  blk.page_state[page] = PageState::kProgrammed;
  blk.oob[page] = oob;
  blk.next_page = page + 1;
  stats_.page_programs++;

  // Submit: the host pays only the serialized channel transfer; the cell
  // program overlaps on its bank and drains in the background. Under an
  // open barrier epoch the cell program is additionally fenced: it may not
  // start before every program of the previous epoch has completed.
  uint32_t bank = config_.BankOf(block);
  SimNanos t0 = clock_->Now();
  clock_->AdvanceTo(ScheduleOnChannel(t0, config_.timings.bus_per_page));
  if (current_epoch_ > 0) {
    SimNanos now = clock_->Now();
    SimNanos bank_free = std::max(now, bank_busy_until_[bank]);
    SimNanos start = std::max(bank_free, epoch_fence_);
    if (start > now) {
      if (epoch_fence_ >= bank_free) {
        stats_.programs_stalled_for_order++;
        NoteBarrier(1, ppn, bank, start - now);
      } else {
        stats_.programs_stalled_for_bank++;
        NoteBarrier(2, ppn, bank, start - now);
      }
    }
  }
  SimNanos done =
      ScheduleOnBank(bank, config_.timings.program_page, epoch_fence_);
  epoch_last_done_ = std::max(epoch_last_done_, done);
  buffered_.push_back(BufferedProgram{ppn, done, current_epoch_});
  last_op_done_ = done;
  if (tracer_ != nullptr) {
    // Programs are asynchronous; the recorded latency is issue-to-retire
    // (queueing on the channel and the bank included), which is what the
    // host would see at the next barrier.
    tracer_->Record(trace::Layer::kFlash, trace::Op::kWrite, t0, bank, ppn,
                    oob.lpn, done - t0, StatusCode::kOk);
  }
  return Status::OK();
}

Status FlashDevice::EraseBlock(BlockNum block) {
  XFTL_RETURN_IF_ERROR(CheckAlive());
  if (block >= config_.num_blocks) {
    return Status::OutOfRange("block " + std::to_string(block));
  }
  Block& blk = blocks_[block];
  if (blk.bad) {
    return Status::IoError("erase of bad block " + std::to_string(block));
  }
  erase_ops_++;
  if (FaultFires(scripted_erase_fails_, erase_ops_, erase_fail_period_,
                 config_.fault.erase_fail_prob)) {
    // Erase status failure: the cells are left partially erased — every page
    // is garbage and the block can no longer be programmed. Wear still
    // accrues (the erase pulse did run).
    EnsureAllocated(blk);
    garbage_rng_.FillBytes(blk.data.get(), size_t(config_.pages_per_block) *
                                               config_.page_size);
    std::fill(blk.page_state.begin(), blk.page_state.end(), PageState::kTorn);
    std::fill(blk.oob.begin(), blk.oob.end(), PageOob{});
    blk.next_page = config_.pages_per_block;
    blk.erase_count++;
    blk.bad = true;
    stats_.erase_fails++;
    // Like a program failure, this surfaces at the status poll, so the host
    // waits out the erase pulse.
    SimNanos fail_done =
        ScheduleOnBank(config_.BankOf(block), config_.timings.erase_block);
    clock_->AdvanceTo(fail_done);
    last_op_done_ = fail_done;
    return Status::IoError("erase status failure at block " +
                           std::to_string(block));
  }
  if (blk.data != nullptr) {
    // The bytes stay as they were: nothing reads an erased page's bytes.
    std::fill(blk.page_state.begin(), blk.page_state.end(),
              PageState::kErased);
    std::fill(blk.oob.begin(), blk.oob.end(), PageOob{});
  }
  blk.next_page = 0;
  blk.erase_count++;
  stats_.block_erases++;
  // Submit: the erase pulse runs on the bank in the background. There is no
  // data transfer, so the host does not even touch the channel; any later
  // program or read on this bank queues behind the pulse, and SyncAll()
  // waits it out.
  uint32_t bank = config_.BankOf(block);
  SimNanos t0 = clock_->Now();
  SimNanos done = ScheduleOnBank(bank, config_.timings.erase_block);
  last_op_done_ = done;
  if (tracer_ != nullptr) {
    tracer_->Record(trace::Layer::kFlash, trace::Op::kErase, t0, bank, block,
                    0, done - t0, StatusCode::kOk);
  }
  return Status::OK();
}

void FlashDevice::SyncAll() {
  SimNanos t0 = clock_->Now();
  RetireDrained();  // programs that drained on their own were already durable
  for (SimNanos t : bank_busy_until_) clock_->AdvanceTo(t);
  uint64_t flushed = buffered_.size();
  buffered_.clear();
  stats_.programs_flushed += flushed;
  stats_.buffer_flushes++;
  if (tracer_ != nullptr) {
    tracer_->Record(trace::Layer::kFlash, trace::Op::kFlush, t0, 0, flushed,
                    0, clock_->Now() - t0, StatusCode::kOk);
  }
}

void FlashDevice::ArmCrashPlan(const CrashPlan& plan) {
  crash_plan_ = plan;
  crash_countdown_ = std::max<uint64_t>(plan.crash_after_programs, 1);
  crash_armed_ = true;
}

void FlashDevice::DropPage(BlockNum block, uint32_t page) {
  Block& blk = blocks_[block];
  if (blk.data == nullptr) return;
  blk.page_state[page] = PageState::kErased;
  blk.oob[page] = PageOob{};
  blk.next_page = std::min(blk.next_page, page);
}

Status FlashDevice::CrashNow(Ppn ppn, const uint8_t* data,
                             const PageOob& oob) {
  crash_armed_ = false;
  failed_ = true;
  RetireDrained();

  // Sample the fate of every buffered program plus the one being issued.
  // NAND programs pages of a block strictly in order, so the first drop in a
  // block kills the rest of that block's buffered suffix; blocks (planes)
  // are independent, which is what lets buffered writes persist out of their
  // issue order.
  Rng rng(crash_plan_.seed ^ 0x9e3779b97f4a7c15ull);
  struct PendingPage {
    uint32_t page;
    uint64_t epoch;
    bool dropped = false;
  };
  std::map<BlockNum, std::vector<PendingPage>> pending;
  for (const BufferedProgram& p : buffered_) {
    pending[config_.BlockOf(p.ppn)].push_back(
        PendingPage{config_.PageInBlock(p.ppn), p.epoch});
  }
  buffered_.clear();
  const BlockNum crash_block = config_.BlockOf(ppn);
  const uint32_t crash_page = config_.PageInBlock(ppn);
  pending[crash_block].push_back(PendingPage{crash_page, current_epoch_});

  // Pass 1: per-block survival sampling. The RNG consumption order here is
  // the contract — it must not depend on whether barriers were in use, or
  // every seeded crash point in the sweep would shift.
  uint64_t min_dropped_epoch = ~uint64_t{0};
  for (auto& [block, pages] : pending) {
    std::sort(pages.begin(), pages.end(),
              [](const PendingPage& a, const PendingPage& b) {
                return a.page < b.page;
              });
    bool dropping = false;
    for (PendingPage& pg : pages) {
      if (!dropping && !rng.Bernoulli(crash_plan_.persist_prob)) {
        dropping = true;
      }
      pg.dropped = dropping;
      if (dropping) min_dropped_epoch = std::min(min_dropped_epoch, pg.epoch);
    }
  }

  // Pass 2 (epoch-prefix consistency): once any program of epoch E is lost,
  // every program of a later epoch is lost too — the fence kept them from
  // starting before epoch E finished, so they cannot have reached the cells
  // first. Within a block epochs are non-decreasing with page index, so this
  // only extends the dropped suffix and per-block prefix consistency holds.
  // With a single epoch (no barriers ever issued) this pass is a no-op.
  for (auto& [block, pages] : pending) {
    for (PendingPage& pg : pages) {
      if (pg.epoch > min_dropped_epoch) pg.dropped = true;
    }
  }

  bool issue_survives = false;
  for (auto& [block, pages] : pending) {
    for (const PendingPage& pg : pages) {
      if (block == crash_block && pg.page == crash_page) {
        // The issued program's data never reached the cells (it is still in
        // `data`); nothing to revert if it drops.
        issue_survives = !pg.dropped;
        if (pg.dropped) stats_.programs_dropped++;
      } else if (pg.dropped) {
        DropPage(block, pg.page);
        stats_.programs_dropped++;
      }
    }
  }

  if (issue_survives) {
    // The in-flight program tears at a sector boundary: the first `landed`
    // sectors hold the intended data, the rest is indeterminate garbage.
    Block& blk = blocks_[crash_block];
    EnsureAllocated(blk);
    uint8_t* dst = PageData(blk, crash_page);
    garbage_rng_.FillBytes(dst, config_.page_size);
    uint32_t sectors = std::max(1u, config_.page_size / config_.sector_size);
    uint32_t landed = uint32_t(rng.Uniform(sectors));
    std::memcpy(dst, data, size_t(landed) * config_.sector_size);
    blk.page_state[crash_page] = PageState::kTorn;
    blk.oob[crash_page] = oob;  // OOB may or may not have landed; keep it
                                // but the data checksum is what recovery
                                // must rely on.
    blk.next_page = crash_page + 1;
    stats_.torn_programs++;
  }
  return Status::IoError("power failure during program of page " +
                         std::to_string(ppn));
}

void FlashDevice::PowerCut() {
  if (failed_) return;  // already dead at an armed crash point
  RetireDrained();
  for (const BufferedProgram& p : buffered_) {
    DropPage(config_.BlockOf(p.ppn), config_.PageInBlock(p.ppn));
    stats_.programs_dropped++;
  }
  buffered_.clear();
  crash_armed_ = false;
  failed_ = true;
  // Epoch timing state is RAM-side; the cut loses it with the buffer. The
  // epoch counter itself stays monotone so post-reboot barriers never fence
  // against stale completion times from before the cut.
  epoch_fence_ = 0;
  epoch_last_done_ = 0;
}

bool FlashDevice::IsProgrammed(Ppn ppn) const {
  const Block& blk = blocks_[config_.BlockOf(ppn)];
  if (blk.data == nullptr) return false;
  return blk.page_state[config_.PageInBlock(ppn)] != PageState::kErased;
}

uint64_t FlashDevice::EraseCount(BlockNum block) const {
  return blocks_[block].erase_count;
}

uint32_t FlashDevice::NextProgramPage(BlockNum block) const {
  return blocks_[block].next_page;
}

void FlashDevice::ClearFailure() {
  failed_ = false;
  crash_armed_ = false;
  // RAM-side timing state only: the cells already hold whatever survived.
  // Buffer loss happens at the cut (PowerCut / CrashNow), not at reboot.
  buffered_.clear();
  epoch_fence_ = 0;
  epoch_last_done_ = 0;
}

FlashDevice::PageState FlashDevice::PageStateOf(Ppn ppn) const {
  const Block& blk = blocks_[config_.BlockOf(ppn)];
  if (blk.data == nullptr) return PageState::kErased;
  return blk.page_state[config_.PageInBlock(ppn)];
}

const uint8_t* FlashDevice::PeekPageData(Ppn ppn) const {
  const Block& blk = blocks_[config_.BlockOf(ppn)];
  if (blk.data == nullptr) return nullptr;
  const uint32_t page = config_.PageInBlock(ppn);
  if (blk.page_state[page] == PageState::kErased) return nullptr;
  return blk.data.get() + size_t(page) * config_.page_size;
}

std::optional<PageOob> FlashDevice::PeekOob(Ppn ppn) const {
  const Block& blk = blocks_[config_.BlockOf(ppn)];
  if (blk.data == nullptr) return std::nullopt;
  uint32_t page = config_.PageInBlock(ppn);
  if (blk.page_state[page] == PageState::kErased) return std::nullopt;
  return blk.oob[page];
}

void FlashDevice::RestorePage(Ppn ppn, PageState state, const uint8_t* data,
                              const PageOob& oob) {
  Block& blk = blocks_[config_.BlockOf(ppn)];
  EnsureAllocated(blk);
  uint32_t page = config_.PageInBlock(ppn);
  blk.page_state[page] = state;
  blk.oob[page] = state == PageState::kErased ? PageOob{} : oob;
  uint8_t* dst = PageData(blk, page);
  if (state == PageState::kErased || data == nullptr) {
    std::memset(dst, 0xff, config_.page_size);
  } else {
    std::memcpy(dst, data, config_.page_size);
  }
  if (state != PageState::kErased) {
    blk.next_page = std::max(blk.next_page, page + 1);
  }
}

void FlashDevice::RestoreBlockMeta(BlockNum block, uint64_t erase_count,
                                   bool bad) {
  blocks_[block].erase_count = erase_count;
  blocks_[block].bad = bad;
}

}  // namespace xftl::flash
