// In-memory simulation of a bank-interleaved NAND flash array.
//
// The simulator enforces the physical constraints real firmware must respect:
//   * a page can only be programmed once after an erase (no overwrite),
//   * pages within a block must be programmed in order (MLC constraint),
//   * erases operate on whole blocks.
//
// Timing (queued-command model): every command is split into submit and
// wait. Submit serializes only the shared channel/bus transfer — the host
// clock advances by bus_per_page per page moved over the wire — while the
// cell operation (program, erase) is scheduled onto the page's bank and
// retires in the background, so work striped across banks overlaps (this is
// what gives the device its bandwidth). The host waits (AdvanceTo) only at
// data-dependent points: reads, which must sense the bank and then occupy
// the channel for the transfer back, and flush barriers. Erases are
// submit-only on success; a program/erase *status failure* is synchronous,
// because real firmware only learns of it at the completion status poll.
// ProgramPage/EraseBlock record their bank completion time, readable via
// last_op_done(), which is what the SATA layer's NCQ queue tracks. A bounded
// write buffer stalls the issuer when full, and SyncAll() models a flush
// barrier that waits for every bank to go idle.
//
// Durability: the write buffer is VOLATILE. A program is durable once it has
// drained (its modeled completion time has passed) or once a SyncAll() flush
// barrier lands; until then it lives only in controller RAM. PowerCut()
// models pulling the plug: every still-buffered program is lost. A seeded
// CrashPlan (ArmCrashPlan) crashes mid-workload instead: each buffered
// program independently persists or drops (prefix-consistent within a block,
// independent across banks — so writes can persist out of issue order) and
// the crashing program tears at a sector boundary (a plan with persist_prob
// 1 keeps every buffered program: a deterministic cut). After any cut the
// device refuses work until ClearFailure() (the reboot). Flash contents
// survive, which is exactly what crash-recovery code must cope with.
//
// Torn pages read through the ECC path (bit_errors != nullptr) as pages with
// more raw bit errors than any code can correct, so the FTL sees them as
// uncorrectable reads after its retries — not as silent garbage and not as a
// magic "torn" status. Raw reads (bit_errors == nullptr) keep the explicit
// Corruption status for tests and tools.
//
// NAND failure injection (FaultModel + Script*Fail): program and erase
// operations can complete with the status-fail bit set, which permanently
// retires the block (grown bad block), and reads report wear-driven raw bit
// errors for the FTL's ECC engine to correct. Unlike a power failure the
// device stays alive — surviving these is the FTL's job.
#ifndef XFTL_FLASH_FLASH_DEVICE_H_
#define XFTL_FLASH_FLASH_DEVICE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "flash/flash_config.h"
#include "trace/tracer.h"

namespace xftl::flash {

class FlashDevice {
 public:
  // Durability state of one physical page.
  enum class PageState : uint8_t { kErased, kProgrammed, kTorn };

  FlashDevice(const FlashConfig& config, SimClock* clock);

  FlashDevice(const FlashDevice&) = delete;
  FlashDevice& operator=(const FlashDevice&) = delete;

  const FlashConfig& config() const { return config_; }
  const FlashStats& stats() const { return stats_; }
  SimClock* clock() const { return clock_; }

  // Optional event tracing (raw reads/programs/erases); null disables.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  trace::Tracer* tracer() const { return tracer_; }

  // Reads one page into `data` (page_size bytes) and, optionally, its OOB.
  // Reading an erased page fills `data` with 0xff. Reading a torn page
  // returns Corruption. When `bit_errors` is non-null it receives the number
  // of raw bit errors this read sensed (FaultModel RBER; the buffer itself
  // is returned intact — correcting or rejecting is the ECC engine's call).
  // `retry_level` > 0 models read-retry with shifted sensing voltages, which
  // scales the RBER by retry_rber_factor^level.
  Status ReadPage(Ppn ppn, uint8_t* data, PageOob* oob = nullptr,
                  uint32_t* bit_errors = nullptr, uint32_t retry_level = 0);

  // Senses the OOB of every page in `ppns` as one queued batch (the
  // recovery scan). Each sense pays tR on its page's bank but almost no
  // channel time, so senses on different banks overlap and senses on one
  // bank queue; the clock advances once, to the last completion. `out`
  // receives one entry per ppn, nullopt for erased pages.
  Status ReadOobBatch(const std::vector<Ppn>& ppns,
                      std::vector<std::optional<PageOob>>* out);

  // Programs one page (submit). Fails if the page is not erased or out of
  // program order within its block. The data is latched immediately; the
  // host pays only the channel transfer, and the cell program is scheduled
  // on the page's bank (completion time readable via last_op_done()).
  Status ProgramPage(Ppn ppn, const uint8_t* data, const PageOob& oob);

  // Erases a whole block (submit; the erase pulse runs on the block's bank
  // in the background — only a status failure is synchronous).
  Status EraseBlock(BlockNum block);

  // Waits for all in-flight programs and erases to retire (flush barrier).
  // Everything buffered becomes durable.
  void SyncAll();

  // --- barrier (epoch) ordering -------------------------------------------
  // Opens a new barrier epoch without waiting for anything: every program
  // issued after this call is fenced behind the completion of every program
  // issued before it. The scheduler refuses to start an epoch-e+1 program
  // until the last epoch-e program has completed on its bank — ordering is
  // enforced inside the controller, overlapping across banks, while the
  // issuer keeps submitting. At a power cut, survival is epoch-prefix
  // consistent: once any program of epoch e is lost, every program of a
  // later epoch is lost too (CrashNow's second pass).
  void AdvanceEpoch();
  // Current epoch id (0 until the first AdvanceEpoch; programs issued under
  // epoch 0 are unfenced, which keeps drain-mode timing byte-identical).
  uint64_t current_epoch() const { return current_epoch_; }
  // Earliest simulated time the next fenced program may start (tests).
  SimNanos epoch_fence() const { return epoch_fence_; }

  // Bank completion time of the most recently submitted program/erase/read —
  // the "completion token" of the submit/wait split. The SATA layer's NCQ
  // queue records this per command and waits on it only when the queue
  // fills or a barrier lands.
  SimNanos last_op_done() const { return last_op_done_; }

  // True if the page has been programmed since its block's last erase.
  bool IsProgrammed(Ppn ppn) const;
  // Per-block erase count (wear).
  uint64_t EraseCount(BlockNum block) const;
  // Next in-order programmable page index within `block`, or
  // pages_per_block if the block is full.
  uint32_t NextProgramPage(BlockNum block) const;

  // --- power-failure injection -------------------------------------------
  // Arms a seeded crash: the plan's crash_after_programs-th program from now
  // is the crash point (see CrashPlan). Replaces any armed plan.
  void ArmCrashPlan(const CrashPlan& plan);
  bool HasFailed() const { return failed_; }
  // Pulls the plug without a crash plan: every still-buffered program is
  // dropped (drained programs are already durable) and the device refuses
  // further work until ClearFailure(). No-op if the device already died at
  // an armed crash point. This is what a clean host power cycle must call —
  // a power cycle that keeps the buffer is not a power cycle.
  void PowerCut();
  // Simulated reboot: the device accepts commands again; flash contents are
  // untouched and all RAM-side (in-flight) state is gone. Grown bad blocks
  // are physical damage and survive. Note this does NOT drop the buffer —
  // losing power does (PowerCut / an armed CrashPlan); a host-only reboot
  // with the device powered keeps buffered programs draining.
  void ClearFailure();

  // --- NAND failure injection --------------------------------------------
  // One-shot scripted status failures: the `countdown`-th program/erase from
  // now (1 = the very next) completes with the fail bit set and retires the
  // block. Composes with FaultModel probabilities.
  void ScriptProgramFail(uint64_t countdown);
  void ScriptEraseFail(uint64_t countdown);
  // Periodic scripted failures: every `period`-th operation fails (0 = off).
  void ScriptProgramFailEvery(uint64_t period) { program_fail_period_ = period; }
  void ScriptEraseFailEvery(uint64_t period) { erase_fail_period_ = period; }
  // True once `block` suffered a program/erase status failure. Bad blocks
  // refuse further programs and erases; reads still work (recovered data is
  // how real FTLs evacuate them).
  bool IsBadBlock(BlockNum block) const { return blocks_[block].bad; }
  // Accounting hooks for the FTL-side ECC engine (the counters live with the
  // rest of the raw-media stats).
  void NoteEccCorrected(uint64_t bits) { stats_.ecc_corrected += bits; }
  void NoteEccUncorrectable() { stats_.ecc_uncorrectable++; }

  // --- offline inspection (xftl_fsck, image dump) ------------------------
  // Side-effect-free peeks at a powered-off image: no clock, no stats, no
  // RBER sampling. PeekPageData returns nullptr for an erased page.
  PageState PageStateOf(Ppn ppn) const;
  const uint8_t* PeekPageData(Ppn ppn) const;
  std::optional<PageOob> PeekOob(Ppn ppn) const;
  // Buffered (issued, not yet durable) program count — tests and benches.
  size_t BufferedPrograms() const { return buffered_.size(); }

  // --- image restore (flash_image.cc only) -------------------------------
  // Rebuilds a page / block directly, bypassing program-order checks and
  // timing. `data` may be null for erased pages.
  void RestorePage(Ppn ppn, PageState state, const uint8_t* data,
                   const PageOob& oob);
  void RestoreBlockMeta(BlockNum block, uint64_t erase_count, bool bad);

 private:
  struct Block {
    // Allocated lazily and uninitialized, pages_per_block pages. Only a
    // programmed or torn page's bytes are ever read (an erased page reads
    // 0xff by page_state), so untouched pages never become resident.
    std::unique_ptr<uint8_t[]> data;
    std::vector<PageState> page_state;
    std::vector<PageOob> oob;
    uint32_t next_page = 0;      // in-order program cursor
    uint64_t erase_count = 0;
    bool bad = false;            // grown bad block (program/erase fail)
  };

  // One issued-but-not-yet-durable program.
  struct BufferedProgram {
    Ppn ppn;
    SimNanos done;      // completion (drain) time on its bank
    uint64_t epoch = 0; // barrier epoch the program was issued under
  };

  Status CheckAlive() const;
  Status CheckPpn(Ppn ppn) const;
  void EnsureAllocated(Block& blk);
  uint8_t* PageData(Block& blk, uint32_t page);
  // Schedules `latency` on `bank`, starting no earlier than `not_before`
  // (the epoch fence for fenced programs); returns completion time.
  SimNanos ScheduleOnBank(uint32_t bank, SimNanos latency,
                          SimNanos not_before = 0);
  // Records one flash-layer barrier trace event (no-op without a tracer).
  // kind: 0 = epoch opened (a = epoch id, tid = epochs in flight),
  //       1 = program stalled for order, 2 = stalled for bank (a = ppn,
  //       tid = bank, latency = the stall paid).
  void NoteBarrier(uint64_t kind, uint64_t a, uint32_t tid, SimNanos latency);
  // Schedules `latency` on the shared channel, starting no earlier than
  // `not_before` (a bank sense completion for reads, now for programs);
  // returns the transfer's completion time. The channel is the one resource
  // every command serializes on.
  SimNanos ScheduleOnChannel(SimNanos not_before, SimNanos latency);
  void StallIfBufferFull();
  // Retires buffered programs whose drain time has passed (they are durable
  // from here on).
  void RetireDrained();
  // Reverts a programmed page to erased (a buffered program that never made
  // it to the cells).
  void DropPage(BlockNum block, uint32_t page);
  // The armed crash point: samples the fate of every buffered program plus
  // the one being issued (`ppn`, whose data is still only in `data`), then
  // kills the device. Returns the IoError the caller propagates.
  Status CrashNow(Ppn ppn, const uint8_t* data, const PageOob& oob);
  // Decides whether the current (already counted) op fails, consuming any
  // matching one-shot script entry.
  bool FaultFires(std::vector<uint64_t>& scripted, uint64_t op_count,
                  uint64_t period, double prob);
  // Poisson draw of raw bit errors for one read of a page in `blk`.
  uint32_t SampleBitErrors(const Block& blk, uint32_t retry_level);

  const FlashConfig config_;
  SimClock* const clock_;
  trace::Tracer* tracer_ = nullptr;
  std::vector<Block> blocks_;
  std::vector<SimNanos> bank_busy_until_;
  // Shared channel (bus) between the controller and every bank: data
  // transfers serialize here even when the cell operations overlap.
  SimNanos channel_busy_until_ = 0;
  // Completion time of the most recent submit (see last_op_done()).
  SimNanos last_op_done_ = 0;
  // Volatile write buffer: issued programs that have not drained yet
  // (bounded by write_buffer_pages).
  std::vector<BufferedProgram> buffered_;
  // Barrier epoch state. current_epoch_ is monotone for the device's life;
  // the fence is the completion time the next fenced program must wait for,
  // and epoch_last_done_ tracks the latest completion inside the current
  // epoch (folded into the fence at the next AdvanceEpoch).
  uint64_t current_epoch_ = 0;
  SimNanos epoch_fence_ = 0;
  SimNanos epoch_last_done_ = 0;
  FlashStats stats_;
  CrashPlan crash_plan_;
  bool crash_armed_ = false;
  uint64_t crash_countdown_ = 0;
  bool failed_ = false;
  // Fault-injection state: absolute op numbers of scripted failures, the
  // periodic settings, and op counters.
  std::vector<uint64_t> scripted_program_fails_;
  std::vector<uint64_t> scripted_erase_fails_;
  uint64_t program_fail_period_ = 0;
  uint64_t erase_fail_period_ = 0;
  uint64_t program_ops_ = 0;
  uint64_t erase_ops_ = 0;
  Rng garbage_rng_{0xdeadbeef};
  Rng fault_rng_;
};

}  // namespace xftl::flash

#endif  // XFTL_FLASH_FLASH_DEVICE_H_
