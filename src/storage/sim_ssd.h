// SimSsd bundles a simulated drive: NAND array + (X-)FTL + SATA front-end,
// built from a device profile. Profiles model the two drives in the paper's
// evaluation: the OpenSSD development board (Indilinx Barefoot, SATA 2.0)
// and the Samsung S830 (a one-generation-newer consumer SSD on SATA 6G).
#ifndef XFTL_STORAGE_SIM_SSD_H_
#define XFTL_STORAGE_SIM_SSD_H_

#include <memory>

#include "common/sim_clock.h"
#include "flash/flash_device.h"
#include "storage/sata_device.h"
#include "xftl/xftl.h"

namespace xftl::storage {

struct SsdSpec {
  flash::FlashConfig flash;
  ftl::FtlConfig ftl;
  ftl::XftlConfig xftl;
  SataTimings sata;
  // Transient host<->device link faults and the host recovery policy that
  // fights them; default is a perfect link. Composes with flash.fault.
  LinkFaultModel link_fault;
  LinkRecoveryPolicy link_policy;
  // Build an X-FTL (extended command set) or the original page-mapping FTL.
  bool transactional = true;
};

// OpenSSD profile (paper §6.1): Samsung K9LCG08U1M MLC, 8 KB pages, 128
// pages/block, Barefoot controller with 4-way interleaving, SATA 2.0.
// `num_blocks` sizes the array; `utilization` is the fraction of the data
// space exposed as logical pages (the GC-validity aging knob).
SsdSpec OpenSsdSpec(uint32_t num_blocks = 512, double utilization = 0.65);

// Samsung S830 profile: same MLC generation but a faster controller —
// more interleaving, deeper write buffer, SATA 6G link.
SsdSpec S830Spec(uint32_t num_blocks = 512, double utilization = 0.65);

class SimSsd {
 public:
  SimSsd(const SsdSpec& spec, SimClock* clock);

  SimSsd(const SimSsd&) = delete;
  SimSsd& operator=(const SimSsd&) = delete;

  SataDevice* device() { return sata_.get(); }
  ftl::PageFtl* ftl() { return ftl_.get(); }
  // Null when the spec was not transactional.
  ftl::XFtl* xftl() { return xftl_; }
  flash::FlashDevice* flash() { return flash_.get(); }
  SimClock* clock() { return clock_; }

  // Simulated power cycle: the plug is pulled (undrained buffered programs
  // are lost, SATA front-end state evaporates), then the drive reboots and
  // rebuilds its volatile state from flash. Every reboot cross-checks the
  // recovered state with the offline invariant checker (xftl_fsck), so every
  // crash point in the suite is also an fsck test case.
  Status PowerCycle();

  // The two halves of PowerCycle, exposed separately for array controllers
  // (host::StripedVolume): CutPower never advances the shared clock, so a
  // controller can fail any subset of members — one fault domain or the
  // whole rail — at a single simulated instant, and only then run the
  // (clock-advancing) recoveries.
  void CutPower();
  Status Reboot();

  // Wires `tracer` into every in-drive layer (SATA front-end and raw
  // flash; the FTL/X-FTL layers reach it through the flash device).
  void SetTracer(trace::Tracer* tracer) {
    sata_->set_tracer(tracer);
    flash_->set_tracer(tracer);
  }

 private:
  const SsdSpec spec_;
  SimClock* const clock_;
  std::unique_ptr<flash::FlashDevice> flash_;
  std::unique_ptr<ftl::PageFtl> ftl_;
  ftl::XFtl* xftl_ = nullptr;
  std::unique_ptr<SataDevice> sata_;
};

}  // namespace xftl::storage

#endif  // XFTL_STORAGE_SIM_SSD_H_
