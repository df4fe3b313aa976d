#include "storage/sim_ssd.h"

#include "check/xftl_fsck.h"

namespace xftl::storage {

namespace {

uint64_t LogicalPagesFor(const flash::FlashConfig& fc, const ftl::FtlConfig& cfg,
                         double utilization) {
  CHECK_GT(utilization, 0.0);
  CHECK_LT(utilization, 1.0);
  uint64_t data_pages =
      uint64_t(fc.num_blocks - cfg.meta_blocks) * fc.pages_per_block;
  uint64_t reserve = uint64_t(cfg.min_free_blocks + 2) * fc.pages_per_block;
  CHECK_GT(data_pages, reserve);
  return uint64_t(double(data_pages - reserve) * utilization);
}

}  // namespace

SsdSpec OpenSsdSpec(uint32_t num_blocks, double utilization) {
  SsdSpec spec;
  spec.flash.page_size = 8192;
  spec.flash.pages_per_block = 128;
  spec.flash.num_blocks = num_blocks;
  spec.flash.num_banks = 4;
  // The 87.5 MHz Barefoot controller moves data slowly and keeps a shallow
  // write buffer, which is why the real board's random-write IOPS are low.
  spec.flash.write_buffer_pages = 8;
  spec.flash.timings.read_page = Micros(200);
  spec.flash.timings.program_page = Micros(1300);
  spec.flash.timings.erase_block = Micros(3000);
  spec.flash.timings.bus_per_page = Micros(110);

  spec.ftl.meta_blocks = 8;
  spec.ftl.min_free_blocks = 4;
  spec.ftl.num_logical_pages = LogicalPagesFor(spec.flash, spec.ftl, utilization);

  spec.xftl.xl2p_capacity = 500;  // 8 KB table, as in the paper

  spec.sata.command_overhead = Micros(45);
  spec.sata.transfer_per_page = Micros(27);  // 8 KB at ~300 MB/s
  return spec;
}

SsdSpec S830Spec(uint32_t num_blocks, double utilization) {
  SsdSpec spec = OpenSsdSpec(num_blocks, utilization);
  // One controller generation newer: four times the interleaving, deeper
  // queues, faster sensing, SATA 6G link, and a power-loss-protected cache
  // that lets FLUSH return as soon as the write buffer drains.
  spec.flash.num_banks = 16;
  spec.flash.write_buffer_pages = 64;
  spec.flash.timings.read_page = Micros(90);
  spec.flash.timings.program_page = Micros(1200);
  spec.flash.timings.bus_per_page = Micros(25);
  spec.ftl.num_logical_pages = LogicalPagesFor(spec.flash, spec.ftl, utilization);
  spec.ftl.fast_barrier = true;
  spec.ftl.commit_mode = ftl::CommitMode::kPlp;
  spec.sata.command_overhead = Micros(8);
  spec.sata.transfer_per_page = Micros(14);  // 8 KB at ~600 MB/s
  return spec;
}

SimSsd::SimSsd(const SsdSpec& spec, SimClock* clock)
    : spec_(spec), clock_(clock) {
  flash_ = std::make_unique<flash::FlashDevice>(spec.flash, clock);
  if (spec.transactional) {
    auto x = std::make_unique<ftl::XFtl>(flash_.get(), spec.ftl, spec.xftl);
    xftl_ = x.get();
    ftl_ = std::move(x);
  } else {
    ftl_ = std::make_unique<ftl::PageFtl>(flash_.get(), spec.ftl);
  }
  sata_ = std::make_unique<SataDevice>(ftl_.get(), spec.sata, clock,
                                       spec.link_fault, spec.link_policy);
}

Status SimSsd::PowerCycle() {
  CutPower();
  return Reboot();
}

void SimSsd::CutPower() {
  // PLP firmware spends its capacitor on an emergency checkpoint: drain the
  // program buffer into the cells and persist the mapping plus the X-L2P
  // snapshot, making every acknowledged commit durable. Best effort — a
  // flash array already failing when power drops cannot take the
  // checkpoint, and recovery then falls back to the last ordinary one.
  if (xftl_ != nullptr && spec_.ftl.commit_mode == ftl::CommitMode::kPlp) {
    (void)xftl_->Checkpoint();
  }
  // Pulling the plug drops whatever the volatile program buffer still held
  // and forgets in-flight host transactions; only then does the firmware
  // boot and rebuild from what actually reached the cells. (Recover() also
  // clears the device's failed latch via ClearFailure.)
  flash_->PowerCut();
  sata_->ResetVolatile();
}

Status SimSsd::Reboot() {
  XFTL_RETURN_IF_ERROR(ftl_->Recover());
  check::FsckOptions opt;
  opt.ftl = spec_.ftl;
  opt.transactional = spec_.transactional;
  check::FsckReport report = check::CheckRecovered(*flash_, opt, *ftl_);
  if (!report.ok()) {
    return Status::Corruption("post-recovery fsck failed:\n" +
                              report.Summary());
  }
  return Status::OK();
}

}  // namespace xftl::storage
