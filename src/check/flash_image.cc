#include "check/flash_image.h"

#include <cstdio>
#include <vector>

namespace xftl::check {
namespace {

constexpr uint32_t kImageMagic = 0x4d494658;  // "XFIM"
// v2 appended the array-placement fields (num_devices, device_index,
// stripe_pages) to the header; v3 adds each page's OOB block stamp. Older
// images are refused: their roots also predate the active-block list.
constexpr uint32_t kImageVersion = 3;

// Little-endian fixed-width scalar I/O; field-by-field, so the format is
// independent of struct layout and padding.
struct Writer {
  std::FILE* f;
  bool ok = true;

  void U32(uint32_t v) {
    uint8_t b[4] = {uint8_t(v), uint8_t(v >> 8), uint8_t(v >> 16),
                    uint8_t(v >> 24)};
    ok = ok && std::fwrite(b, 1, 4, f) == 4;
  }
  void U64(uint64_t v) {
    U32(uint32_t(v));
    U32(uint32_t(v >> 32));
  }
  void Bytes(const uint8_t* p, size_t n) {
    ok = ok && std::fwrite(p, 1, n, f) == n;
  }
};

struct Reader {
  std::FILE* f;
  bool ok = true;

  uint32_t U32() {
    uint8_t b[4];
    if (std::fread(b, 1, 4, f) != 4) {
      ok = false;
      return 0;
    }
    return uint32_t(b[0]) | uint32_t(b[1]) << 8 | uint32_t(b[2]) << 16 |
           uint32_t(b[3]) << 24;
  }
  uint64_t U64() {
    uint64_t lo = U32();
    return lo | uint64_t(U32()) << 32;
  }
  void Bytes(uint8_t* p, size_t n) { ok = ok && std::fread(p, 1, n, f) == n; }
};

}  // namespace

Status SaveImage(const flash::FlashDevice& dev, const ImageParams& params,
                 const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  const flash::FlashConfig& fc = dev.config();
  Writer w{f};
  w.U32(kImageMagic);
  w.U32(kImageVersion);
  w.U32(fc.page_size);
  w.U32(fc.pages_per_block);
  w.U32(fc.num_blocks);
  w.U32(fc.num_banks);
  w.U32(fc.sector_size);
  w.U32(fc.write_buffer_pages);
  w.U32(params.meta_blocks);
  w.U32(params.transactional ? 1 : 0);
  w.U64(params.num_logical_pages);
  w.U32(params.num_devices);
  w.U32(params.device_index);
  w.U32(params.stripe_pages);

  for (flash::BlockNum b = 0; b < fc.num_blocks; ++b) {
    w.U64(dev.EraseCount(b));
    w.U32(dev.IsBadBlock(b) ? 1 : 0);
    // Count, then dump, the block's non-erased pages.
    uint32_t recorded = 0;
    for (uint32_t p = 0; p < fc.pages_per_block; ++p) {
      flash::Ppn ppn = flash::Ppn(b) * fc.pages_per_block + p;
      if (dev.PageStateOf(ppn) != flash::FlashDevice::PageState::kErased) {
        recorded++;
      }
    }
    w.U32(recorded);
    for (uint32_t p = 0; p < fc.pages_per_block; ++p) {
      flash::Ppn ppn = flash::Ppn(b) * fc.pages_per_block + p;
      auto state = dev.PageStateOf(ppn);
      if (state == flash::FlashDevice::PageState::kErased) continue;
      w.U32(p);
      w.U32(state == flash::FlashDevice::PageState::kTorn ? 1 : 0);
      auto oob = dev.PeekOob(ppn);
      flash::PageOob o = oob.value_or(flash::PageOob{});
      w.U64(o.lpn);
      w.U64(o.seq);
      w.U64(o.tag);
      w.U64(o.link_lpn);
      w.U64(o.link_seq);
      w.U64(o.block_seq);
      w.Bytes(dev.PeekPageData(ppn), fc.page_size);
    }
  }
  bool ok = w.ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return Status::IoError("short write to " + path);
  return Status::OK();
}

StatusOr<LoadedImage> LoadImage(const std::string& path, SimClock* clock) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  Reader r{f};
  if (r.U32() != kImageMagic) {
    std::fclose(f);
    return Status::Corruption(path + ": not a flash image");
  }
  uint32_t version = r.U32();
  if (version != kImageVersion) {
    std::fclose(f);
    return Status::Corruption(path + ": unsupported image version");
  }
  LoadedImage img;
  img.config.page_size = r.U32();
  img.config.pages_per_block = r.U32();
  img.config.num_blocks = r.U32();
  img.config.num_banks = r.U32();
  img.config.sector_size = r.U32();
  img.config.write_buffer_pages = r.U32();
  img.params.meta_blocks = r.U32();
  img.params.transactional = r.U32() != 0;
  img.params.num_logical_pages = r.U64();
  img.params.num_devices = r.U32();
  img.params.device_index = r.U32();
  img.params.stripe_pages = r.U32();
  if (!r.ok || img.config.page_size == 0 || img.config.pages_per_block == 0 ||
      img.config.num_blocks == 0 || img.config.num_banks == 0) {
    std::fclose(f);
    return Status::Corruption(path + ": bad image header");
  }

  img.dev = std::make_unique<flash::FlashDevice>(img.config, clock);
  std::vector<uint8_t> data(img.config.page_size);
  for (flash::BlockNum b = 0; b < img.config.num_blocks; ++b) {
    uint64_t erase_count = r.U64();
    bool bad = r.U32() != 0;
    img.dev->RestoreBlockMeta(b, erase_count, bad);
    uint32_t recorded = r.U32();
    if (!r.ok || recorded > img.config.pages_per_block) {
      std::fclose(f);
      return Status::Corruption(path + ": bad block record");
    }
    for (uint32_t i = 0; i < recorded; ++i) {
      uint32_t p = r.U32();
      uint32_t torn = r.U32();
      flash::PageOob o;
      o.lpn = r.U64();
      o.seq = r.U64();
      o.tag = r.U64();
      o.link_lpn = r.U64();
      o.link_seq = r.U64();
      o.block_seq = r.U64();
      r.Bytes(data.data(), data.size());
      if (!r.ok || p >= img.config.pages_per_block) {
        std::fclose(f);
        return Status::Corruption(path + ": bad page record");
      }
      flash::Ppn ppn = flash::Ppn(b) * img.config.pages_per_block + p;
      img.dev->RestorePage(ppn,
                           torn != 0 ? flash::FlashDevice::PageState::kTorn
                                     : flash::FlashDevice::PageState::kProgrammed,
                           data.data(), o);
    }
  }
  std::fclose(f);
  if (!r.ok) return Status::IoError("short read from " + path);
  return img;
}

}  // namespace xftl::check
