// Offline invariant checker for powered-off flash images ("fsck for the
// FTL"). Given a raw image — the flash array exactly as a power cut left it
// — the checker independently re-derives what recovery must arrive at
// (newest whole checkpoint epoch, OOB roll-forward, newest complete X-L2P
// snapshot) using only side-effect-free peeks, and validates the durability
// invariants the paper's §5 recovery argument rests on:
//
//   1. The L2P (and every retained X-L2P entry) never maps to an erased or
//      torn physical page, and no physical page is claimed by two lpns.
//   2. Every COMMITTED X-L2P entry in the newest complete snapshot is
//      reachable after recovery (its mapping applies, or a newer durable
//      write supersedes it); every ACTIVE entry is discarded.
//   3. GC validity accounting agrees with the union of the mapping tables
//      (cross-checked against a recovered FTL via CheckRecovered).
//   4. The persisted grown-bad-block table is in range, duplicate-free and
//      consistent with the blocks the device itself reports bad.
//   5. Every readable page of a good data block carries its page 0's block
//      stamp (PageOob::block_seq), which is what lets a checkpoint-bounded
//      boot date a whole block by its first page.
//
// The derivation deliberately re-implements the on-flash format parsing
// rather than calling into PageFtl/XFtl — a checker that shares the code it
// checks can only confirm bugs, not find them. It assumes scan-time reads
// are ECC-clean (the offline peek cannot sample read-disturb noise), which
// holds for every crash-sweep configuration.
#ifndef XFTL_CHECK_XFTL_FSCK_H_
#define XFTL_CHECK_XFTL_FSCK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "check/flash_image.h"
#include "flash/flash_device.h"
#include "ftl/page_ftl.h"

namespace xftl::check {

struct FsckOptions {
  ftl::FtlConfig ftl;
  // Expect X-L2P snapshot epochs in the meta ring (X-FTL image). When
  // false, any kTagXl2p page is itself an inconsistency.
  bool transactional = false;
};

struct FsckCounters {
  uint64_t roots_found = 0;        // CRC-valid root records in the ring
  uint64_t root_fallbacks = 0;     // epochs skipped for missing segments
  uint64_t torn_meta_pages = 0;    // torn / CRC-invalid meta-ring pages
  uint64_t snapshots_skipped = 0;  // incomplete X-L2P epochs skipped
  uint64_t mapped_lpns = 0;        // lpns mapped after derivation
  uint64_t committed_entries = 0;  // in the winning X-L2P snapshot
  uint64_t active_entries = 0;     // discarded by derivation
  uint64_t in_doubt_entries = 0;   // PREPARED entries (array 2PC in-doubt)
  uint64_t commit_records = 0;     // coordinator commit records retained
  uint64_t persisted_bad_blocks = 0;
  // Data pages beyond page 0 that a checkpoint-bounded boot must sense:
  // every page written after the loaded root (blocks stamped after it, and
  // the tails of the blocks it lists as active), plus each committed or
  // prepared X-L2P entry's page and its lpn's checkpointed copy.
  uint64_t post_root_pages = 0;
};

struct FsckReport {
  std::vector<std::string> errors;
  FsckCounters counters;

  bool ok() const { return errors.empty(); }
  // One line per error plus a counter summary, for the CLI tool and test
  // failure messages.
  std::string Summary() const;
};

// Checks invariants 1, 2, 4 and 5 directly on the image.
FsckReport CheckImage(const flash::FlashDevice& dev, const FsckOptions& opt);

// CheckImage, plus cross-checks the derivation against an FTL that has just
// recovered from this same image: the loaded root's seq and (X-FTL) the
// loaded snapshot's id, L2P equality per lpn, per-block GC validity counts
// (invariant 3), and bad-block agreement in both directions. Runs after
// every PowerCycle()/CrashAndRecover() in tests.
FsckReport CheckRecovered(const flash::FlashDevice& dev,
                          const FsckOptions& opt, const ftl::PageFtl& ftl);

// Array-level cross-check over the per-member images of one striped volume
// (host::StripedVolume): the member set forms a bijection onto the stripe
// map (device_index exactly {0..N-1}, all geometry consistent), each member
// is individually consistent (CheckImage, errors prefixed "member k:"), and
// the two-phase-commit atomicity invariant holds — a transaction id that is
// durably in-doubt (PREPARED) on one member while durably COMMITTED on
// another must have a commit record on the coordinator (member 0), and
// commit records live only there. Without the record, recovery would abort
// the in-doubt member and tear the transaction.
FsckReport CheckArray(const std::vector<LoadedImage>& members);

}  // namespace xftl::check

#endif  // XFTL_CHECK_XFTL_FSCK_H_
