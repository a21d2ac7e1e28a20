#ifndef HYBRIDTIER_MEM_PAGE_H_
#define HYBRIDTIER_MEM_PAGE_H_

/**
 * @file
 * Page identifiers and address arithmetic.
 *
 * The simulated application address space is a flat range of 4 KiB pages
 * numbered 0..footprint-1. Workload generators emit byte addresses inside
 * that space; the memory system operates on `PageId`s. Huge-page mode
 * groups 512 consecutive base pages into one 2 MiB migration/tracking
 * unit.
 */

#include <cstdint>

#include "common/units.h"

namespace hybridtier {

/** Index of a 4 KiB page within the simulated address space. */
using PageId = uint64_t;

/** Sentinel for "no page". */
inline constexpr PageId kInvalidPage = UINT64_MAX;

/** Page containing byte address `addr`. */
inline PageId PageOfAddr(uint64_t addr) { return addr / kPageSize; }

/** First byte address of page `page`. */
inline uint64_t AddrOfPage(PageId page) { return page * kPageSize; }

/** 2 MiB huge page containing base page `page`. */
inline PageId HugePageOf(PageId page) { return page / kPagesPerHugePage; }

/** First base page of huge page `huge`. */
inline PageId FirstPageOfHuge(PageId huge) {
  return huge * kPagesPerHugePage;
}

/** Page granularity selector for the tracking/migration unit. */
enum class PageMode : uint8_t {
  kRegular = 0,  //!< 4 KiB pages.
  kHuge = 1,     //!< 2 MiB transparent huge pages.
};

/** Bytes per page under `mode`. */
inline uint64_t PageBytes(PageMode mode) {
  return mode == PageMode::kRegular ? kPageSize : kHugePageSize;
}

/** Converts a byte address to the tracking unit id under `mode`. */
inline PageId TrackingUnitOfAddr(uint64_t addr, PageMode mode) {
  return addr / PageBytes(mode);
}

/** Half-open range of pages [begin, end). */
struct PageRange {
  PageId begin = 0;
  PageId end = 0;

  /** Number of pages in the range. */
  uint64_t size() const { return end - begin; }
  /** True if the range contains `page`. */
  bool Contains(PageId page) const { return page >= begin && page < end; }
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_MEM_PAGE_H_
