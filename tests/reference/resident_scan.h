#ifndef HYBRIDTIER_TESTS_REFERENCE_RESIDENT_SCAN_H_
#define HYBRIDTIER_TESTS_REFERENCE_RESIDENT_SCAN_H_

/**
 * @file
 * Reference `TieredMemory::ScanResident`, written from its contract
 * alone: walk the units of [start, start+count) clipped to the address
 * space one by one, and report each resident unit of the wanted tier in
 * ascending order. Returns the units walked.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mem/tiered_memory.h"

namespace hybridtier::reference {

/** Units of `tier` resident in [start, start+count), ascending, plus the
 *  number of units walked. */
struct ScanResult {
  std::vector<PageId> visited;
  uint64_t walked = 0;
};

inline ScanResult ScanResident(const TieredMemory& memory, PageId start,
                               uint64_t count, Tier tier) {
  ScanResult result;
  const PageId end = std::min<PageId>(start + count, memory.total_pages());
  for (PageId page = start; page < end; ++page) {
    ++result.walked;
    if (memory.IsResident(page) && memory.TierOf(page) == tier) {
      result.visited.push_back(page);
    }
  }
  return result;
}

}  // namespace hybridtier::reference

#endif  // HYBRIDTIER_TESTS_REFERENCE_RESIDENT_SCAN_H_
