#ifndef HYBRIDTIER_POLICIES_SCAN_UTIL_H_
#define HYBRIDTIER_POLICIES_SCAN_UTIL_H_

/**
 * @file
 * Demotion and promotion-batch mechanics shared by the tiering policies
 * (HybridTier, Memtis, TPP, AutoNUMA): the free-watermark deficit, the
 * budgeted, wrapping resident-page scan their demoters walk, and the
 * batched promotion flush of the sample-driven designs. Keeping the
 * arithmetic in one place keeps the accounting (when to demote and how
 * much, charge what was visited, wrap at the footprint, migrate each
 * page once) from diverging between policies.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "mem/migration.h"
#include "mem/page.h"
#include "mem/tiered_memory.h"

namespace hybridtier {

/**
 * Fast-tier pages to demote under the free watermarks: 0 while the
 * free fraction is at or above `trigger_frac` (or the tier is empty),
 * otherwise the pages that lift free space back to `target_frac` of
 * capacity. Panics when the target lies below the trigger.
 */
inline uint64_t FreeWatermarkDeficit(const TieredMemory& memory,
                                     double trigger_frac,
                                     double target_frac) {
  HT_ASSERT(target_frac >= trigger_frac,
            "demotion target watermark below trigger watermark");
  const uint64_t capacity = memory.Capacity(Tier::kFast);
  if (capacity == 0) return 0;
  const uint64_t free_pages = memory.FreePages(Tier::kFast);
  if (static_cast<double>(free_pages) / static_cast<double>(capacity) >=
      trigger_frac) {
    return 0;
  }
  const uint64_t target_free = static_cast<uint64_t>(
      target_frac * static_cast<double>(capacity));
  return target_free > free_pages ? target_free - free_pages : 0;
}

/**
 * Scans resident pages of `tier` from `*cursor` in chunks of up to 1024
 * units, wrapping at `footprint`, until `budget` units were visited or
 * `done()` returns true (checked between chunks, as the real pagemap
 * walks batch their work). Charges only units actually visited — the
 * tail chunk is clipped at the footprint, and charging its nominal size
 * would under-scan passes near the wrap. Advances `*cursor` and returns
 * the units visited. Templated on both callbacks so the per-unit
 * classification inlines into the scan loop.
 */
template <typename DoneFn, typename UnitFn>
inline uint64_t BudgetedResidentScan(
    const TieredMemory& memory, PageId* cursor, uint64_t footprint,
    uint64_t budget, Tier tier, const DoneFn& done, const UnitFn& fn) {
  uint64_t scanned = 0;
  while (scanned < budget && !done()) {
    const uint64_t chunk = std::min<uint64_t>(1024, budget - scanned);
    const uint64_t visited = memory.ScanResident(*cursor, chunk, tier, fn);
    if (visited == 0) break;  // Defensive: never spin on an empty scan.
    scanned += visited;
    *cursor += visited;
    if (*cursor >= footprint) *cursor = 0;
  }
  return scanned;
}

/**
 * Migrates a batch of sampled promotion candidates: sorts and dedupes
 * `*pending` (a hot page is sampled many times per batch; migrate it
 * once), first calls `demote(pages)` for the fast-tier shortfall when
 * the batch outgrows free space (demand demotion, as the runtime's
 * demotion path makes room under allocation pressure), then promotes
 * the whole batch in one call (one batched move_pages syscall, paper
 * §4.3) and clears `*pending`. No-op on an empty batch.
 */
template <typename DemoteFn>
inline void FlushPromotionBatch(std::vector<PageId>* pending,
                                const TieredMemory& memory,
                                MigrationEngine& migration, TimeNs now,
                                const DemoteFn& demote) {
  if (pending->empty()) return;
  std::sort(pending->begin(), pending->end());
  pending->erase(std::unique(pending->begin(), pending->end()),
                 pending->end());
  const uint64_t free_pages = memory.FreePages(Tier::kFast);
  if (free_pages < pending->size()) demote(pending->size() - free_pages);
  migration.Promote(*pending, now, MigrationReason::kHotnessRank);
  pending->clear();
}

}  // namespace hybridtier

#endif  // HYBRIDTIER_POLICIES_SCAN_UTIL_H_
