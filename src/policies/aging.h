#ifndef HYBRIDTIER_POLICIES_AGING_H_
#define HYBRIDTIER_POLICIES_AGING_H_

/**
 * @file
 * Accessed-bit aging helper (MGLRU-style generations).
 *
 * Kernel reclaim infers recency from hardware accessed bits harvested by
 * periodic page-table scans. AutoNUMA's MGLRU demotion and TPP's
 * inactive-list demotion both reduce to: pages not accessed for more
 * scan generations are colder. This helper tracks one accessed bit per
 * tracking unit (set on every demand access — that is hardware
 * behaviour, free to the kernel) and a small age counter incremented by
 * the periodic scan when the bit is clear.
 */

#include <cstdint>
#include <vector>

#include "mem/page.h"

namespace hybridtier {

/** Per-unit accessed-bit ages with periodic harvest scans. */
class ClockAger {
 public:
  /** @param num_units tracking units covered. */
  explicit ClockAger(uint64_t num_units)
      : accessed_(num_units, 0), age_(num_units, 0) {}

  /** Hardware side: marks `unit` accessed. */
  void MarkAccessed(PageId unit) { accessed_[unit] = 1; }

  /**
   * Harvest scan over [start, start+count): pages with the accessed bit
   * set get age 0 and the bit cleared; others age by one generation
   * (saturating at 255). Returns units scanned.
   */
  uint64_t Scan(PageId start, uint64_t count);

  /** Age in generations since last observed access. */
  uint8_t AgeOf(PageId unit) const { return age_[unit]; }

  /** Units covered. */
  uint64_t size() const { return age_.size(); }

  /** Metadata bytes consumed (1 bit modeled as 1 byte + 1 byte age). */
  size_t memory_bytes() const { return accessed_.size() + age_.size(); }

 private:
  std::vector<uint8_t> accessed_;
  std::vector<uint8_t> age_;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_POLICIES_AGING_H_
