#ifndef HYBRIDTIER_POLICIES_TPP_H_
#define HYBRIDTIER_POLICIES_TPP_H_

/**
 * @file
 * TPP baseline (Maruf et al., ASPLOS'23), reimplemented from its paper
 * and the HybridTier paper's characterization (§2.3.2, §8).
 *
 * TPP ("Transparent Page Placement") is Linux NUMA balancing plus an
 * active-list filter: a slow-tier page is promoted only when a hint
 * fault shows it was *re-referenced recently* (we model the LRU
 * active-list test as "second fault within a window"), which cuts some
 * of AutoNUMA's one-touch mispromotions but still ignores long-term
 * frequency. Demotion reclaims from the inactive list (the base's
 * accessed-bit aging) and keeps wider fast-tier headroom for new
 * allocations.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "policies/numa_balancing.h"

namespace hybridtier {

/** Tunables for the TPP baseline: TPP keeps larger free headroom than
 *  AutoNUMA (demote below 4%, up to 8%) to absorb allocation bursts. */
struct TppConfig : NumaBalancingConfig {
  TppConfig()
      : NumaBalancingConfig{.demote_trigger_frac = 0.04,
                            .demote_target_frac = 0.08} {}

  /** Two hint faults within this window mark a page active -> promote. */
  TimeNs active_window_ns = 100 * kMillisecond;
};

/** TPP tiering baseline. */
class TppPolicy final : public NumaBalancingPolicy {
 public:
  explicit TppPolicy(const TppConfig& config = TppConfig{});

  size_t MetadataBytes() const override;
  const char* name() const override { return "TPP"; }

 private:
  void BindRule(uint64_t footprint_units) override;
  bool PromotesOnFault(PageId unit, const TouchResult& touch,
                       TimeNs now) override;

  TimeNs active_window_ns_;
  std::vector<TimeNs> last_fault_time_;  //!< Per unit; 0 = never.
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_POLICIES_TPP_H_
