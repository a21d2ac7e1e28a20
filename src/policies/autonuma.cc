#include "policies/autonuma.h"

#include "common/units.h"

namespace hybridtier {

AutoNumaPolicy::AutoNumaPolicy(const AutoNumaConfig& config)
    : NumaBalancingPolicy(config),
      promotion_latency_ns_(config.promotion_latency_ns) {}

bool AutoNumaPolicy::PromotesOnFault(PageId unit, const TouchResult& touch,
                                     TimeNs now) {
  (void)now;
  // Fault handling updates the page's MGLRU state.
  sink().Touch(kLruBase + (unit / 16) * kCacheLineSize);
  // Promote on low hint-fault latency, with no frequency check: the
  // defining AutoNUMA behaviour (and its weakness: a single recent
  // access promotes a cold page).
  return touch.fault_latency_ns <= promotion_latency_ns_;
}

size_t AutoNumaPolicy::MetadataBytes() const {
  // Accessed-bit + generation state; AutoNUMA also keeps last-fault
  // scan bookkeeping in struct page (modeled at 4 B per unit).
  return AgingBytes() + context().footprint_units * 4;
}

}  // namespace hybridtier
