#include "policies/tpp.h"

#include "common/units.h"

namespace hybridtier {

namespace {
constexpr uint64_t kFaultTimeBase = 1ULL << 47;
}  // namespace

TppPolicy::TppPolicy(const TppConfig& config)
    : NumaBalancingPolicy(config),
      active_window_ns_(config.active_window_ns) {}

void TppPolicy::BindRule(uint64_t footprint_units) {
  last_fault_time_.assign(footprint_units, 0);
}

bool TppPolicy::PromotesOnFault(PageId unit, const TouchResult& touch,
                                TimeNs now) {
  (void)touch;
  sink().Touch(kFaultTimeBase + (unit / 8) * kCacheLineSize);
  const TimeNs previous = last_fault_time_[unit];
  last_fault_time_[unit] = now;
  // Active-list test: this is at least the second reference within the
  // window, so the page is on the active LRU list -> promote.
  return previous != 0 && now - previous <= active_window_ns_;
}

size_t TppPolicy::MetadataBytes() const {
  return AgingBytes() + last_fault_time_.size() * sizeof(TimeNs);
}

}  // namespace hybridtier
