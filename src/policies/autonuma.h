#ifndef HYBRIDTIER_POLICIES_AUTONUMA_H_
#define HYBRIDTIER_POLICIES_AUTONUMA_H_

/**
 * @file
 * AutoNUMA baseline (Linux NUMA balancing with MGLRU demotion), as
 * described in the paper (§2.3.2, §5.2).
 *
 * AutoNUMA is *recency-based*: the elapsed time between a page's unmap
 * and its hint fault is the page's hint-fault latency, and pages whose
 * latency is under a threshold (1 second upstream) are promoted
 * immediately — regardless of access history, which is exactly why it
 * mispromotes cold pages (paper Fig 4). The protect scan, rate limiter
 * and MGLRU demotion live in the NUMA-balancing base.
 */

#include <cstddef>

#include "policies/numa_balancing.h"

namespace hybridtier {

/** Tunables for the AutoNUMA baseline. */
struct AutoNumaConfig : NumaBalancingConfig {
  /** Hint-fault latency below which a slow page is promoted. */
  TimeNs promotion_latency_ns = 20 * kMillisecond;
};

/** Linux AutoNUMA + MGLRU tiering baseline. */
class AutoNumaPolicy final : public NumaBalancingPolicy {
 public:
  explicit AutoNumaPolicy(const AutoNumaConfig& config = AutoNumaConfig{});

  size_t MetadataBytes() const override;
  const char* name() const override { return "AutoNUMA"; }

 private:
  bool PromotesOnFault(PageId unit, const TouchResult& touch,
                       TimeNs now) override;

  TimeNs promotion_latency_ns_;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_POLICIES_AUTONUMA_H_
