#ifndef HYBRIDTIER_MEM_TIER_H_
#define HYBRIDTIER_MEM_TIER_H_

/**
 * @file
 * Memory tier identifiers and per-tier configuration.
 *
 * Latency/bandwidth defaults follow the paper's emulation setup (§5.1):
 * local DDR4 DRAM as the fast tier and a remote-NUMA-emulated CXL device
 * with 124 ns idle latency and 34 GB/s bandwidth as the slow tier. The
 * slow tier's devices are described by a `Topology` (mem/topology.h),
 * whose `DefaultTopology()` is that one device.
 */

#include <cstdint>

#include "common/units.h"

namespace hybridtier {

/** Which memory tier a page lives in. */
enum class Tier : uint8_t {
  kFast = 0,  //!< CPU-attached local DRAM.
  kSlow = 1,  //!< CXL-attached memory.
};

/** Number of tiers. */
inline constexpr size_t kNumTiers = 2;

/** Short display name of a tier. */
inline const char* TierName(Tier tier) {
  return tier == Tier::kFast ? "fast" : "slow";
}

/** Static properties of one tier. */
struct TierConfig {
  uint64_t capacity_pages = 0;   //!< Capacity in 4 KiB pages.
  TimeNs idle_latency_ns = 0;    //!< Unloaded access latency.
  double bandwidth_gbps = 0.0;   //!< Peak bandwidth in GB/s (1e9 B/s).
};

/** Paper-default fast tier (local DDR4): ~80 ns idle, ~100 GB/s. */
inline TierConfig DefaultFastTier(uint64_t capacity_pages) {
  return TierConfig{.capacity_pages = capacity_pages,
                    .idle_latency_ns = 80,
                    .bandwidth_gbps = 100.0};
}

}  // namespace hybridtier

#endif  // HYBRIDTIER_MEM_TIER_H_
