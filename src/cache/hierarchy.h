#ifndef HYBRIDTIER_CACHE_HIERARCHY_H_
#define HYBRIDTIER_CACHE_HIERARCHY_H_

/**
 * @file
 * Two-level cache hierarchy: private L1s for the application core and the
 * tiering core, plus a shared LLC.
 *
 * This mirrors the paper's measurement setup (§6.3.3): the application
 * runs on its own cores while the single tiering runtime thread runs on
 * another, so they have private L1s but contend in the shared LLC — which
 * is exactly how tiering metadata traffic interferes with the app.
 */

#include <cstdint>
#include <span>

#include "cache/cache_sim.h"
#include "common/units.h"

namespace hybridtier {

/** The level at which an access was served. */
enum class HitLevel : uint8_t {
  kL1 = 0,      //!< Private L1 hit.
  kLlc = 1,     //!< Shared LLC hit.
  kMemory = 2,  //!< Missed all caches; served from a memory tier.
};

/**
 * Geometry for the full hierarchy.
 *
 * Defaults are scaled down ~50-100x from the evaluation machine (Xeon
 * 4314: 48 KiB L1d, 24 MiB LLC) to match the simulator's ~1000x-scaled
 * workload footprints, preserving the paper's key size relations:
 * application footprint >> LLC, exact per-page tiering metadata > LLC,
 * HybridTier's CBF < LLC.
 */
struct HierarchyConfig {
  CacheConfig l1{.size_bytes = 16 * 1024, .ways = 8, .line_size = 64};
  CacheConfig llc{.size_bytes = 256 * 1024, .ways = 16, .line_size = 64};
};

/** Two private L1 caches over a shared LLC, with per-owner attribution. */
class CacheHierarchy {
 public:
  explicit CacheHierarchy(const HierarchyConfig& config = HierarchyConfig{});

  /**
   * Accesses the 64-byte line containing byte address `addr` on behalf of
   * `owner` and returns the level that served it.
   */
  HitLevel Access(uint64_t addr, AccessOwner owner) {
    return AccessLine(addr / kCacheLineSize, owner);
  }

  /** Same as Access but takes an already line-granular address. */
  HitLevel AccessLine(uint64_t line_addr, AccessOwner owner) {
    Cache& l1 = owner == AccessOwner::kApp ? l1_app_ : l1_tiering_;
    // Pull the LLC set state toward the host core while the L1 probe
    // runs: the L1 mostly misses (footprints dwarf it), so the LLC probe
    // is on the critical path nearly every access.
    llc_.PrefetchLine(line_addr);
    if (l1.AccessLine(line_addr, owner)) return HitLevel::kL1;
    if (llc_.AccessLine(line_addr, owner)) return HitLevel::kLlc;
    return HitLevel::kMemory;
  }

  /**
   * Replays a folded run of tiering-core accesses: each byte address of
   * `lines` through Access in order, then `repeats` accesses that each
   * repeated the line before them (folded metadata touches, see
   * `MetadataTrafficCounter`). Nothing else reaches the tiering L1
   * inside the run, so each repeat would hit the most-recently-used way
   * of its set and never reach the LLC; counting them as tiering L1
   * hits gives every level the statistics and the contents that
   * replaying them one by one gives.
   */
  void ReplayTiering(std::span<const uint64_t> lines, uint64_t repeats);

  /** Statistics of the application-core L1. */
  const CacheStats& l1_app_stats() const { return l1_app_.stats(); }
  /** Statistics of the tiering-core L1. */
  const CacheStats& l1_tiering_stats() const { return l1_tiering_.stats(); }
  /** Statistics of the shared LLC. */
  const CacheStats& llc_stats() const { return llc_.stats(); }

  /**
   * Combined L1 miss count for `owner` — the paper's "L1 misses" metric
   * sums the private L1s.
   */
  uint64_t L1Misses(AccessOwner owner) const;

  /** LLC miss count attributed to `owner`. */
  uint64_t LlcMisses(AccessOwner owner) const;

  /** Fraction of L1 misses attributed to tiering (Fig 5/13 Y-axis). */
  double TieringL1MissShare() const;

  /** Fraction of LLC misses attributed to tiering (Fig 5/13 Y-axis). */
  double TieringLlcMissShare() const;

  /** Clears statistics on every level (contents are kept). */
  void ResetStats();

  /** Invalidates every level. */
  void Flush();

  /** Geometry in use. */
  const HierarchyConfig& config() const { return config_; }

 private:
  HierarchyConfig config_;
  Cache l1_app_;
  Cache l1_tiering_;
  Cache llc_;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_CACHE_HIERARCHY_H_
