#ifndef HYBRIDTIER_CACHE_CACHE_SIM_H_
#define HYBRIDTIER_CACHE_CACHE_SIM_H_

/**
 * @file
 * Set-associative cache simulator.
 *
 * The paper quantifies tiering overhead partly as *cache misses caused by
 * tiering metadata updates* (Observation 3, Figs 5/13/14). To reproduce
 * those measurements without hardware counters, the simulator runs both
 * the application's memory accesses and the tiering runtime's metadata
 * accesses through a modeled two-level cache hierarchy and attributes
 * every hit/miss to its owner.
 *
 * The model is a classic write-allocate, LRU, set-associative cache with
 * 64-byte lines. Writebacks are not modeled (they do not affect miss
 * attribution, which is what the figures report).
 *
 * This is the innermost structure of the whole simulator (two probes per
 * application access plus one per metadata line), so the implementation
 * is layout-tuned: tags and LRU stamps live in separate flat arrays
 * (struct-of-arrays, so a tag probe reads one or two cache lines instead
 * of walking tag/stamp pairs), recency is a per-set 32-bit tick instead
 * of a global 64-bit timestamp (half the LRU state, same eviction
 * decisions — only the relative order of accesses *within* a set
 * matters), the probe is inlined into callers, and the tag scan uses
 * AVX2 compares when the host supports them. All of this is
 * behavior-invariant: hit/miss outcomes and eviction choices are
 * identical to the reference implementation.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace hybridtier {

/** Who issued a memory access — used for miss attribution. */
enum class AccessOwner : uint8_t {
  kApp = 0,      //!< The application workload.
  kTiering = 1,  //!< The tiering runtime (metadata + scans).
};

/** Number of distinct AccessOwner values. */
inline constexpr size_t kNumOwners = 2;

/** Geometry of one cache level. */
struct CacheConfig {
  uint64_t size_bytes = 512 * 1024;  //!< Total capacity.
  uint32_t ways = 8;                 //!< Associativity.
  uint32_t line_size = 64;           //!< Line size in bytes.
};

/** Hit/miss counters, split by access owner. */
struct CacheStats {
  uint64_t hits[kNumOwners] = {0, 0};
  uint64_t misses[kNumOwners] = {0, 0};

  /** Total hits across owners. */
  uint64_t total_hits() const { return hits[0] + hits[1]; }
  /** Total misses across owners. */
  uint64_t total_misses() const { return misses[0] + misses[1]; }

  /** Fraction of all misses attributed to `owner` (0 if no misses). */
  double MissShare(AccessOwner owner) const {
    const uint64_t total = total_misses();
    if (total == 0) return 0.0;
    return static_cast<double>(misses[static_cast<size_t>(owner)]) /
           static_cast<double>(total);
  }

  /** Resets all counters. */
  void Reset() { *this = CacheStats{}; }
};

namespace detail {

/** Host AVX2 support, resolved once at load time. */
inline const bool kHaveAvx2 = [] {
#if defined(__x86_64__) || defined(__i386__)
  return static_cast<bool>(__builtin_cpu_supports("avx2"));
#else
  return false;
#endif
}();

/**
 * The whole per-set access: probe `tags[0..ways)` for `tag`; on hit
 * refresh the way's stamp, on miss evict the LRU way (lowest stamp,
 * lowest index on ties) and install the tag. Returns true on hit.
 * `ways` must be a positive multiple of 4 for the AVX2 kernel, which is
 * defined out of line so it can carry the target attribute without
 * infecting callers' codegen; one call covers all the SIMD-able work.
 */
bool AccessWaysAvx2(uint64_t* tags, uint32_t* stamps, uint32_t ways,
                    uint64_t tag, uint32_t tick);

/** Scalar equivalent (any associativity). */
inline bool AccessWaysScalar(uint64_t* tags, uint32_t* stamps,
                             uint32_t ways, uint64_t tag, uint32_t tick) {
  for (uint32_t w = 0; w < ways; ++w) {
    if (tags[w] == tag) {
      stamps[w] = tick;
      return true;
    }
  }
  uint32_t victim = 0;
  uint32_t best = stamps[0];
  for (uint32_t w = 1; w < ways; ++w) {
    if (stamps[w] < best) {
      best = stamps[w];
      victim = w;
    }
  }
  tags[victim] = tag;
  stamps[victim] = tick;
  return false;
}

}  // namespace detail

/** One set-associative cache level with true-LRU replacement. */
class Cache {
 public:
  /** Builds a cache with the given geometry; sizes are validated. */
  explicit Cache(const CacheConfig& config, std::string name = "cache");

  /**
   * Accesses the line containing `line_addr` (already line-granular — the
   * caller divides byte addresses by the line size). Returns true on hit.
   * On miss the line is allocated, evicting the LRU way.
   */
  bool AccessLine(uint64_t line_addr, AccessOwner owner) {
    const uint64_t set = line_addr & (num_sets_ - 1);
    const uint64_t tag = line_addr >> set_shift_;
    uint64_t* tags = &tags_[set * ways_];
    uint32_t* stamps = &stamps_[set * ways_];
    uint32_t tick = ++set_ticks_[set];
    if (tick == 0) [[unlikely]] {
      tick = RenormalizeSet(set);
    }
    // Eviction on miss takes the LRU way: lowest stamp, lowest index on
    // the only possible tie (the untouched stamp==0 initial state) —
    // matching the reference implementation's strict-< scan.
    const bool hit =
        (detail::kHaveAvx2 && (ways_ & 3u) == 0)
            ? detail::AccessWaysAvx2(tags, stamps, ways_, tag, tick)
            : detail::AccessWaysScalar(tags, stamps, ways_, tag, tick);
    uint64_t* counters = hit ? stats_.hits : stats_.misses;
    ++counters[static_cast<size_t>(owner)];
    return hit;
  }

  /**
   * Hints the hardware to pull the set metadata for `line_addr` into
   * the host caches ahead of a future AccessLine — the hierarchy issues
   * this for the shared LLC while the (mostly-missing) L1 probe runs.
   */
  void PrefetchLine(uint64_t line_addr) const {
    const uint64_t set = line_addr & (num_sets_ - 1);
    const uint64_t* tags = &tags_[set * ways_];
    __builtin_prefetch(tags, 1);
    if (ways_ > 8) __builtin_prefetch(tags + 8, 1);
    __builtin_prefetch(&stamps_[set * ways_], 1);
  }

  /** Counts `count` hits for `owner` without probing: exact only for
   *  repeats of the line accessed last (CacheHierarchy::ReplayTiering). */
  void AddHits(AccessOwner owner, uint64_t count) {
    stats_.hits[static_cast<size_t>(owner)] += count;
  }

  /** Invalidates all lines and clears LRU state (stats are kept). */
  void Flush();

  /** Accumulated statistics. */
  const CacheStats& stats() const { return stats_; }

  /** Resets statistics only. */
  void ResetStats() { stats_.Reset(); }

  /** Number of sets. */
  uint64_t num_sets() const { return num_sets_; }

  /** Geometry used to build this cache. */
  const CacheConfig& config() const { return config_; }

  /** Human-readable level name (e.g. "L1d-app", "LLC"). */
  const std::string& name() const { return name_; }

 private:
  /** Invalid-tag marker; real tags never reach it (addresses < 2^58). */
  static constexpr uint64_t kInvalidTag = UINT64_MAX;

  /**
   * Handles per-set tick wraparound (2^32 accesses to one set):
   * rank-compresses the set's stamps so relative recency is preserved,
   * restarts the set clock above them, and returns the fresh tick.
   */
  uint32_t RenormalizeSet(uint64_t set);

  CacheConfig config_;
  std::string name_;
  uint64_t num_sets_;
  uint32_t set_shift_;
  uint32_t ways_;
  std::vector<uint64_t> tags_;       //!< num_sets_ * ways_, SoA.
  std::vector<uint32_t> stamps_;     //!< Per-way recency, per-set clock.
  std::vector<uint32_t> set_ticks_;  //!< Per-set access counter.
  CacheStats stats_;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_CACHE_CACHE_SIM_H_
