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
 * The model is a classic write-allocate, true-LRU, set-associative cache
 * with 64-byte lines and at most `Cache::kMaxWays` (16) ways. Writebacks
 * are not modeled (they do not affect miss attribution, which is what
 * the figures report).
 *
 * This is the innermost structure of the whole simulator (two probes per
 * application access plus one per metadata line), so each set keeps
 * three small pieces of state:
 *
 *  - a *signature* per way: 16 bits of a multiply-shift hash of the tag.
 *    A probe compares all of a set's signatures at once (one SSE2
 *    compare for up to 8 ways, two for up to 16; a scalar loop off
 *    x86) and reads a way's full 64-bit tag only to verify a signature
 *    match, so distinct tags that share a signature never alias;
 *  - the full tag per way, in its own flat array;
 *  - a *recency word*: one `uint64_t` whose low `ways` nibbles list the
 *    ways in recency order as 4-bit way indices, most recent in the low
 *    nibble. A hit moves the way's nibble to the front with a few
 *    shifts; a miss evicts the way in nibble `ways - 1` and shifts the
 *    whole word up one nibble, so there is no per-way timestamp and no
 *    argmin. The word starts as [ways-1 ... 1, 0] (MRU to LRU): ways
 *    never touched since construction or `Flush` are evicted lowest
 *    index first.
 *
 * Hit/miss outcomes and eviction choices are those of a textbook LRU
 * cache (tests/reference/lru_cache.h replays traces against one).
 */

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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

/** One set-associative cache level with true-LRU replacement. */
class Cache {
 public:
  /** Largest supported associativity: a recency word holds 16 nibbles. */
  static constexpr uint32_t kMaxWays = 16;

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
    const uint16_t sig = Signature(tag);
    uint16_t* sigs = &sigs_[set << sig_stride_shift_];
    uint64_t* tags = &tags_[set * ways_];
    uint64_t& order = order_[set];
    bool hit = false;
    for (uint32_t match = MatchSignatures(sigs, sig); match != 0;
         match &= match - 1) {
      const auto way = static_cast<uint32_t>(std::countr_zero(match));
      if (tags[way] == tag) {
        order = MoveToFront(order, way);
        hit = true;
        break;
      }
    }
    if (!hit) {
      // The LRU way takes the tag and its nibble moves to the front.
      const auto victim = static_cast<uint32_t>(order >> lru_shift_) & 0xF;
      tags[victim] = tag;
      sigs[victim] = sig;
      order = (order << 4) | victim;
    }
    uint64_t* counters = hit ? stats_.hits : stats_.misses;
    ++counters[static_cast<size_t>(owner)];
    return hit;
  }

  /**
   * Hints the hardware to pull the set metadata for `line_addr` into
   * the host caches ahead of a future AccessLine — the hierarchy issues
   * this for the shared LLC while the (mostly-missing) L1 probe runs.
   * Only the signatures and the recency word are fetched: a full tag
   * is read only after a signature match.
   */
  void PrefetchLine(uint64_t line_addr) const {
    const uint64_t set = line_addr & (num_sets_ - 1);
    __builtin_prefetch(&sigs_[set << sig_stride_shift_], 1);
    __builtin_prefetch(&order_[set], 1);
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

  /** The 16-bit signature a probe compares before verifying `tag`. */
  static uint16_t Signature(uint64_t tag) {
    return static_cast<uint16_t>((tag * 0x9e3779b97f4a7c15ULL) >> 48);
  }

 private:
  /** Invalid-tag marker; real tags never reach it (addresses < 2^58). */
  static constexpr uint64_t kInvalidTag = UINT64_MAX;

  /** Bit w set iff way w's signature equals `sig` (w < ways_). */
  uint32_t MatchSignatures(const uint16_t* sigs, uint16_t sig) const {
#if defined(__SSE2__)
    // Signature rows are 8 or 16 lanes wide (padding lanes masked off).
    const __m128i key = _mm_set1_epi16(static_cast<short>(sig));
    const __m128i lo = _mm_cmpeq_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sigs)), key);
    const __m128i hi =
        sig_stride_shift_ == 4
            ? _mm_cmpeq_epi16(
                  _mm_loadu_si128(reinterpret_cast<const __m128i*>(sigs + 8)),
                  key)
            : _mm_setzero_si128();
    return static_cast<uint32_t>(
               _mm_movemask_epi8(_mm_packs_epi16(lo, hi))) &
           way_mask_;
#else
    uint32_t match = 0;
    for (uint32_t w = 0; w < ways_; ++w) {
      match |= static_cast<uint32_t>(sigs[w] == sig) << w;
    }
    return match;
#endif
  }

  /**
   * Moves `way`'s nibble in the recency word `order` to the front (MRU),
   * shifting the nibbles ahead of it back by one. The way's position is
   * the lowest zero nibble of `order ^ way * 0x11..1`. Nibbles past the
   * LRU one hold stale way indices (evictions shift them out of the
   * first `ways` nibbles and never clear them), but every way's live
   * nibble comes before them.
   */
  static uint64_t MoveToFront(uint64_t order, uint32_t way) {
    constexpr uint64_t kOnes = 0x1111111111111111ULL;
    const uint64_t x = order ^ (way * kOnes);
    const uint64_t zero = (x - kOnes) & ~x & (kOnes << 3);
    const int shift = std::countr_zero(zero) - 3;  // 4 * position.
    const uint64_t ahead = order & ((uint64_t{1} << shift) - 1);
    const uint64_t behind = order & ((~uint64_t{0} << shift) << 4);
    return behind | (ahead << 4) | way;
  }

  CacheConfig config_;
  std::string name_;
  uint64_t num_sets_;
  uint32_t set_shift_;
  uint32_t ways_;
  uint32_t sig_stride_shift_;  //!< log2 of the signature row: 3 or 4.
  uint32_t lru_shift_;         //!< 4 * (ways_ - 1): the LRU nibble.
  uint32_t way_mask_;          //!< Low ways_ bits.
  std::vector<uint16_t> sigs_;   //!< num_sets_ rows of 8 or 16 lanes.
  std::vector<uint64_t> tags_;   //!< num_sets_ * ways_.
  std::vector<uint64_t> order_;  //!< Per-set recency word.
  CacheStats stats_;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_CACHE_CACHE_SIM_H_
