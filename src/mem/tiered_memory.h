#ifndef HYBRIDTIER_MEM_TIERED_MEMORY_H_
#define HYBRIDTIER_MEM_TIERED_MEMORY_H_

/**
 * @file
 * The tiered physical memory substrate.
 *
 * Tracks, for every page of the simulated application address space,
 * whether it is resident, which tier it lives in, and whether it is
 * "protected" (unmapped for NUMA-hint-fault sampling, as AutoNUMA and TPP
 * do). Pages here are *tracking units*: 4 KiB in regular mode, 2 MiB in
 * huge-page mode — the granularity at which placement and migration
 * happen.
 *
 * Placement policy on first touch follows Linux: allocate in the fast
 * tier while it has free capacity, then overflow to the slow tier.
 * ARC/TwoQ baselines instead allocate new pages directly in the slow tier
 * (paper §5.2), selectable via AllocationPolicy.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "mem/page.h"
#include "mem/tier.h"

namespace hybridtier {

/** Where newly touched pages are allocated. */
enum class AllocationPolicy : uint8_t {
  kFastFirst = 0,  //!< Linux default: fast tier until full, then slow.
  kSlowOnly = 1,   //!< Always slow tier (ARC/TwoQ baselines).
};

/** Outcome of touching (accessing) a page. */
struct TouchResult {
  Tier tier = Tier::kSlow;     //!< Tier that served the access.
  /** Slow-tier endpoint that served (or would serve) the access — the
   *  page's static HDM-decoded home device. 0 when tier == kFast or
   *  with a single-endpoint layout. */
  uint32_t endpoint = 0;
  bool first_touch = false;    //!< Page was allocated by this access.
  bool hint_fault = false;     //!< Access hit a protected page (NUMA hint).
  TimeNs fault_latency_ns = 0; //!< now - protect time, when hint_fault.
};

/**
 * HDM decode without a division: the slow-tier endpoint of `page` is
 * `(page / interleave_units) % endpoint_count`, the stripe's position in
 * the interleave period of `interleave_units * endpoint_count` units.
 * The decoder keeps the reciprocal M = ceil(2^64 / period): `M * page`
 * (mod 2^64) is the page's offset inside its period scaled to 2^64, and
 * the high word of that times `endpoint_count` is the stripe's endpoint
 * (Lemire's fastmod, with the quotient taken by `interleave_units`
 * folded into the period). The result is exact while
 * `page * period < 2^64` (`max_exact_page`); callers assert their
 * largest page against it.
 */
class HdmDecoder {
 public:
  /**
   * @param endpoint_count   slow-tier endpoints (>= 1).
   * @param interleave_units tracking units per stripe (>= 1).
   */
  HdmDecoder(uint32_t endpoint_count, uint64_t interleave_units)
      : endpoint_count_(endpoint_count) {
    HT_ASSERT(endpoint_count >= 1 && interleave_units >= 1,
              "endpoint layout needs >= 1 endpoint and a positive "
              "interleave granularity");
    HT_ASSERT(interleave_units <= UINT64_MAX / endpoint_count,
              "interleave period of ", endpoint_count, " x ",
              interleave_units, " units overflows 64 bits");
    const uint64_t period = interleave_units * endpoint_count;
    // For period 1 the reciprocal 2^64 wraps to 0, which still decodes
    // every page to endpoint 0.
    reciprocal_ = UINT64_MAX / period + 1;
    max_exact_page_ = UINT64_MAX / period;
  }

  /** Home endpoint of `page`; `page` must not exceed max_exact_page(). */
  uint32_t EndpointOf(PageId page) const {
    const uint64_t offset = reciprocal_ * page;
    return static_cast<uint32_t>(
        (static_cast<__uint128_t>(offset) * endpoint_count_) >> 64);
  }

  /** Largest page EndpointOf decodes exactly. */
  PageId max_exact_page() const { return max_exact_page_; }

 private:
  uint64_t reciprocal_;
  uint64_t max_exact_page_;
  uint32_t endpoint_count_;
};

/** Placement, residency, and protection state for a tiered address space. */
class TieredMemory {
 public:
  /**
   * @param total_pages       tracking units in the application footprint.
   * @param fast_capacity     fast-tier capacity in tracking units.
   * @param slow_capacity     slow-tier capacity in tracking units.
   * @param allocation_policy first-touch placement rule.
   */
  /**
   * @param endpoint_count    slow-tier CXL endpoints (HDM interleave
   *                          targets); 1 = the historical single device.
   * @param interleave_units  tracking units per interleave stripe.
   */
  TieredMemory(uint64_t total_pages, uint64_t fast_capacity,
               uint64_t slow_capacity,
               AllocationPolicy allocation_policy =
                   AllocationPolicy::kFastFirst,
               uint32_t endpoint_count = 1,
               uint64_t interleave_units = 1);

  /**
   * Records a demand access to `page` at time `now`. Allocates the page
   * on first touch and clears + reports protection faults.
   *
   * The steady-state case — resident, unprotected — is a single flag
   * load inlined into the caller's loop; allocation and hint-fault
   * handling live out of line.
   */
  TouchResult Touch(PageId page, TimeNs now) {
    HT_ASSERT(page < flags_.size(), "page ", page,
              " outside address space");
    const uint8_t f = flags_[page];
    if ((f & (kResident | kProtected)) == kResident) [[likely]] {
      TouchResult result;
      if (f & kTierSlow) {
        result.tier = Tier::kSlow;
        result.endpoint = EndpointOf(page);
      } else {
        result.tier = Tier::kFast;
      }
      return result;
    }
    return TouchSlowPath(page, now);
  }

  /**
   * HDM decode: the slow-tier endpoint backing `page`. A page's home
   * endpoint is static — interleaving is by address, as a hardware HDM
   * decoder does — so it is the device a slow-resident page is served
   * from and the device a demotion would copy into. Decoded with a
   * multiply, not a division (HdmDecoder); a single-endpoint layout,
   * where every slow access asks, skips even that.
   */
  uint32_t EndpointOf(PageId page) const {
    return endpoint_count_ == 1 ? 0 : hdm_.EndpointOf(page);
  }

  /** Number of slow-tier endpoints in the layout. */
  uint32_t endpoint_count() const { return endpoint_count_; }

  /** Tracking units resident on slow endpoint `endpoint` right now. */
  uint64_t EndpointResident(uint32_t endpoint) const {
    HT_ASSERT(endpoint < endpoint_count_, "endpoint ", endpoint,
              " outside the layout");
    return endpoint_resident_[endpoint];
  }

  /**
   * Fast-resident tracking units whose HDM home is `endpoint` — pages a
   * demotion would copy back onto that device. When an endpoint dies,
   * these units can no longer be demoted, so the fault-aware fair-share
   * water-filler subtracts them from the fast capacity it divides
   * (fault/fault_runtime.h, multitenant/fair_share_policy.h).
   */
  uint64_t EndpointHomedFastResident(uint32_t endpoint) const {
    HT_ASSERT(endpoint < endpoint_count_, "endpoint ", endpoint,
              " outside the layout");
    return endpoint_fast_resident_[endpoint];
  }

  /** Tracking units per HDM interleave stripe. */
  uint64_t interleave_units() const { return interleave_units_; }

  /** The layout's HDM decoder (what EndpointOf reads). */
  const HdmDecoder& hdm() const { return hdm_; }


  /** Tier of a resident page (asserts residency). */
  Tier TierOf(PageId page) const;

  /** True if the page has been touched at least once. */
  bool IsResident(PageId page) const;

  /** True if the page is currently protected (hint-fault armed). */
  bool IsProtected(PageId page) const;

  /**
   * Arms hint faults on all resident pages in [range.begin, range.end):
   * the AutoNUMA "unmap 256MB of pages" scan step. Returns the number of
   * pages protected.
   */
  uint64_t Protect(PageRange range, TimeNs now);

  /**
   * Moves a resident page to `dst`. Returns false (and does nothing) if
   * the page is already there or `dst` is full.
   */
  bool Migrate(PageId page, Tier dst);

  /**
   * Frees every resident page in [range.begin, range.end) — the reclaim
   * a process exit performs: residency, tier, and protection state are
   * cleared and the capacity returns to the free pools. A later touch
   * re-allocates per the first-touch policy. Returns pages released.
   */
  uint64_t Release(PageRange range);

  /** Pages currently resident in `tier`. */
  uint64_t UsedPages(Tier tier) const {
    return used_[static_cast<size_t>(tier)];
  }

  /** Capacity of `tier` in tracking units. */
  uint64_t Capacity(Tier tier) const {
    return capacity_[static_cast<size_t>(tier)];
  }

  /** Free tracking units in `tier`. */
  uint64_t FreePages(Tier tier) const {
    return Capacity(tier) - UsedPages(tier);
  }

  /** Total tracking units in the address space. */
  uint64_t total_pages() const { return flags_.size(); }

  /**
   * Linear address-space scan (the /proc/PID/pagemap walk used for
   * demotion candidate discovery): invokes `fn(page)` for every resident
   * page in `tier` within [start, start+count), in ascending order, and
   * returns pages visited. Reads the flags eight at a time
   * (ScanResidentGroups). Templated on the callback so the per-unit call
   * inlines instead of going through a std::function thunk. `fn` must
   * not change the residency or tier of pages in the range.
   */
  template <typename Fn>
  uint64_t ScanResident(PageId start, uint64_t count, Tier tier,
                        Fn&& fn) const {
    return ScanResidentGroups(start, count, tier,
                              [&fn](PageId group, uint64_t lanes) {
                                for (; lanes != 0; lanes &= lanes - 1) {
                                  fn(group + std::countr_zero(lanes) / 8);
                                }
                              });
  }

  /**
   * ScanResident by aligned groups of eight units: for every group
   * [g, g+8) (g a multiple of 8) that holds a resident page of `tier`
   * within [start, start+count), invokes `fn(g, lanes)` in ascending
   * order, where bit 8*i of `lanes` is set iff unit g+i is one of them
   * (all other bits clear). A group is one 64 B line of the pagemap
   * walk. Returns pages visited, as ScanResident does. `fn` must not
   * change the residency or tier of pages in the range.
   */
  template <typename GroupFn>
  uint64_t ScanResidentGroups(PageId start, uint64_t count, Tier tier,
                              GroupFn&& fn) const {
    static_assert(std::endian::native == std::endian::little,
                  "flag lanes are read as little-endian words");
    static_assert(kResident == 1 && kTierSlow == 2,
                  "the lane match reads residency at bit 0, tier at bit 1");
    const PageId end = std::min<PageId>(start + count, flags_.size());
    if (start >= end) return 0;
    // Lane i of a flag word is unit g+i's byte; bit 8*i of the match is
    // its resident bit, kept when its tier bit (one above) says `tier`.
    constexpr uint64_t kLaneBit = 0x0101010101010101ULL;
    const uint64_t want_fast = tier == Tier::kFast ? kLaneBit : 0;
    PageId group = start & ~PageId{7};
    uint64_t keep = kLaneBit << (8 * (start - group));  // Unaligned head.
    for (; group < end; group += 8) {
      uint64_t word = 0;
      if (end - group < 8) {
        // Tail: lanes at or past `end` are dropped, and the load stops at
        // the end of the flag array.
        keep &= kLaneBit >> (8 * (8 - (end - group)));
        std::memcpy(&word, flags_.data() + group,
                    std::min<size_t>(8, flags_.size() - group));
      } else {
        std::memcpy(&word, flags_.data() + group, 8);
      }
      const uint64_t lanes =
          word & (((word >> 1) & kLaneBit) ^ want_fast) & keep;
      if (lanes != 0) fn(group, lanes);
      keep = kLaneBit;
    }
    return end - start;
  }

  /**
   * Registers disjoint accounting regions (one per tenant) and seeds
   * their per-tier resident counters from the current page state. From
   * then on Touch/Migrate/Release maintain the counters incrementally,
   * so `RegionResident` reads are O(1) instead of an O(region) rescan —
   * the difference between an O(tenants) and an O(footprint) stats
   * interval. Pages outside every region stay unaccounted. Calling
   * again replaces the layout.
   */
  void DefineRegions(const std::vector<PageRange>& regions);

  /** Number of accounting regions (0 before DefineRegions). */
  uint32_t region_count() const {
    return static_cast<uint32_t>(region_resident_[0].size());
  }

  /** Region id of a page outside every accounting region. */
  static constexpr uint32_t kNoRegion = UINT32_MAX;

  /**
   * Accounting region owning `page` — its index in the DefineRegions
   * layout — or kNoRegion when no region covers it. O(1): one table
   * read (needs DefineRegions).
   */
  uint32_t RegionOf(PageId page) const {
    HT_ASSERT(page < region_of_.size(), "page ", page,
              " outside the accounting layout");
    return region_of_[page];
  }

  /** Resident pages of `region` in `tier` (needs DefineRegions). */
  uint64_t RegionResident(uint32_t region, Tier tier) const {
    const auto& counts = region_resident_[static_cast<size_t>(tier)];
    HT_ASSERT(region < counts.size(), "region ", region,
              " outside the accounting layout");
    return counts[region];
  }

  /** First-touch allocation policy in use. */
  AllocationPolicy allocation_policy() const { return allocation_policy_; }

 private:
  /** First-touch allocation and hint-fault clearing (cold path). */
  TouchResult TouchSlowPath(PageId page, TimeNs now);

  /** Adjusts `page`'s region counter in `tier` by +/-1. */
  void AccountRegion(PageId page, Tier tier, int64_t delta) {
    if (region_of_.empty()) return;
    const uint32_t region = region_of_[page];
    if (region == kNoRegion) return;
    region_resident_[static_cast<size_t>(tier)][region] +=
        static_cast<uint64_t>(delta);
  }

  // Per-page state flags.
  static constexpr uint8_t kResident = 1u << 0;
  static constexpr uint8_t kTierSlow = 1u << 1;  // Set => slow tier.
  static constexpr uint8_t kProtected = 1u << 2;

  /** Adjusts the per-endpoint slow-residency counter for `page`. */
  void AccountEndpoint(PageId page, int64_t delta) {
    endpoint_resident_[EndpointOf(page)] +=
        static_cast<uint64_t>(delta);
  }

  /** Adjusts the fast-resident-by-home-endpoint counter for `page`. */
  void AccountEndpointFast(PageId page, int64_t delta) {
    endpoint_fast_resident_[EndpointOf(page)] +=
        static_cast<uint64_t>(delta);
  }

  std::vector<uint8_t> flags_;
  std::vector<TimeNs> protect_time_;  //!< Valid while kProtected is set.
  uint64_t capacity_[kNumTiers];
  uint64_t used_[kNumTiers] = {0, 0};
  AllocationPolicy allocation_policy_;
  uint32_t endpoint_count_ = 1;
  uint64_t interleave_units_ = 1;
  HdmDecoder hdm_;
  std::vector<uint64_t> endpoint_resident_;  //!< Slow units per endpoint.
  /** Fast-resident units by HDM home endpoint. */
  std::vector<uint64_t> endpoint_fast_resident_;

  // Per-region residency accounting (empty until DefineRegions).
  std::vector<uint32_t> region_of_;  //!< Region id per page, or kNoRegion.
  std::vector<uint64_t> region_resident_[kNumTiers];

  // The watchdog test peer injects accounting corruption to prove the
  // invariant checks catch it; nothing else may touch private state.
  friend class TieredMemoryTestPeer;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_MEM_TIERED_MEMORY_H_
