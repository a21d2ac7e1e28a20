#include "mem/tiered_memory.h"

#include <algorithm>

#include "common/logging.h"

namespace hybridtier {

TieredMemory::TieredMemory(uint64_t total_pages, uint64_t fast_capacity,
                           uint64_t slow_capacity,
                           AllocationPolicy allocation_policy,
                           uint32_t endpoint_count,
                           uint64_t interleave_units)
    : flags_(total_pages, 0),
      protect_time_(total_pages, 0),
      capacity_{fast_capacity, slow_capacity},
      allocation_policy_(allocation_policy),
      endpoint_count_(endpoint_count),
      interleave_units_(interleave_units),
      hdm_(endpoint_count, interleave_units),
      endpoint_resident_(endpoint_count, 0),
      endpoint_fast_resident_(endpoint_count, 0) {
  HT_ASSERT(total_pages > 0, "address space must not be empty");
  HT_ASSERT(fast_capacity + slow_capacity >= total_pages,
            "tiers too small for the footprint: ", fast_capacity, "+",
            slow_capacity, " < ", total_pages);
  HT_ASSERT(total_pages - 1 <= hdm_.max_exact_page(), "a ",
            total_pages, "-unit address space exceeds the exact HDM decode "
            "range of its endpoint layout");
}

TouchResult TieredMemory::TouchSlowPath(PageId page, TimeNs now) {
  uint8_t& f = flags_[page];
  TouchResult result;

  if (!(f & kResident)) {
    // First touch: allocate per policy.
    Tier tier = Tier::kSlow;
    if (allocation_policy_ == AllocationPolicy::kFastFirst &&
        FreePages(Tier::kFast) > 0) {
      tier = Tier::kFast;
    }
    HT_ASSERT(FreePages(tier) > 0, "both tiers full allocating page ", page);
    f |= kResident;
    if (tier == Tier::kSlow) {
      f |= kTierSlow;
      AccountEndpoint(page, +1);
      result.endpoint = EndpointOf(page);
    } else {
      f &= static_cast<uint8_t>(~kTierSlow);
      AccountEndpointFast(page, +1);
    }
    ++used_[static_cast<size_t>(tier)];
    AccountRegion(page, tier, +1);
    result.first_touch = true;
    result.tier = tier;
    return result;
  }

  if (f & kTierSlow) {
    result.tier = Tier::kSlow;
    result.endpoint = EndpointOf(page);
  } else {
    result.tier = Tier::kFast;
  }
  if (f & kProtected) {
    // NUMA hint fault: the access re-maps the page and reports how long
    // the page sat unmapped (AutoNUMA's "hint fault latency").
    f &= static_cast<uint8_t>(~kProtected);
    result.hint_fault = true;
    result.fault_latency_ns =
        now >= protect_time_[page] ? now - protect_time_[page] : 0;
  }
  return result;
}

Tier TieredMemory::TierOf(PageId page) const {
  HT_ASSERT(page < flags_.size(), "page ", page, " outside address space");
  HT_ASSERT(flags_[page] & kResident, "page ", page, " not resident");
  return (flags_[page] & kTierSlow) ? Tier::kSlow : Tier::kFast;
}

bool TieredMemory::IsResident(PageId page) const {
  HT_ASSERT(page < flags_.size(), "page ", page, " outside address space");
  return flags_[page] & kResident;
}

bool TieredMemory::IsProtected(PageId page) const {
  HT_ASSERT(page < flags_.size(), "page ", page, " outside address space");
  return flags_[page] & kProtected;
}

uint64_t TieredMemory::Protect(PageRange range, TimeNs now) {
  HT_ASSERT(range.end <= flags_.size(), "range end outside address space");
  uint64_t protected_count = 0;
  for (PageId page = range.begin; page < range.end; ++page) {
    uint8_t& f = flags_[page];
    if ((f & kResident) && !(f & kProtected)) {
      f |= kProtected;
      protect_time_[page] = now;
      ++protected_count;
    }
  }
  return protected_count;
}

bool TieredMemory::Migrate(PageId page, Tier dst) {
  HT_ASSERT(page < flags_.size(), "page ", page, " outside address space");
  uint8_t& f = flags_[page];
  if (!(f & kResident)) return false;
  const Tier src = (f & kTierSlow) ? Tier::kSlow : Tier::kFast;
  if (src == dst) return false;
  if (FreePages(dst) == 0) return false;
  if (dst == Tier::kSlow) {
    f |= kTierSlow;
    AccountEndpoint(page, +1);
    AccountEndpointFast(page, -1);
  } else {
    f &= static_cast<uint8_t>(~kTierSlow);
    AccountEndpoint(page, -1);
    AccountEndpointFast(page, +1);
  }
  --used_[static_cast<size_t>(src)];
  ++used_[static_cast<size_t>(dst)];
  AccountRegion(page, src, -1);
  AccountRegion(page, dst, +1);
  return true;
}

uint64_t TieredMemory::Release(PageRange range) {
  HT_ASSERT(range.end <= flags_.size(), "range end outside address space");
  uint64_t released = 0;
  for (PageId page = range.begin; page < range.end; ++page) {
    uint8_t& f = flags_[page];
    if (!(f & kResident)) continue;
    const Tier tier = (f & kTierSlow) ? Tier::kSlow : Tier::kFast;
    --used_[static_cast<size_t>(tier)];
    AccountRegion(page, tier, -1);
    if (tier == Tier::kSlow) {
      AccountEndpoint(page, -1);
    } else {
      AccountEndpointFast(page, -1);
    }
    f = 0;
    ++released;
  }
  return released;
}

void TieredMemory::DefineRegions(const std::vector<PageRange>& regions) {
  region_of_.assign(flags_.size(), kNoRegion);
  for (size_t tier = 0; tier < kNumTiers; ++tier) {
    region_resident_[tier].assign(regions.size(), 0);
  }
  for (size_t r = 0; r < regions.size(); ++r) {
    const PageRange& range = regions[r];
    HT_ASSERT(range.end <= flags_.size(),
              "region end outside address space");
    for (PageId page = range.begin; page < range.end; ++page) {
      HT_ASSERT(region_of_[page] == kNoRegion,
                "accounting regions overlap at page ", page);
      region_of_[page] = static_cast<uint32_t>(r);
      const uint8_t f = flags_[page];
      if (!(f & kResident)) continue;
      const Tier tier = (f & kTierSlow) ? Tier::kSlow : Tier::kFast;
      ++region_resident_[static_cast<size_t>(tier)][r];
    }
  }
}

}  // namespace hybridtier
