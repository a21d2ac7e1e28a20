#include "policies/list_cache.h"

#include "common/units.h"
#include "probstruct/hash.h"

namespace hybridtier {

namespace {
constexpr uint64_t kListBase = 1ULL << 44;  // List-node heap region.
constexpr uint64_t kMapBase = 1ULL << 45;   // Hash-map bucket region.
}  // namespace

void ListCachePolicy::Bind(const PolicyContext& context) {
  TieringPolicy::Bind(context);
  capacity_ = context.fast_capacity_units;
}

void ListCachePolicy::TouchListMetadata(PageId unit) {
  // List nodes live wherever the allocator put them: effectively random
  // lines (the locality weakness of exact list structures, paper §2.3.3).
  sink().Touch(kListBase + (Mix64(unit) % (capacity_ * 4 + 64)) *
                               kCacheLineSize);
  sink().Touch(kMapBase + (Mix64(unit ^ map_salt_) % (capacity_ * 4 + 64)) *
                              kCacheLineSize);
}

void ListCachePolicy::DemoteUnit(PageId unit, TimeNs now) {
  if (memory().IsResident(unit) && memory().TierOf(unit) == Tier::kFast) {
    const PageId pages[] = {unit};
    migration().Demote(pages, now, MigrationReason::kCapacityDemand);
  }
}

void ListCachePolicy::PromoteUnit(PageId unit, TimeNs now) {
  if (memory().IsResident(unit) && memory().TierOf(unit) == Tier::kSlow) {
    const PageId pages[] = {unit};
    migration().Promote(pages, now, MigrationReason::kHotnessRank);
  }
}

}  // namespace hybridtier
