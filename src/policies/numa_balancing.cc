#include "policies/numa_balancing.h"

#include <algorithm>
#include <vector>

#include "common/units.h"
#include "policies/scan_util.h"

namespace hybridtier {

namespace {
constexpr uint64_t kPteBase = 1ULL << 44;      // Fault-handling PTE lines.
constexpr uint64_t kPagemapBase = 1ULL << 46;  // Aging/demotion scans.
}  // namespace

void NumaBalancingPolicy::Bind(const PolicyContext& context) {
  TieringPolicy::Bind(context);
  ager_ = std::make_unique<ClockAger>(context.footprint_units);
  promotion_tokens_ = config_.promotion_rate_per_tick;
  BindRule(context.footprint_units);
}

void NumaBalancingPolicy::OnAccess(PageId unit, const TouchResult& touch,
                                   TimeNs now) {
  // Hardware maintains the accessed bit on every access — free signal.
  ager_->MarkAccessed(unit);

  if (!touch.hint_fault) return;
  ++hint_faults_;
  // Fault handling walks the page table, then the rule's own state.
  sink().Touch(kPteBase + (unit / 8) * kCacheLineSize);
  if (!PromotesOnFault(unit, touch, now) || touch.tier != Tier::kSlow) {
    return;
  }
  if (promotion_tokens_ == 0) {
    ++rate_limited_promotions_;
    return;
  }
  --promotion_tokens_;
  const PageId pages[] = {unit};
  migration().Promote(pages, now, MigrationReason::kHintFault);
  ++fault_promotions_;
}

void NumaBalancingPolicy::WatermarkDemotion(TimeNs now) {
  const uint64_t needed = FreeWatermarkDeficit(
      memory(), config_.demote_trigger_frac, config_.demote_target_frac);
  if (needed == 0) return;

  std::vector<PageId> victims;
  // MGLRU eviction: walk fast-resident pages, demote those whose
  // generation age shows no recent access.
  BudgetedResidentScan(memory(), &demote_cursor_, context().footprint_units,
                       config_.age_chunk_units, Tier::kFast,
                       [&] { return victims.size() >= needed; },
                       [&](PageId unit) {
                         sink().Touch(kPagemapBase +
                                      (unit / 8) * kCacheLineSize);
                         if (ager_->AgeOf(unit) >=
                                 config_.demote_min_age &&
                             victims.size() < needed) {
                           victims.push_back(unit);
                         }
                       });
  if (!victims.empty()) {
    migration().Demote(victims, now, MigrationReason::kWatermark);
  }
}

void NumaBalancingPolicy::Tick(TimeNs now) {
  const uint64_t footprint = context().footprint_units;

  // Refill the migration rate limiter (one tick's worth, no banking
  // beyond a 2-tick burst).
  promotion_tokens_ = std::min<uint64_t>(
      promotion_tokens_ + config_.promotion_rate_per_tick,
      2 * config_.promotion_rate_per_tick);

  // NUMA balancing scan: unmap the next chunk of the address space so
  // subsequent accesses take hint faults.
  const PageId protect_end =
      std::min<PageId>(protect_cursor_ + config_.scan_chunk_units,
                       footprint);
  memory().Protect(PageRange{protect_cursor_, protect_end}, now);
  // The scan itself reads the page-table range it unmaps.
  for (PageId unit = protect_cursor_; unit < protect_end; unit += 8) {
    sink().Touch(kPteBase + (unit / 8) * kCacheLineSize);
  }
  protect_cursor_ = protect_end >= footprint ? 0 : protect_end;

  // MGLRU aging: harvest accessed bits over the next chunk.
  ager_->Scan(age_cursor_, config_.age_chunk_units);
  for (PageId unit = age_cursor_;
       unit < std::min<PageId>(age_cursor_ + config_.age_chunk_units,
                               footprint);
       unit += 16) {
    sink().Touch(kLruBase + (unit / 16) * kCacheLineSize);
  }
  age_cursor_ += config_.age_chunk_units;
  if (age_cursor_ >= footprint) age_cursor_ = 0;

  WatermarkDemotion(now);
}

}  // namespace hybridtier
