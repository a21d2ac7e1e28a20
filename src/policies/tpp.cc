#include "policies/tpp.h"

#include <algorithm>

#include "common/logging.h"
#include "common/units.h"
#include "policies/scan_util.h"

namespace hybridtier {

namespace {
constexpr uint64_t kPteBase = 1ULL << 44;
constexpr uint64_t kLruBase = 1ULL << 45;
constexpr uint64_t kPagemapBase = 1ULL << 46;
constexpr uint64_t kFaultTimeBase = 1ULL << 47;
}  // namespace

TppPolicy::TppPolicy(const TppConfig& config) : config_(config) {
  HT_ASSERT(config.demote_target_frac >= config.demote_trigger_frac,
            "demotion target watermark below trigger watermark");
}

void TppPolicy::Bind(const PolicyContext& context) {
  TieringPolicy::Bind(context);
  ager_ = std::make_unique<ClockAger>(context.footprint_units);
  last_fault_time_.assign(context.footprint_units, 0);
  promotion_tokens_ = config_.promotion_rate_per_tick;
}

void TppPolicy::OnAccess(PageId unit, const TouchResult& touch,
                         TimeNs now) {
  ager_->MarkAccessed(unit);
  if (!touch.hint_fault) return;

  sink().Touch(kPteBase + (unit / 8) * kCacheLineSize);
  sink().Touch(kFaultTimeBase + (unit / 8) * kCacheLineSize);

  if (touch.tier == Tier::kSlow) {
    const TimeNs previous = last_fault_time_[unit];
    // Active-list test: this is at least the second reference within the
    // window, so the page is on the active LRU list -> promote.
    if (previous != 0 && now - previous <= config_.active_window_ns) {
      if (promotion_tokens_ > 0) {
        --promotion_tokens_;
        const PageId pages[] = {unit};
        migration().Promote(pages, now, MigrationReason::kHintFault);
        ++fault_promotions_;
      } else {
        ++rate_limited_promotions_;
      }
    }
  }
  last_fault_time_[unit] = now;
}

void TppPolicy::WatermarkDemotion(TimeNs now) {
  TieredMemory& mem = memory();
  const uint64_t capacity = mem.Capacity(Tier::kFast);
  if (capacity == 0) return;
  const double free_frac =
      static_cast<double>(mem.FreePages(Tier::kFast)) /
      static_cast<double>(capacity);
  if (free_frac >= config_.demote_trigger_frac) return;

  const uint64_t target_free = static_cast<uint64_t>(
      config_.demote_target_frac * static_cast<double>(capacity));
  uint64_t needed = target_free > mem.FreePages(Tier::kFast)
                        ? target_free - mem.FreePages(Tier::kFast)
                        : 0;
  if (needed == 0) return;

  std::vector<PageId> victims;
  const uint64_t footprint = context().footprint_units;
  BudgetedResidentScan(mem, &demote_cursor_, footprint,
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

void TppPolicy::Tick(TimeNs now) {
  TieredMemory& mem = memory();
  const uint64_t footprint = context().footprint_units;

  // Refill the migration rate limiter.
  promotion_tokens_ = std::min<uint64_t>(
      promotion_tokens_ + config_.promotion_rate_per_tick,
      2 * config_.promotion_rate_per_tick);

  const PageId protect_end =
      std::min<PageId>(protect_cursor_ + config_.scan_chunk_units,
                       footprint);
  mem.Protect(PageRange{protect_cursor_, protect_end}, now);
  for (PageId unit = protect_cursor_; unit < protect_end; unit += 8) {
    sink().Touch(kPteBase + (unit / 8) * kCacheLineSize);
  }
  protect_cursor_ = protect_end >= footprint ? 0 : protect_end;

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

size_t TppPolicy::MetadataBytes() const {
  return ager_->memory_bytes() +
         last_fault_time_.size() * sizeof(TimeNs);
}

}  // namespace hybridtier
