#include "policies/autonuma.h"

#include <algorithm>

#include "common/logging.h"
#include "common/units.h"
#include "policies/scan_util.h"

namespace hybridtier {

namespace {
constexpr uint64_t kPteBase = 1ULL << 44;      // Fault-handling PTE lines.
constexpr uint64_t kLruBase = 1ULL << 45;      // MGLRU generation state.
constexpr uint64_t kPagemapBase = 1ULL << 46;  // Aging/demotion scans.
}  // namespace

AutoNumaPolicy::AutoNumaPolicy(const AutoNumaConfig& config)
    : config_(config) {
  HT_ASSERT(config.demote_target_frac >= config.demote_trigger_frac,
            "demotion target watermark below trigger watermark");
}

void AutoNumaPolicy::Bind(const PolicyContext& context) {
  TieringPolicy::Bind(context);
  ager_ = std::make_unique<ClockAger>(context.footprint_units);
  promotion_tokens_ = config_.promotion_rate_per_tick;
}

void AutoNumaPolicy::OnAccess(PageId unit, const TouchResult& touch,
                              TimeNs now) {
  // Hardware maintains the accessed bit on every access — free signal.
  ager_->MarkAccessed(unit);

  if (!touch.hint_fault) return;
  ++hint_faults_;
  // Fault handling walks the page table and updates LRU state.
  sink().Touch(kPteBase + (unit / 8) * kCacheLineSize);
  sink().Touch(kLruBase + (unit / 16) * kCacheLineSize);

  // Promote on low hint-fault latency, with no frequency check: the
  // defining AutoNUMA behaviour (and its weakness: a single recent
  // access promotes a cold page).
  if (touch.tier == Tier::kSlow &&
      touch.fault_latency_ns <= config_.promotion_latency_ns) {
    if (promotion_tokens_ == 0) {
      ++rate_limited_promotions_;
      return;
    }
    --promotion_tokens_;
    const PageId pages[] = {unit};
    migration().Promote(pages, now, MigrationReason::kHintFault);
    ++fault_promotions_;
  }
}

void AutoNumaPolicy::WatermarkDemotion(TimeNs now) {
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
  // MGLRU eviction: walk fast-resident pages, demote those whose
  // generation age shows no recent access.
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

void AutoNumaPolicy::Tick(TimeNs now) {
  TieredMemory& mem = memory();
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
  mem.Protect(PageRange{protect_cursor_, protect_end}, now);
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

size_t AutoNumaPolicy::MetadataBytes() const {
  // Accessed-bit + generation state; AutoNUMA also keeps last-fault
  // scan bookkeeping in struct page (modeled at 4 B per unit).
  return ager_->memory_bytes() + context().footprint_units * 4;
}

}  // namespace hybridtier
