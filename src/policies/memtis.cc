#include "policies/memtis.h"

#include <algorithm>

#include "common/logging.h"
#include "common/units.h"
#include "policies/scan_util.h"

namespace hybridtier {

namespace {
// Synthetic metadata address-space bases (beyond any app address).
constexpr uint64_t kPteBase = 1ULL << 44;      // PTE array lines.
constexpr uint64_t kPmdBase = 1ULL << 45;      // PMD level lines.
constexpr uint64_t kMetaBase = 1ULL << 46;     // 16 B/page counter records.
constexpr uint64_t kHistBase = 1ULL << 47;     // Histogram buckets.
constexpr uint64_t kPagemapBase = 1ULL << 48;  // Demotion scan pagemap.

constexpr uint32_t kHistMax = 127;  // Histogram cap for counter values.
// Demotion hysteresis: victims need count < threshold / this.
constexpr uint32_t kDemoteHysteresisDivisor = 2;
}  // namespace

MemtisPolicy::MemtisPolicy(const MemtisConfig& config) : config_(config) {
  HT_ASSERT(config.cooling_period_samples > 0, "cooling period must be > 0");
}

void MemtisPolicy::Bind(const PolicyContext& context) {
  TieringPolicy::Bind(context);
  counters_ = std::make_unique<ExactCounterTable>(context.footprint_units);
  histogram_ = std::make_unique<Histogram>(kHistMax);
  hot_threshold_ = 1;
  if (context.trace != nullptr) {
    cooling_track_ = context.trace->Track("policy/Memtis");
  }
}

void MemtisPolicy::TouchSampleMetadata(PageId unit, uint32_t bucket) {
  // Reaching the per-page record requires the multi-level page-table
  // walk (paper §3.3: "traversing the Linux multi-level page table,
  // potentially causing multiple cache misses"). The PTE level has one
  // 8 B entry per page (8 per line); the PMD level covers 512x more.
  sink().Touch(kPteBase + (unit / 8) * kCacheLineSize);
  sink().Touch(kPmdBase + (unit / (8 * 512)) * kCacheLineSize);
  // The 16 B metadata record itself (4 records per line).
  sink().Touch(kMetaBase + (unit / 4) * kCacheLineSize);
  // The histogram bucket update (8 B buckets, 8 per line).
  sink().Touch(kHistBase + (bucket / 8) * kCacheLineSize);
}

void MemtisPolicy::UpdateThreshold() {
  // The threshold fills the fast tier with the hottest pages; never
  // below 1 so untouched pages are not "hot".
  hot_threshold_ = std::max<uint32_t>(
      1, histogram_->ThresholdForBudget(context().fast_capacity_units));
}

void MemtisPolicy::OnSample(const SampleRecord& sample) {
  ++samples_seen_;

  const uint32_t old_count =
      std::min<uint32_t>(static_cast<uint32_t>(
                             counters_->RawCount(sample.page)),
                         kHistMax);
  counters_->Increment(sample.page);
  const uint32_t new_count = std::min(old_count + 1, kHistMax);
  if (new_count != old_count) {
    histogram_->Remove(old_count);
    histogram_->Add(new_count);
  }
  TouchSampleMetadata(sample.page, new_count);

  // Promotion candidate?
  if (sample.tier == Tier::kSlow && new_count >= hot_threshold_) {
    pending_promotions_.push_back(sample.page);
  }

  // Periodic cooling: the EMA freshness mechanism.
  if (samples_seen_ - samples_at_last_cooling_ >=
      config_.cooling_period_samples) {
    samples_at_last_cooling_ = samples_seen_;
    counters_->CoolByHalving();
    histogram_->CoolByHalving();
    ++coolings_;
    if (DecisionAudit* audit = migration().audit()) audit->RecordCooling();
    if (context().trace != nullptr) {
      context().trace->Instant(
          cooling_track_, "cooling", sample.time_ns,
          {{"coolings", static_cast<double>(coolings_)}});
    }
    // Cooling rewrites every metadata record: a full sweep of the
    // counter array plus the histogram.
    const uint64_t meta_lines = counters_->memory_bytes() / kCacheLineSize;
    for (uint64_t line = 0; line < meta_lines; ++line) {
      sink().Touch(kMetaBase + line * kCacheLineSize);
    }
    UpdateThreshold();
  }

  // Batched promotion flush.
  if (samples_seen_ - samples_at_last_flush_ >=
      config_.promo_batch_samples) {
    samples_at_last_flush_ = samples_seen_;
    UpdateThreshold();
    FlushPromotionBatch(&pending_promotions_, memory(), migration(),
                        sample.time_ns, [&](uint64_t needed) {
                          DemoteColdPages(needed, sample.time_ns,
                                          MigrationReason::kCapacityDemand);
                        });
  }
}

uint64_t MemtisPolicy::DemoteColdPages(uint64_t needed, TimeNs now,
                                       MigrationReason reason) {
  TieredMemory& mem = memory();
  std::vector<PageId> victims;
  const uint64_t footprint = context().footprint_units;

  const uint32_t demote_below =
      std::max<uint32_t>(1, hot_threshold_ / kDemoteHysteresisDivisor);
  // Incremental linear scan (kswapd-style). The strict phase takes only
  // clearly-cold pages (hysteresis); if starved, the relaxed phase takes
  // any sub-threshold page.
  for (const uint32_t bar : {demote_below, hot_threshold_}) {
    BudgetedResidentScan(
        mem, &scan_cursor_, footprint, config_.scan_units_per_tick,
        Tier::kFast, [&] { return victims.size() >= needed; },
        [&](PageId unit) {
          // The scan reads the pagemap entry and the counter record.
          sink().Touch(kPagemapBase + (unit / 8) * kCacheLineSize);
          sink().Touch(kMetaBase + (unit / 4) * kCacheLineSize);
          if (counters_->RawCount(unit) < bar &&
              victims.size() < needed) {
            victims.push_back(unit);
          }
        });
    if (victims.size() >= needed) break;
  }

  // The relaxed pass can rescan a wrapped cursor range; demote once.
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()),
                victims.end());
  if (!victims.empty()) {
    migration().Demote(victims, now, reason);
  }
  return victims.size();
}

void MemtisPolicy::Tick(TimeNs now) {
  UpdateThreshold();
  const uint64_t needed = FreeWatermarkDeficit(
      memory(), config_.demote_trigger_frac, config_.demote_target_frac);
  if (needed > 0) DemoteColdPages(needed, now, MigrationReason::kWatermark);
}

size_t MemtisPolicy::MetadataBytes() const {
  // 16 B per page over *all* memory (the paper's 0.39% figure) plus the
  // histogram.
  return counters_->memory_bytes() +
         histogram_->buckets().size() * sizeof(uint64_t);
}

}  // namespace hybridtier
