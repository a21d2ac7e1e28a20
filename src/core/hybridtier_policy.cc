#include "core/hybridtier_policy.h"

#include <algorithm>

#include "common/logging.h"
#include "common/units.h"
#include "policies/scan_util.h"

namespace hybridtier {

namespace {
constexpr uint64_t kFreqBase = 1ULL << 44;     // Frequency CBF lines.
constexpr uint64_t kMomBase = 1ULL << 45;      // Momentum CBF lines.
constexpr uint64_t kHistBase = 1ULL << 46;     // Histogram lines.
constexpr uint64_t kPagemapBase = 1ULL << 47;  // Demotion scan pagemap.

// Demotion hysteresis: a fast-tier page counts as "low frequency" only
// below freq_threshold / this divisor. Pages between the two levels stay
// put, preventing zero-gain swaps of equally-warm pages across the
// admission threshold after every cooling pass.
constexpr uint32_t kDemoteHysteresisDivisor = 2;
}  // namespace

HybridTierPolicy::HybridTierPolicy(const HybridTierConfig& config)
    : config_(config) {
  HT_ASSERT(config.momentum_threshold >= 1,
            "momentum threshold must be >= 1");
}

const char* HybridTierPolicy::name() const {
  if (!config_.use_momentum) return "HybridTier-onlyFreq";
  switch (config_.estimator) {
    case EstimatorKind::kBlockedCbf:
      return "HybridTier";
    case EstimatorKind::kStandardCbf:
      return "HybridTier-CBF";
    case EstimatorKind::kExact:
      return "HybridTier-exact";
  }
  return "HybridTier";
}

void HybridTierPolicy::Bind(const PolicyContext& context) {
  TieringPolicy::Bind(context);
  const uint64_t fast_units = std::max<uint64_t>(
      context.fast_capacity_units, 16);
  // Huge pages accumulate 512x the accesses, so counters widen to 16 bit
  // (paper §4.4); regular pages use 4-bit counters capped at 15 (§3.2).
  const uint32_t counter_bits =
      context.mode == PageMode::kHuge ? 16 : 4;

  TrackerConfig freq_config;
  freq_config.kind = config_.estimator;
  freq_config.sizing = FrequencyCbfSizing(fast_units, counter_bits);
  freq_config.exact_units = context.footprint_units;
  freq_config.cooling_period_samples = config_.freq_cooling_samples;
  freq_config.metadata_base = kFreqBase;
  freq_config.seed = config_.seed;
  freq_ = std::make_unique<AccessTracker>(freq_config);

  if (config_.use_momentum) {
    TrackerConfig mom_config;
    mom_config.kind = config_.estimator;
    mom_config.sizing = MomentumCbfSizing(fast_units, counter_bits);
    mom_config.exact_units = context.footprint_units;
    mom_config.cooling_period_samples = config_.momentum_cooling_samples;
    mom_config.metadata_base = kMomBase;
    mom_config.seed = config_.seed ^ 0x5eedULL;
    momentum_ = std::make_unique<AccessTracker>(mom_config);
  }

  // The histogram needs one bucket per distinct counter value that can
  // matter for thresholding; cap at 255 so huge-page mode (16-bit
  // counters) does not inflate it.
  histogram_ = std::make_unique<Histogram>(
      std::min<uint32_t>(freq_->max_count(), 255));
  freq_threshold_ = 1;

  // Dense second-chance state: the footprint is known here, so the
  // marks live in a flat PageId-indexed array instead of a hash map.
  second_chance_.assign(context.footprint_units, SecondChanceMark{});
  second_chance_pending_ = 0;

  if (context.trace != nullptr) {
    cooling_track_ = context.trace->Track("policy/HybridTier");
  }
}

void HybridTierPolicy::UpdateThreshold() {
  freq_threshold_ = std::max<uint32_t>(
      1, histogram_->ThresholdForBudget(context().fast_capacity_units));
}

void HybridTierPolicy::FlushPromotions(TimeNs now) {
  samples_at_last_flush_ = samples_seen_;
  UpdateThreshold();
  FlushPromotionBatch(&pending_promotions_, memory(), migration(), now,
                      [&](uint64_t needed) {
                        DemoteColdPages(needed, now,
                                        MigrationReason::kCapacityDemand);
                      });
}

void HybridTierPolicy::OnSample(const SampleRecord& sample) {
  ++samples_seen_;
  const PageId unit = sample.page;

  // Frequency update (+ histogram bookkeeping on actual increments).
  // The pre-update estimate comes out of the same filter walk as the
  // increment — one CBF lookup per sample, not two.
  uint32_t old_freq = 0;
  const uint32_t new_freq = freq_->RecordAccess(unit, sink(), &old_freq);
  if (freq_->cooled_on_last_record()) {
    histogram_->CoolByHalving();
    if (DecisionAudit* audit = migration().audit()) audit->RecordCooling();
    if (context().trace != nullptr) {
      context().trace->Instant(
          cooling_track_, "cooling", sample.time_ns,
          {{"coolings", static_cast<double>(freq_->coolings())}});
    }
    // The halved histogram carries this unit at old_freq/2 — the
    // increment that triggered the cooling never reached it. Re-seat the
    // unit at its post-cooling estimate so the increment is not lost.
    // (A unit that was tracked at all stays tracked through halving,
    // even in bucket 0, so the Remove guard is on old_freq itself.)
    if (new_freq > old_freq / 2) {
      if (old_freq > 0) histogram_->Remove(old_freq / 2);
      histogram_->Add(new_freq);
      sink().Touch(kHistBase + (new_freq / 8) * kCacheLineSize);
    }
  } else if (new_freq > old_freq) {
    if (old_freq > 0) histogram_->Remove(old_freq);
    histogram_->Add(new_freq);
    sink().Touch(kHistBase + (new_freq / 8) * kCacheLineSize);
  }

  // Momentum update.
  uint32_t new_momentum = 0;
  if (momentum_) new_momentum = momentum_->RecordAccess(unit, sink());

  // Promotion rule: high frequency OR high momentum (paper Table 1).
  if (sample.tier == Tier::kSlow) {
    const bool freq_hot = new_freq >= freq_threshold_;
    const bool momentum_hot =
        momentum_ && new_momentum >= config_.momentum_threshold;
    if (freq_hot || momentum_hot) {
      pending_promotions_.push_back(unit);
      if (!freq_hot && momentum_hot) ++momentum_promotions_;
    }
  }

  // A promoted-and-rehot page should not be demoted by a stale mark.
  // The sample that triggers cooling also counts: the unit was
  // incremented before the halving, even though the returned estimate
  // is now below old_freq.
  if (second_chance_pending_ != 0 &&
      (new_freq > old_freq || freq_->cooled_on_last_record())) {
    ClearMark(unit);
  }

  if (samples_seen_ - samples_at_last_flush_ >=
      config_.promo_batch_samples) {
    FlushPromotions(sample.time_ns);
  }
}

uint64_t HybridTierPolicy::DemoteColdPages(uint64_t needed, TimeNs now,
                                           MigrationReason reason) {
  TieredMemory& mem = memory();
  std::vector<PageId> victims;
  const uint64_t footprint = context().footprint_units;
  const uint32_t demote_below =
      std::max<uint32_t>(1, freq_threshold_ / kDemoteHysteresisDivisor);

  // One classification pass of the Table-1 demotion rules. In the
  // strict phase only clearly-cold pages (hysteresis: freq below
  // threshold/divisor) are victims, so warm residents do not swap with
  // equally-warm candidates after every cooling. If that starves the
  // promotion path, a relaxed phase also takes sub-threshold pages.
  auto classify = [&](PageId unit, bool relaxed) {
    sink().Touch(kPagemapBase + (unit / 8) * kCacheLineSize);
    if (victims.size() >= needed) return;

    const uint32_t freq = freq_->GetTracked(unit, sink());
    const uint32_t momentum =
        momentum_ ? momentum_->GetTracked(unit, sink()) : 0;
    const bool freq_hot = freq >= freq_threshold_;
    const bool momentum_hot =
        momentum_ && momentum >= config_.momentum_threshold;

    if (momentum_hot) {
      // High momentum: recently promoted or actively heating — keep.
      ClearMark(unit);
      return;
    }
    if (!freq_hot) {
      // Low/low: demote (Table 1 bottom-right).
      if (freq < demote_below || relaxed) {
        ClearMark(unit);
        victims.push_back(unit);
      }
      return;
    }
    // High frequency, low momentum: second chance (Table 1 top-right).
    // Demote at revisit only if the page was not accessed since the
    // mark: with saturating counters "frequency did not grow" cannot
    // distinguish idle from still-saturated-hot, so the momentum
    // tracker provides the accessed-since-mark signal.
    SecondChanceMark& mark = second_chance_[unit];
    if (mark.freq_at_mark == kNoMark) {
      mark.freq_at_mark = freq;
      mark.mark_time_ns = now;
      ++second_chance_pending_;
      return;
    }
    if (now - mark.mark_time_ns < config_.second_chance_revisit_ns) {
      return;
    }
    const bool accessed_since_mark =
        momentum > 0 || freq > mark.freq_at_mark;
    if (!accessed_since_mark && freq <= mark.freq_at_mark) {
      mark.freq_at_mark = kNoMark;
      --second_chance_pending_;
      victims.push_back(unit);
      ++second_chance_demotions_;
    } else {
      // Refresh the mark so the next revisit measures a fresh window.
      mark.freq_at_mark = freq;
      mark.mark_time_ns = now;
    }
  };

  for (const bool relaxed : {false, true}) {
    BudgetedResidentScan(mem, &scan_cursor_, footprint,
                         config_.scan_units_per_tick, Tier::kFast,
                         [&] { return victims.size() >= needed; },
                         [&](PageId unit) { classify(unit, relaxed); });
    if (victims.size() >= needed) break;
  }

  // The relaxed pass can rescan a wrapped cursor range; demote once.
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()),
                victims.end());
  if (!victims.empty()) migration().Demote(victims, now, reason);
  return victims.size();
}

void HybridTierPolicy::Tick(TimeNs now) {
  UpdateThreshold();
  const uint64_t needed = FreeWatermarkDeficit(
      memory(), config_.demote_trigger_frac, config_.demote_target_frac);
  if (needed > 0) DemoteColdPages(needed, now, MigrationReason::kWatermark);
}

size_t HybridTierPolicy::MetadataBytes() const {
  size_t bytes = freq_->memory_bytes();
  if (momentum_) bytes += momentum_->memory_bytes();
  bytes += histogram_->buckets().size() * sizeof(uint64_t);
  // The design's second-chance list holds one record per *marked* page
  // (the dense array is a simulator-side layout choice, not metadata
  // the real system would allocate), so the Table-4 metric charges the
  // marked count at the legacy per-entry size.
  bytes += second_chance_pending_ * 24;
  return bytes;
}

}  // namespace hybridtier
