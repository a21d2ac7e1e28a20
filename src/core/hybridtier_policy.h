#ifndef HYBRIDTIER_CORE_HYBRIDTIER_POLICY_H_
#define HYBRIDTIER_CORE_HYBRIDTIER_POLICY_H_

/**
 * @file
 * The HybridTier tiering policy — the paper's core contribution.
 *
 * Two probabilistic trackers estimate each page's long-term *frequency*
 * (high cooling period) and short-term *momentum* (low cooling period,
 * 128x smaller filter). The migration matrix (paper Table 1):
 *
 *                       high momentum     low momentum
 *   high frequency      promote/none      promote/none
 *   low  frequency      promote/none      none/demote
 *
 * Promotion: a sampled slow-tier page is promoted when its frequency is
 * at or above the histogram-derived threshold (auto-adjusted to fill
 * the fast tier, as in Memtis) OR its momentum is at or above the fixed
 * momentum threshold (default 3, §6.4.3). Promotions are batched into a
 * single syscall (paper: 100k samples per batch).
 *
 * Demotion: when fast-tier free space falls under the watermark, a
 * linear VA scan classifies fast-tier pages: low/low pages are demoted
 * immediately; high-frequency/low-momentum pages are *marked* with
 * their current frequency and demoted at a later revisit only if the
 * frequency did not advance (the second-chance policy, §4.3).
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "core/trackers.h"
#include "policies/policy.h"

namespace hybridtier {

/**
 * Tunables for HybridTier (paper defaults, time-scaled). The paper's
 * fixed design constants are not fields: the CBF error rate and hash
 * count (`kDefaultErrorRate`, `kDefaultNumHashes`) and the momentum
 * filter's size divisor (`kMomentumSizeDivisor`) live in
 * probstruct/sizing.h, and the demotion hysteresis in the policy.
 */
struct HybridTierConfig {
  /** Estimator implementation (ablations: standard CBF, exact table). */
  EstimatorKind estimator = EstimatorKind::kBlockedCbf;
  /** Track momentum at all (false = "HybridTier-onlyFreq", Fig 15). */
  bool use_momentum = true;
  /** Momentum hotness threshold (paper default 3, Fig 17 sweep). */
  uint32_t momentum_threshold = 3;
  /** Frequency tracker cooling period, in samples (high C). */
  uint64_t freq_cooling_samples = 600000;
  /** Momentum tracker cooling period, in samples (low C). */
  uint64_t momentum_cooling_samples = 8000;
  /** Promotion batch: flush after this many samples (paper: 100k). */
  uint64_t promo_batch_samples = 2048;
  /** Demote when fast free fraction falls below this (PROMO_WMARK). */
  double demote_trigger_frac = 0.02;
  /** Demote until fast free fraction reaches this (DEMOTE_WMARK). */
  double demote_target_frac = 0.04;
  /** VA-scan units examined per maintenance tick. */
  uint64_t scan_units_per_tick = 8192;
  /** Second-chance revisit delay (paper: 1 minute, time-scaled). */
  TimeNs second_chance_revisit_ns = 300 * kMillisecond;
  uint64_t seed = 3;
};

/** The HybridTier policy. */
class HybridTierPolicy : public TieringPolicy {
 public:
  explicit HybridTierPolicy(
      const HybridTierConfig& config = HybridTierConfig{});

  void Bind(const PolicyContext& context) override;
  void OnSample(const SampleRecord& sample) override;
  void Tick(TimeNs now) override;
  size_t MetadataBytes() const override;
  const char* name() const override;

  /**
   * HybridTier is sample-driven: it never observes the demand-access
   * stream (OnAccess stays the inherited no-op), so the simulator skips
   * per-access policy dispatch entirely.
   */
  AccessInterest access_interest() const override {
    return AccessInterest::kNone;
  }

  /** Long-term frequency estimate (the demotion-ordering signal). */
  uint32_t HotnessOf(PageId unit) const override {
    return freq_->Get(unit);
  }

  /** Batched HotnessOf: one frequency-filter probe pass. */
  void HotnessOfEach(std::span<const PageId> units,
                     std::span<uint32_t> out) const override {
    freq_->GetEach(units, out);
  }

  /** Current histogram-derived frequency threshold. */
  uint32_t freq_threshold() const { return freq_threshold_; }

  /** Frequency tracker (for tests/accuracy studies). */
  const AccessTracker& frequency_tracker() const { return *freq_; }

  /** Momentum tracker; null when momentum is disabled. */
  const AccessTracker* momentum_tracker() const { return momentum_.get(); }

  /** Pages currently marked for a second chance. */
  size_t second_chance_pending() const { return second_chance_pending_; }

  /** Promotions triggered by momentum (not frequency). */
  uint64_t momentum_promotions() const { return momentum_promotions_; }

  /** Pages demoted after failing their second chance. */
  uint64_t second_chance_demotions() const {
    return second_chance_demotions_;
  }

  /** Demotion VA-scan cursor, in tracking units (observability/tests). */
  PageId scan_cursor() const { return scan_cursor_; }

 private:
  /** No-mark sentinel: counter estimates never reach UINT32_MAX. */
  static constexpr uint32_t kNoMark = UINT32_MAX;

  struct SecondChanceMark {
    uint32_t freq_at_mark = kNoMark;  //!< kNoMark = unit not marked.
    TimeNs mark_time_ns = 0;
  };

  /** Clears `unit`'s second-chance mark if present. */
  void ClearMark(PageId unit) {
    SecondChanceMark& mark = second_chance_[unit];
    if (mark.freq_at_mark != kNoMark) {
      mark.freq_at_mark = kNoMark;
      --second_chance_pending_;
    }
  }

  void UpdateThreshold();
  void FlushPromotions(TimeNs now);

  /**
   * Scans the fast tier applying the Table-1 demotion rules until
   * `needed` victims were demoted or the scan budget is exhausted.
   * The demotion batch carries `reason` (watermark scan vs. demand
   * demotion for a promotion batch). Returns the number of pages
   * demoted.
   */
  uint64_t DemoteColdPages(uint64_t needed, TimeNs now,
                           MigrationReason reason);

  HybridTierConfig config_;
  std::unique_ptr<AccessTracker> freq_;
  std::unique_ptr<AccessTracker> momentum_;
  std::unique_ptr<Histogram> histogram_;
  std::vector<PageId> pending_promotions_;
  /**
   * Second-chance marks, dense by PageId (sized at Bind, when the
   * footprint is known). The legacy unordered_map cost a hash probe per
   * sample and per demotion-scan unit on the hottest policy paths; the
   * flat array is one indexed load. `second_chance_pending_` tracks the
   * marked-unit count the map's size() used to provide.
   */
  std::vector<SecondChanceMark> second_chance_;
  size_t second_chance_pending_ = 0;
  uint64_t samples_seen_ = 0;
  uint64_t samples_at_last_flush_ = 0;
  uint32_t freq_threshold_ = 1;
  uint64_t momentum_promotions_ = 0;
  uint64_t second_chance_demotions_ = 0;
  PageId scan_cursor_ = 0;
  TraceEmitter::TrackId cooling_track_ = 0;  //!< Cooling-event track.
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_CORE_HYBRIDTIER_POLICY_H_
