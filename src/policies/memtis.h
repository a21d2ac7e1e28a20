#ifndef HYBRIDTIER_POLICIES_MEMTIS_H_
#define HYBRIDTIER_POLICIES_MEMTIS_H_

/**
 * @file
 * Memtis baseline (Lee et al., SOSP'23), reimplemented from the paper's
 * description (§2.3, §3.2-3.3 of the HybridTier paper).
 *
 * Memtis is the state-of-the-art *frequency-based* tiering system:
 *  - PEBS samples increment a dedicated 16-byte-per-page counter record
 *    reached through the page table (the multi-level walk is why its
 *    metadata updates touch several cache lines);
 *  - a global hotness histogram over the counters yields the dynamic
 *    hotness threshold that exactly fills the fast tier;
 *  - all counters are cooled (halved) every cooling period C samples —
 *    the EMA freshness mechanism whose lag the paper analyzes in Fig 3;
 *  - pages whose counter crosses the threshold are promoted in batches;
 *    background watermark demotion scans evict sub-threshold pages.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "policies/policy.h"
#include "probstruct/exact_table.h"

namespace hybridtier {

/** Tunables for the Memtis baseline. */
struct MemtisConfig {
  /** Halve all counters every this many samples (the paper's C). */
  uint64_t cooling_period_samples = 150000;
  /** Flush pending promotions every this many samples. */
  uint64_t promo_batch_samples = 2048;
  /** Histogram cap for counter values. */
  uint32_t hist_max = 127;
  /** Demotion hysteresis divisor: victims need count < threshold/this. */
  uint32_t demote_hysteresis_divisor = 2;
  /** Begin demoting when fast free fraction falls below this. */
  double demote_trigger_frac = 0.02;
  /** Demote until fast free fraction reaches this. */
  double demote_target_frac = 0.04;
  /** Address-space units examined per maintenance tick. */
  uint64_t scan_units_per_tick = 8192;
};

/** Frequency-histogram tiering baseline. */
class MemtisPolicy : public TieringPolicy {
 public:
  explicit MemtisPolicy(const MemtisConfig& config = MemtisConfig{});

  void Bind(const PolicyContext& context) override;
  void OnSample(const SampleRecord& sample) override;
  /** Sample-driven: never observes the demand stream (OnAccess stays
   *  the inherited no-op), so per-access dispatch is skipped. */
  AccessInterest access_interest() const override {
    return AccessInterest::kNone;
  }

  void Tick(TimeNs now) override;
  size_t MetadataBytes() const override;
  const char* name() const override { return "Memtis"; }

  /** Per-page access-count estimate (the demotion-ordering signal). */
  uint32_t HotnessOf(PageId unit) const override {
    return counters_->Get(unit);
  }

  /** Current histogram-derived hotness threshold. */
  uint32_t hot_threshold() const { return hot_threshold_; }

  /** Cooling passes performed. */
  uint64_t coolings() const { return coolings_; }

  /** Read-only view of the hotness histogram. */
  const Histogram& histogram() const { return *histogram_; }

 private:
  /** Recomputes the hotness threshold from the histogram. */
  void UpdateThreshold();

  /** Demotes up to `needed` sub-threshold fast pages, stamping the
   *  batch with `reason`; returns the count. */
  uint64_t DemoteColdPages(uint64_t needed, TimeNs now,
                           MigrationReason reason);

  /** Emits the metadata lines one sampled update touches. */
  void TouchSampleMetadata(PageId unit, uint32_t bucket);

  MemtisConfig config_;
  std::unique_ptr<ExactCounterTable> counters_;
  std::unique_ptr<Histogram> histogram_;
  std::vector<PageId> pending_promotions_;
  uint64_t samples_seen_ = 0;
  uint64_t samples_at_last_flush_ = 0;
  uint64_t samples_at_last_cooling_ = 0;
  uint32_t hot_threshold_ = 1;
  uint64_t coolings_ = 0;
  PageId scan_cursor_ = 0;
  TraceEmitter::TrackId cooling_track_ = 0;  //!< Cooling-event track.
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_POLICIES_MEMTIS_H_
