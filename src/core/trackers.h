#ifndef HYBRIDTIER_CORE_TRACKERS_H_
#define HYBRIDTIER_CORE_TRACKERS_H_

/**
 * @file
 * HybridTier's access trackers (paper §3.1, §4.2).
 *
 * An AccessTracker pairs a frequency estimator (blocked CBF by default;
 * standard CBF and an exact table are available for the paper's
 * ablations) with a sample-count-based cooling schedule. HybridTier
 * instantiates two:
 *  - the *frequency* tracker with a high cooling period C, capturing
 *    long-term hotness (order of minutes-to-hours);
 *  - the *momentum* tracker with a low C and a 128x smaller filter,
 *    capturing access intensity over seconds.
 */

#include <cstdint>
#include <memory>
#include <span>

#include "policies/policy.h"
#include "probstruct/blocked_cbf.h"
#include "probstruct/cbf.h"
#include "probstruct/estimator.h"
#include "probstruct/exact_table.h"
#include "probstruct/sizing.h"

namespace hybridtier {

/** Which estimator implementation backs a tracker. */
enum class EstimatorKind : uint8_t {
  kBlockedCbf = 0,  //!< Shipped design: one cache line per update.
  kStandardCbf = 1, //!< Fig 14 middle bar: k scattered lines per update.
  kExact = 2,       //!< Ground truth / Memtis-style dense table.
};

/** Display name of an estimator kind. */
const char* EstimatorKindName(EstimatorKind kind);

/** Configuration for one tracker. */
struct TrackerConfig {
  EstimatorKind kind = EstimatorKind::kBlockedCbf;
  CbfSizing sizing{.num_counters = 1024, .num_hashes = 4, .counter_bits = 4};
  uint64_t exact_units = 0;        //!< Table size when kind == kExact.
  uint64_t cooling_period_samples = 0;  //!< 0 disables cooling.
  uint64_t metadata_base = 1ULL << 44;  //!< Synthetic line address base.
  uint64_t seed = 1;
};

/** One estimator + cooling schedule + metadata-traffic reporting. */
class AccessTracker {
 public:
  explicit AccessTracker(const TrackerConfig& config);

  /**
   * Records one sampled access to `unit`, reporting the metadata lines
   * it touches to `sink`, and applies scheduled cooling. Returns the new
   * estimated count; when `old_count` is non-null it receives the
   * estimate from before the update (computed as part of the same
   * filter walk, so callers needing both pay one lookup, not two).
   */
  uint32_t RecordAccess(PageId unit, MetadataTrafficCounter& sink,
                        uint32_t* old_count = nullptr);

  /** Estimated count of `unit` (no traffic reported; simulator-internal
   *  reads during scans should use GetTracked instead). */
  uint32_t Get(PageId unit) const { return estimator_->Get(unit); }

  /** Batched Get: `out[i]` = Get(units[i]); one estimator call. */
  void GetEach(std::span<const PageId> units, std::span<uint32_t> out) const {
    estimator_->GetEach(units, out);
  }

  /** Estimated count, reporting the lookup's metadata lines to `sink`. */
  uint32_t GetTracked(PageId unit, MetadataTrafficCounter& sink) const;

  /** Largest representable count. */
  uint32_t max_count() const { return estimator_->max_count(); }

  /** Bytes of metadata backing this tracker. */
  size_t memory_bytes() const { return estimator_->memory_bytes(); }

  /** Cooling passes applied so far. */
  uint64_t coolings() const { return coolings_; }

  /** Samples recorded so far. */
  uint64_t samples() const { return samples_; }

  /** True if the last RecordAccess triggered a cooling pass. */
  bool cooled_on_last_record() const { return cooled_on_last_record_; }

  /** Underlying estimator (for accuracy studies). */
  const FrequencyEstimator& estimator() const { return *estimator_; }

  /** Clears counters and schedules. */
  void Reset();

 private:
  /** Replays one update's touched lines into the sink. */
  void TouchLines(PageId unit, MetadataTrafficCounter& sink) const;

  TrackerConfig config_;
  std::unique_ptr<FrequencyEstimator> estimator_;
  uint64_t samples_ = 0;
  uint64_t samples_at_last_cooling_ = 0;
  uint64_t coolings_ = 0;
  bool cooled_on_last_record_ = false;
  mutable std::vector<uint64_t> scratch_lines_;
};

/** Builds the estimator named by `kind` with the given sizing. */
std::unique_ptr<FrequencyEstimator> MakeEstimator(EstimatorKind kind,
                                                  const CbfSizing& sizing,
                                                  uint64_t exact_units,
                                                  uint64_t seed);

}  // namespace hybridtier

#endif  // HYBRIDTIER_CORE_TRACKERS_H_
