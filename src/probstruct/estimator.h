#ifndef HYBRIDTIER_PROBSTRUCT_ESTIMATOR_H_
#define HYBRIDTIER_PROBSTRUCT_ESTIMATOR_H_

/**
 * @file
 * Abstract interface for access-frequency estimators.
 *
 * HybridTier's trackers are written against this interface so that the
 * paper's ablations can swap implementations: blocked CBF (the shipped
 * design), standard CBF (Fig 14 middle bar), and an exact per-page table
 * (Table 5 ground truth / Memtis metadata model).
 */

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hybridtier {

/** Saturating per-key access-count estimator with EMA cooling. */
class FrequencyEstimator {
 public:
  virtual ~FrequencyEstimator() = default;

  /** Returns the estimated access count of `key`. */
  virtual uint32_t Get(uint64_t key) const = 0;

  /**
   * Batched Get: `out[i]` = Get(keys[i]) for every i (`out` must be as
   * long as `keys`). One virtual call per batch; the default loops Get,
   * and estimators override it to probe without per-key dispatch.
   */
  virtual void GetEach(std::span<const uint64_t> keys,
                       std::span<uint32_t> out) const {
    for (size_t i = 0; i < keys.size(); ++i) out[i] = Get(keys[i]);
  }

  /** Records one access to `key`; returns the new estimated count. */
  virtual uint32_t Increment(uint64_t key) = 0;

  /**
   * Increment that also reports the estimate *before* the update in
   * `*old_count`. CBF implementations compute that minimum as part of
   * the update anyway, so overriding this halves the hot-path lookups;
   * the default falls back to Get + Increment.
   */
  virtual uint32_t IncrementWithOld(uint64_t key, uint32_t* old_count) {
    *old_count = Get(key);
    return Increment(key);
  }

  /** Halves every stored count (EMA cooling with decay factor 2). */
  virtual void CoolByHalving() = 0;

  /** Clears all state. */
  virtual void Reset() = 0;

  /** Bytes of metadata storage used by this estimator. */
  virtual size_t memory_bytes() const = 0;

  /** Largest count this estimator can represent. */
  virtual uint32_t max_count() const = 0;

  /**
   * Appends the indices of the 64-byte cache lines (relative to this
   * estimator's storage base) that an update for `key` touches. The
   * simulator replays these through the cache model to attribute
   * tiering-metadata cache traffic (paper §3.3).
   */
  virtual void AppendTouchedLines(uint64_t key,
                                  std::vector<uint64_t>* lines) const = 0;

  /** Short implementation name for reports. */
  virtual const char* name() const = 0;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_PROBSTRUCT_ESTIMATOR_H_
