#ifndef HYBRIDTIER_SAMPLING_SAMPLER_H_
#define HYBRIDTIER_SAMPLING_SAMPLER_H_

/**
 * @file
 * Hardware-event-sampling analogue (Intel PEBS / AMD IBS) with
 * per-source sample budgets.
 *
 * Emits one in about `period` accesses of each source into one bounded
 * sample buffer. The period is jittered deterministically (a small
 * pseudo-random offset re-drawn after every sample) to avoid aliasing
 * with strided access patterns, as real sampling drivers do.
 *
 * A source is a tenant. One global period would make the sample stream
 * proportional to access *volume*: a tenant issuing 10x the accesses
 * would own 10x the samples, crowding out the signal every per-tenant
 * estimator (hit density, ghost MRC) needs about its smaller
 * neighbours. NeoMem-style per-source budgets fix this: every
 * adaptation window the sampler re-divides the global sample budget
 * (window / base_period) equally among the sources active in that
 * window and sets each source's period to deliver its share. A
 * high-rate source ends up with a long period, a small one with a
 * period floored at 1 — proportional signal for everyone, same total
 * sample-processing cost. A lone source has nothing to divide, so it is
 * never adapted: it samples at the base period, the global-period
 * sampler of a single-tenant run.
 *
 * All state is a pure function of the access sequence: same stream,
 * same samples.
 */

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "mem/page.h"
#include "mem/tier.h"
#include "sampling/ring_buffer.h"
#include "sampling/sample.h"

namespace hybridtier {

/** Knobs of the access sampler. */
struct SamplerConfig {
  uint64_t base_period = kSamplePeriod;    //!< Global mean accesses/sample.
  size_t buffer_capacity = kSampleBuffer;  //!< Shared sample buffer depth.
  /** Total accesses between period re-adaptations. */
  uint64_t adapt_window_accesses = 65536;
  /** Per-source period ceiling, as a multiple of base_period. */
  uint64_t max_period_scale = 64;
  uint64_t seed = 7;  //!< Jitter RNG seed.
};

/** Samples each source's accesses into a drop-on-full ring buffer. */
class AccessSampler {
 public:
  /** A sampler over `sources` (>= 1) access sources. */
  AccessSampler(const SamplerConfig& config, uint32_t sources);

  /**
   * Observes one access by `source`; if its countdown expires, enqueues
   * a sample. Returns true if this access was sampled (regardless of
   * buffer drops). Inlined: the common case is two decrements and two
   * predictable branches.
   */
  bool OnAccess(uint32_t source, PageId page, Tier tier, TimeNs now) {
    Source& s = sources_[source];
    ++s.accesses;
    if (--window_left_ == 0) [[unlikely]] {
      Adapt();
    }
    if (--s.countdown > 0) [[likely]] {
      return false;
    }
    TakeSample(&s, page, tier, now);
    return true;
  }

  /** Drains up to `max_records` pending samples into `out` (appending). */
  size_t Drain(std::vector<SampleRecord>* out, size_t max_records) {
    return buffer_.Drain(out, max_records);
  }

  /** Number of access sources. */
  uint32_t sources() const { return static_cast<uint32_t>(sources_.size()); }

  /** Current sampling period of `source`. */
  uint64_t period(uint32_t source) const { return sources_[source].period; }

  /** Samples taken for `source` so far (including dropped ones). */
  uint64_t source_samples(uint32_t source) const {
    return sources_[source].samples;
  }

  /** Samples taken so far across all sources (including dropped). */
  uint64_t samples_taken() const { return samples_taken_; }

  /** Samples dropped due to a full buffer. */
  uint64_t samples_dropped() const { return buffer_.dropped(); }

  /** Accesses observed so far across all sources. */
  uint64_t accesses_seen() const;

  /** Pending samples in the buffer. */
  size_t pending() const { return buffer_.size(); }

  /** Period re-adaptations performed so far. */
  uint64_t adaptations() const { return adaptations_; }

 private:
  /** One access source's countdown, period and jitter stream. */
  struct Source {
    uint64_t countdown = 0;
    uint64_t accesses = 0;      //!< Observed so far.
    uint64_t window_start = 0;  //!< `accesses` when this window began.
    uint64_t period = 0;
    uint64_t samples = 0;
    Rng rng;
  };

  /** Draws `s`'s next jittered countdown (period +/- 25%). */
  static uint64_t NextCountdown(Source* s);

  /** Emits one sample and re-arms `s`'s countdown (cold path). */
  void TakeSample(Source* s, PageId page, Tier tier, TimeNs now);

  /** Re-divides the sample budget over the sources seen this window. */
  void Adapt();

  SamplerConfig config_;
  RingBuffer<SampleRecord> buffer_;
  std::vector<Source> sources_;
  uint64_t window_left_;  //!< Accesses until the next adaptation.
  uint64_t samples_taken_ = 0;
  uint64_t adaptations_ = 0;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_SAMPLING_SAMPLER_H_
