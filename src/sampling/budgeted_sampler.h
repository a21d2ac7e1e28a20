#ifndef HYBRIDTIER_SAMPLING_BUDGETED_SAMPLER_H_
#define HYBRIDTIER_SAMPLING_BUDGETED_SAMPLER_H_

/**
 * @file
 * Per-tenant sampler budgets over the PEBS-analogue event stream.
 *
 * One global sampling period makes the sample stream proportional to
 * access *volume*: a tenant issuing 10x the accesses owns 10x the
 * samples, crowding out the signal every per-tenant estimator (hit
 * density, ghost MRC) needs about its smaller neighbours. NeoMem-style
 * per-source budgets fix this by scaling each tenant's sample period to
 * its access rate: every adaptation window the sampler re-divides the
 * global sample budget (window / base_period) equally among the tenants
 * active in that window and sets each tenant's period to deliver its
 * share. A high-rate tenant ends up with a long period, a small tenant
 * with a period floored at 1 — proportional signal for everyone, same
 * total sample-processing cost.
 *
 * Periods are jittered per tenant (deterministically, like
 * `AccessSampler`) so strided tenants do not alias, and all state is a
 * pure function of the access sequence: same stream, same samples.
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

/** Knobs of the per-tenant budgeted sampler. */
struct BudgetedSamplerConfig {
  uint64_t base_period = kSamplePeriod;    //!< Global mean accesses/sample.
  size_t buffer_capacity = kSampleBuffer;  //!< Shared sample buffer depth.
  /** Total accesses between period re-adaptations. */
  uint64_t adapt_window_accesses = 65536;
  /** Per-tenant period ceiling, as a multiple of base_period. */
  uint64_t max_period_scale = 64;
  uint64_t seed = 7;             //!< Jitter RNG seed.
};

/** Samples each tenant's stream at its own budget-scaled period. */
class BudgetedSampler {
 public:
  BudgetedSampler(const BudgetedSamplerConfig& config, uint32_t tenants);

  /**
   * Observes one access by `tenant`; if its countdown expires, enqueues
   * a sample. Returns true if this access was sampled.
   */
  bool OnAccess(uint32_t tenant, PageId page, Tier tier, TimeNs now);

  /** Drains up to `max_records` pending samples into `out` (appending). */
  size_t Drain(std::vector<SampleRecord>* out, size_t max_records);

  /** Current sampling period of `tenant`. */
  uint64_t period(uint32_t tenant) const { return period_[tenant]; }

  /** Samples taken for `tenant` so far (including dropped ones). */
  uint64_t tenant_samples(uint32_t tenant) const {
    return tenant_samples_[tenant];
  }

  /** Accesses observed for `tenant` so far. */
  uint64_t tenant_accesses(uint32_t tenant) const {
    return tenant_accesses_[tenant];
  }

  /** Samples taken so far across all tenants (including dropped). */
  uint64_t samples_taken() const { return samples_taken_; }

  /** Samples dropped due to a full buffer. */
  uint64_t samples_dropped() const { return buffer_.dropped(); }

  /** Accesses observed so far across all tenants. */
  uint64_t accesses_seen() const { return accesses_seen_; }

  /** Pending samples in the buffer. */
  size_t pending() const { return buffer_.size(); }

  /** Period re-adaptations performed so far. */
  uint64_t adaptations() const { return adaptations_; }

 private:
  /** Draws tenant `t`'s next jittered countdown (period +/- 25%). */
  uint64_t NextCountdown(uint32_t t);

  /** Re-divides the sample budget over the tenants seen this window. */
  void Adapt();

  BudgetedSamplerConfig config_;
  RingBuffer<SampleRecord> buffer_;
  std::vector<Rng> rng_;                  //!< Per-tenant jitter streams.
  std::vector<uint64_t> period_;          //!< Current per-tenant period.
  std::vector<uint64_t> countdown_;
  std::vector<uint64_t> window_accesses_; //!< This adaptation window.
  std::vector<uint64_t> tenant_accesses_;
  std::vector<uint64_t> tenant_samples_;
  uint64_t window_seen_ = 0;
  uint64_t samples_taken_ = 0;
  uint64_t accesses_seen_ = 0;
  uint64_t adaptations_ = 0;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_SAMPLING_BUDGETED_SAMPLER_H_
