#ifndef HYBRIDTIER_POLICIES_NUMA_BALANCING_H_
#define HYBRIDTIER_POLICIES_NUMA_BALANCING_H_

/**
 * @file
 * Linux NUMA balancing with MGLRU demotion: the machinery the two
 * recency-based hint-fault baselines share (paper §2.3.2). TPP is NUMA
 * balancing plus an active-LRU promotion filter and wider demotion
 * watermarks, so both baselines derive from this base and differ only
 * in their hint-fault promotion rule.
 *
 * The base periodically unmaps ("protects") chunks of the application
 * address space; the first access to an unmapped page takes a hint
 * fault, and the subclass's rule decides whether that fault promotes a
 * slow-tier page. Promotions draw from a token bucket refilled each
 * tick (Linux NUMA-balancing migration rate limiting). Demotion uses
 * multi-generational-LRU aging driven by hardware accessed bits: when
 * fast-tier free space falls under the trigger watermark, fast pages
 * unaccessed for enough scan generations are demoted until free space
 * reaches the target watermark.
 */

#include <cstdint>
#include <memory>

#include "policies/aging.h"
#include "policies/policy.h"

namespace hybridtier {

/** Tunables shared by the NUMA-balancing baselines. */
struct NumaBalancingConfig {
  /** Address-space units protected per maintenance tick. */
  uint64_t scan_chunk_units = 1024;
  /** Accessed-bit harvest chunk per tick (MGLRU aging). */
  uint64_t age_chunk_units = 2048;
  /** Demote when fast free fraction falls below this. */
  double demote_trigger_frac = 0.02;
  /** Demote until fast free fraction reaches this. */
  double demote_target_frac = 0.04;
  /** Minimum age (generations unaccessed) for demotion eligibility. */
  uint8_t demote_min_age = 2;
  /** Fault-promotion rate limit, pages per maintenance tick (models
   *  Linux NUMA-balancing migration rate limiting). */
  uint64_t promotion_rate_per_tick = 48;
};

/** NUMA-balancing base of the TPP and AutoNUMA baselines. */
class NumaBalancingPolicy : public TieringPolicy {
 public:
  void Bind(const PolicyContext& context) final;
  void OnAccess(PageId unit, const TouchResult& touch, TimeNs now) final;
  /** Promotes at fault time inside OnAccess, so later accesses of the
   *  same op must observe the migration: requires inline dispatch. */
  AccessInterest access_interest() const final {
    return AccessInterest::kInline;
  }
  void Tick(TimeNs now) final;

  /** Hint faults observed. */
  uint64_t hint_faults() const { return hint_faults_; }

  /** Faults that resulted in promotion. */
  uint64_t fault_promotions() const { return fault_promotions_; }

  /** Promotions skipped by the migration rate limiter. */
  uint64_t rate_limited_promotions() const {
    return rate_limited_promotions_;
  }

 protected:
  explicit NumaBalancingPolicy(const NumaBalancingConfig& config)
      : config_(config) {}

  /** Sizes the promotion rule's per-unit state; called from Bind. */
  virtual void BindRule(uint64_t footprint_units) { (void)footprint_units; }

  /**
   * The hint-fault promotion rule: called once per hint fault, after
   * the fault's PTE line, it reports the rule's own metadata line and
   * returns true when the fault qualifies `unit` for promotion (the
   * base still requires it to be slow-tier and a token to be free).
   */
  virtual bool PromotesOnFault(PageId unit, const TouchResult& touch,
                               TimeNs now) = 0;

  /** Accessed-bit and generation bytes of the aging state. */
  size_t AgingBytes() const { return ager_->memory_bytes(); }

  /** Synthetic metadata region of MGLRU generation state. */
  static constexpr uint64_t kLruBase = 1ULL << 45;

 private:
  /** MGLRU eviction down to the target watermark. */
  void WatermarkDemotion(TimeNs now);

  NumaBalancingConfig config_;
  std::unique_ptr<ClockAger> ager_;
  PageId protect_cursor_ = 0;
  PageId age_cursor_ = 0;
  PageId demote_cursor_ = 0;
  uint64_t hint_faults_ = 0;
  uint64_t fault_promotions_ = 0;
  uint64_t promotion_tokens_ = 0;
  uint64_t rate_limited_promotions_ = 0;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_POLICIES_NUMA_BALANCING_H_
