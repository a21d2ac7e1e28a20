#ifndef HYBRIDTIER_COMMON_EMA_H_
#define HYBRIDTIER_COMMON_EMA_H_

/**
 * @file
 * Exponential-moving-average counter with periodic halving ("cooling").
 *
 * This is the scalar form of the mechanism every frequency-based tiering
 * system in the paper uses: counters accumulate accesses and are divided
 * by two every cooling period C (decay factor 2, implementable with a bit
 * shift — paper §2.3.2). `EmaCounter` exists both as a reference model
 * for tests and to reproduce the Fig 3a lag demonstration.
 */

#include <cstdint>

#include "common/units.h"

namespace hybridtier {

/** Scalar EMA counter cooled by halving on a fixed virtual-time period. */
class EmaCounter {
 public:
  /**
   * @param cooling_period_ns halve the counter every this many ns of
   *        virtual time; 0 disables cooling (C = infinity).
   */
  explicit EmaCounter(TimeNs cooling_period_ns)
      : cooling_period_ns_(cooling_period_ns) {}

  /** Records `n` accesses at virtual time `now`. */
  void Add(TimeNs now, uint64_t n = 1) {
    Advance(now);
    value_ += n;
  }

  /** Returns the decayed value as of virtual time `now`. */
  uint64_t Value(TimeNs now) {
    Advance(now);
    return value_;
  }

  /** Number of halvings applied so far. */
  uint64_t coolings() const { return coolings_; }

 private:
  /** Applies all halvings that elapsed up to `now`. */
  void Advance(TimeNs now) {
    if (cooling_period_ns_ == 0) return;
    while (now >= next_cool_ns_) {
      value_ >>= 1;
      next_cool_ns_ += cooling_period_ns_;
      ++coolings_;
      if (value_ == 0 && now >= next_cool_ns_) {
        // Fast-forward: further halvings cannot change zero.
        const TimeNs remaining = now - next_cool_ns_;
        const uint64_t skips = remaining / cooling_period_ns_ + 1;
        next_cool_ns_ += skips * cooling_period_ns_;
        coolings_ += skips;
      }
    }
  }

  TimeNs cooling_period_ns_;
  TimeNs next_cool_ns_ = cooling_period_ns_ == 0 ? 0 : cooling_period_ns_;
  uint64_t value_ = 0;
  uint64_t coolings_ = 0;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_COMMON_EMA_H_
