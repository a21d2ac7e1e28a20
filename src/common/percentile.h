#ifndef HYBRIDTIER_COMMON_PERCENTILE_H_
#define HYBRIDTIER_COMMON_PERCENTILE_H_

/**
 * @file
 * Latency statistics: the exact latency histogram behind every op
 * latency percentile the simulator reports, the (time, value) series
 * behind its timelines (the paper's "median latency over time", Fig 4),
 * and the settle and fairness reductions benches apply to them.
 */

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace hybridtier {

/**
 * Exact distribution of integer-nanosecond latencies: a value -> count
 * store in an open-addressing hash table, sorted only when a quantile is
 * asked for. Op latencies fall on a few discrete values, so the table
 * stays small and every query reads the whole distribution, not a
 * sample of it. Clear keeps the table, so a histogram that is read and
 * cleared every stats interval allocates only while it grows.
 */
class LatencyHistogram {
 public:
  /** Records one observation. */
  void Add(uint64_t value_ns) {
    if (2 * (distinct_ + 1) > slots_.size()) Grow();
    Slot& slot = Find(value_ns);
    if (slot.count == 0) {
      slot.value = value_ns;
      ++distinct_;
    }
    ++slot.count;
    ++count_;
    sum_ += value_ns;
  }

  /**
   * Grouped-data q-quantile (q in [0,1]): each value v covers the
   * interval [v - 0.5, v + 0.5) and the rank q * count() is interpolated
   * inside it, so q = 0 reads min - 0.5, q = 1 reads max + 0.5, and a
   * lone value v reads v at q = 0.5. Returns 0 when empty.
   */
  double Quantile(double q) const { return Quantiles({q})[0]; }

  /** Quantile() at each of `qs`, from one sorted copy of the table. */
  std::vector<double> Quantiles(std::initializer_list<double> qs) const;

  /** The median (Quantile(0.5)). */
  double Median() const { return Quantile(0.5); }

  /** Exact mean from the integer sum; 0 when empty. */
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /** Observations recorded since construction or the last Clear. */
  uint64_t count() const { return count_; }

  /** Drops all observations (keeps the table's capacity). */
  void Clear();

 private:
  /** One open-addressing slot; count 0 marks it empty. */
  struct Slot {
    uint64_t value = 0;
    uint64_t count = 0;
  };

  /** The slot holding `value`, or the empty slot where it belongs. */
  Slot& Find(uint64_t value) {
    const size_t mask = slots_.size() - 1;
    size_t i = ((value * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
    while (slots_[i].count != 0 && slots_[i].value != value) {
      i = (i + 1) & mask;
    }
    return slots_[i];
  }

  /** Doubles the table (linear probing, kept at most half full). */
  void Grow();

  std::vector<Slot> slots_;
  size_t distinct_ = 0;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/**
 * A (time, value) series recorder: used for latency-over-time plots.
 * Samples are appended by the simulator at fixed virtual-time intervals.
 */
struct TimeSeries {
  /** Appends one point. */
  void Add(uint64_t time_ns, double value) {
    times_ns.push_back(time_ns);
    values.push_back(value);
  }

  /** Number of points recorded. */
  size_t size() const { return values.size(); }

  std::vector<uint64_t> times_ns;  //!< X coordinates, virtual ns.
  std::vector<double> values;      //!< Y coordinates.
};

/**
 * Jain's fairness index over `values`: (sum x)^2 / (n * sum x^2).
 * 1.0 = perfectly even, 1/n = one value holds everything. Returns 1.0
 * for empty or all-zero inputs (nothing to be unfair about).
 */
double JainFairnessIndex(const std::vector<double>& values);

/**
 * Weight-normalized Jain fairness: the plain index over values[i] /
 * weights[i], so a split that tracks the weights ("a:4,b:1" holding a
 * 4:1 occupancy ratio) scores 1.0. `weights` must be positive and the
 * same length as `values`; with all weights equal this reduces to
 * JainFairnessIndex.
 */
double WeightedJainFairnessIndex(const std::vector<double>& values,
                                 const std::vector<double>& weights);

/**
 * Noise-tolerant settle detector: returns the time of the first point at
 * or after `not_before_ns` from which at least `sustain_points`
 * consecutive points all lie within `tolerance` (relative) of `target`.
 * Used to measure adaptation time (paper Table 3: "reach within x% of
 * steady-state median latency"). Returns UINT64_MAX if no such window
 * exists.
 */
uint64_t FirstSustainedEntryNs(const TimeSeries& series, double target,
                               double tolerance, size_t sustain_points,
                               uint64_t not_before_ns = 0);

}  // namespace hybridtier

#endif  // HYBRIDTIER_COMMON_PERCENTILE_H_
