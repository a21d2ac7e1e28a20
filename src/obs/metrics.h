#ifndef HYBRIDTIER_OBS_METRICS_H_
#define HYBRIDTIER_OBS_METRICS_H_

/**
 * @file
 * Named metric registry with cheap hot-path handles.
 *
 * A `MetricRegistry` owns named counters, gauges, histograms, and
 * pull-probes. Call sites resolve a metric *once* at setup time and
 * keep the returned handle pointer — incrementing a counter is then a
 * single relaxed add through the pointer, with no string lookup or map
 * walk per event. Handle addresses are stable for the registry's
 * lifetime (entries live behind unique_ptr).
 *
 * The registry is snapshotted at the simulator's stats interval:
 * `Snapshot(now)` appends one point per metric in registration order,
 * building per-metric time series in virtual time. Because both the
 * sample times and the values are pure functions of the simulated
 * event stream, serialized output is byte-identical across runs and
 * `--jobs` values — the determinism suite gates exactly that.
 *
 * Two metric flavors cover the simulator's needs:
 *  - **owned** (Counter/Gauge/Histogram): the call site pushes values
 *    through the handle as events happen.
 *  - **probe**: the registry pulls a `std::function<double()>` at each
 *    snapshot — for values another object already maintains (e.g.
 *    `TieredMemory::fast_used_units`), avoiding double bookkeeping.
 *    Probes capture references into the simulation; they are evaluated
 *    only during Snapshot, never at serialization time, so writing the
 *    registry after the simulation is destroyed is safe.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/units.h"

namespace hybridtier {

/** Monotonic event count. */
class Counter {
 public:
  void Inc(uint64_t by = 1) { value_ += by; }
  void Set(uint64_t value) { value_ = value; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/** Point-in-time level (can move both ways). */
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/**
 * Power-of-two-bucketed distribution: bucket i counts observations in
 * [2^(i-1), 2^i), bucket 0 counts zeros and ones. Fixed 64 buckets, so
 * Observe is branch-light and allocation-free.
 */
class HistogramMetric {
 public:
  static constexpr size_t kBuckets = 64;

  void Observe(uint64_t value) {
    ++buckets_[BucketOf(value)];
    ++count_;
    sum_ += value;
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t bucket(size_t i) const { return buckets_[i]; }

  /** Index of the highest non-empty bucket, or 0 if empty. */
  size_t MaxBucket() const;

  static size_t BucketOf(uint64_t value) {
    if (value <= 1) return 0;
    return static_cast<size_t>(64 - __builtin_clzll(value - 1));
  }

  /** Lower bound of bucket `i` (inclusive). */
  static uint64_t BucketFloor(size_t i) {
    return i == 0 ? 0 : (uint64_t{1} << (i - 1)) + 1;
  }

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/** Owns named metrics; snapshots them into virtual-time series. */
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /** Registers a counter; the returned handle is registry-lifetime
   *  stable. Re-registering a name returns the existing handle. */
  Counter* AddCounter(const std::string& name);

  /** Registers a gauge (same handle rules as AddCounter). */
  Gauge* AddGauge(const std::string& name);

  /** Registers a histogram. Histograms are serialized as bucket
   *  tables, not time series — they summarize the whole run. */
  HistogramMetric* AddHistogram(const std::string& name);

  /** Registers a pull-probe evaluated at each Snapshot. */
  void AddProbe(const std::string& name, std::function<double()> probe);

  /**
   * Appends one sample per scalar metric (counters, gauges, probes) at
   * virtual time `now`, in registration order. A repeated timestamp is
   * ignored so end-of-run snapshots don't duplicate the last interval.
   */
  void Snapshot(TimeNs now);

  /** Number of snapshots taken. */
  size_t snapshot_count() const { return times_ns_.size(); }

  /** Scalar metrics registered (series columns). */
  size_t series_count() const { return scalars_.size(); }

  /** Snapshot timestamps, one per Snapshot call. */
  const std::vector<TimeNs>& times() const { return times_ns_; }

  /** Time series of a scalar metric, or nullptr if `name` is not
   *  registered. One value per snapshot, same order as times(). */
  const std::vector<double>* Series(const std::string& name) const;

  /** Registered histogram, or nullptr. */
  const HistogramMetric* FindHistogram(const std::string& name) const;

  /** Names of all scalar metrics, in registration order. */
  std::vector<std::string> ScalarNames() const;

  /**
   * Writes the registry as a standalone JSON document:
   * `{"times_ns": [...], "series": {name: [...]}, "final": {...},
   *   "histograms": {name: {...}}}`.
   */
  void WriteJson(std::ostream& out) const;

  /** As WriteJson but bare (no surrounding document) — for embedding
   *  one object per sweep cell in a merged file. */
  void WriteJsonObject(std::ostream& out) const;

  /** Writes `time_ns,<name>,...` header plus one row per snapshot. */
  void WriteCsv(std::ostream& out) const;

 private:
  /** One scalar column: exactly one of the handle pointers is set. */
  struct Scalar {
    std::string name;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::function<double()> probe;
    std::vector<double> series;  //!< One value per snapshot.

    double Current() const;
  };

  struct Histogram {
    std::string name;
    std::unique_ptr<HistogramMetric> histogram;
  };

  Scalar* FindScalar(const std::string& name);

  std::vector<Scalar> scalars_;
  std::vector<Histogram> histograms_;
  std::vector<TimeNs> times_ns_;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_OBS_METRICS_H_
