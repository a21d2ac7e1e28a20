#ifndef HYBRIDTIER_WORKLOADS_CACHELIB_H_
#define HYBRIDTIER_WORKLOADS_CACHELIB_H_

/**
 * @file
 * CacheLib-style in-memory cache workload (paper Table 2, §5.3).
 *
 * Models Meta's CacheLib benchmark: a population of cached objects whose
 * popularity follows a Zipf distribution, with GET operations reading the
 * object's index entry and payload pages. Two production-derived variants
 * are provided:
 *  - CDN: fewer, larger objects (tens of KiB payloads);
 *  - social-graph: many small objects (hundreds of bytes), so multiple
 *    objects share each page and the *page-level* hot set is much larger
 *    (this is why social-graph has the largest >=15-count page fraction
 *    in paper Fig 16).
 *
 * Popularity *churn* reproduces the dynamic-hotness behaviour Meta
 * reports (§2.2): at configured virtual times, a fraction of the hottest
 * popularity ranks is remapped onto previously cold objects, so most of
 * the old hot set goes cold at once (the Fig 4 experiment performs one
 * such event with fraction 2/3).
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "workloads/address_space.h"
#include "workloads/workload.h"
#include "workloads/zipf.h"

namespace hybridtier {

/** One scheduled popularity-churn event. */
struct ChurnEvent {
  TimeNs time_ns = 0;        //!< Virtual time at which the event fires.
  double hot_fraction = 0.0; //!< Fraction of the hot ranks remapped.
};

/** Configuration for a CacheLib-style workload instance. */
struct CacheLibConfig {
  uint64_t num_objects = 200000;  //!< Cached object population.
  double zipf_theta = 0.9;        //!< Popularity skew.
  double get_ratio = 0.95;        //!< GETs; the rest are SETs (writes).
  // Object payload sizes: lognormal(log_mean, log_sigma), clamped.
  double size_log_mean = 9.5;     //!< exp(9.5) ~ 13 KiB.
  double size_log_sigma = 0.8;
  uint64_t min_object_bytes = 256;
  uint64_t max_object_bytes = 128 * 1024;
  /** Top fraction of ranks considered "hot" for churn remapping. */
  double hot_rank_fraction = 0.1;
  std::vector<ChurnEvent> churn;  //!< Must be sorted by time.
  uint64_t seed = 42;
};

/** CacheLib-style cache workload. */
class CacheLibWorkload : public Workload {
 public:
  explicit CacheLibWorkload(const CacheLibConfig& config,
                            const char* name = "cachelib");

  /** Paper CDN variant: larger objects, strong skew. */
  static CacheLibConfig CdnConfig(uint64_t num_objects = 120000,
                                  uint64_t seed = 42);

  /** Paper social-graph variant: small objects, many per page. */
  static CacheLibConfig SocialGraphConfig(uint64_t num_objects = 600000,
                                          uint64_t seed = 43);

  bool NextOp(TimeNs now, OpTrace* op) override;
  uint64_t footprint_pages() const override {
    return space_.total_pages();
  }
  const char* name() const override { return name_; }

  /** Object currently mapped to popularity rank `rank`. */
  uint64_t ObjectOfRank(uint64_t rank) const { return rank_to_object_[rank]; }

  /** Number of churn events already applied. */
  size_t churn_events_applied() const { return next_churn_; }

 private:
  /** Applies all churn events scheduled at or before `now`. */
  void MaybeChurn(TimeNs now);

  /** Emits the access burst for one GET/SET of `obj`. */
  void EmitObjectOp(uint64_t obj, bool is_write, OpTrace* op);

  CacheLibConfig config_;
  const char* name_;
  Rng rng_;
  ZipfGenerator zipf_;
  AddressSpace space_;
  VirtualArray index_;                  //!< 64 B index entry per object.
  std::vector<uint64_t> object_base_;   //!< Payload base address per object.
  std::vector<uint32_t> object_size_;   //!< Payload bytes per object.
  std::vector<uint64_t> rank_to_object_;
  size_t next_churn_ = 0;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_WORKLOADS_CACHELIB_H_
