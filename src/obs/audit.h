#ifndef HYBRIDTIER_OBS_AUDIT_H_
#define HYBRIDTIER_OBS_AUDIT_H_

/**
 * @file
 * Tiering decision audit: machine-readable reason codes on every
 * migration batch, a bounded deterministic flight recorder, and an
 * online mis-tiering labeler.
 *
 * Every promotion/demotion batch a policy issues carries a
 * `MigrationReason` through `MigrationEngine` (the fair-share quota
 * gate forwards the base policy's reason, and tags its own controller
 * traffic with quota reasons). When a `DecisionAudit` is attached to
 * the engine, each executed batch is appended to a bounded ring of
 * `AuditRecord`s — oldest records are overwritten and counted, so a
 * promotion-storm run cannot grow the audit without bound — and
 * per-reason page/batch counters accumulate for the whole run.
 *
 * The labeler classifies outcomes online, from the same event stream
 * the simulation already produces:
 *  - **premature demotion**: a demoted unit takes a slow demand fill
 *    within `premature_window_ns` of its demotion (the page was still
 *    hot; demoting it bought a slow access, not free space);
 *  - **late promotion**: a slow-resident unit takes at least
 *    `hot_touch_min` slow fills in each of `late_promotion_intervals`
 *    consecutive stats intervals without being promoted (the policy is
 *    sitting on a page hot enough to deserve fast-tier placement).
 * Each unit is counted once per offense episode: a premature demotion
 * clears its stamp, a late promotion latches until the unit is finally
 * promoted. All bookkeeping is epoch-stamped and O(touched units) per
 * interval, so fleet-scale cells pay for their traffic, not their
 * footprint.
 *
 * Like the rest of `src/obs/`, everything here is observation only:
 * the audit never feeds back into timing or placement, a null audit
 * pointer is the disabled state, and every output is a pure function
 * of the simulated event stream (byte-identical across runs and
 * `--jobs` values).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "mem/page.h"

namespace hybridtier {

/** Why a migration batch was issued (one reason per batch). */
enum class MigrationReason : uint8_t {
  kHintFault = 0,    //!< Fault-time promotion (TPP/AutoNUMA hint fault).
  kHotnessRank,      //!< Hotness or recency rank crossed the bar.
  kCapacityDemand,   //!< Demand demotion making room for a promotion batch.
  kWatermark,        //!< Background free-watermark demotion scan.
  kQuotaEnforce,     //!< Fair-share over-quota enforcement demotion.
  kQuotaFill,        //!< Fair-share fill-to-quota promotion.
  kQuotaRotation,    //!< Fair-share rotation of a visibly bad resident mix.
  kChurnDrain,       //!< Departed-tenant paced region reclaim.
  kFaultEvacuation,  //!< Residents pulled off a down endpoint.
  kFaultSpill,       //!< Fast-tier pages demoted to make evacuation room.
  kCount,
};

/** Stable short name ("hotness_rank", "quota_fill", ...). */
const char* MigrationReasonName(MigrationReason reason);

/** One executed migration batch in the flight recorder. */
struct AuditRecord {
  TimeNs time_ns = 0;
  MigrationReason reason = MigrationReason::kHintFault;
  bool promotion = false;       //!< Promotion batch (else demotion).
  uint32_t pages_moved = 0;     //!< Pages the engine actually moved.
  uint32_t pages_requested = 0; //!< Batch size the policy requested.
  uint64_t cooling_epoch = 0;   //!< Tracker coolings seen so far.
};

/** Tunables for the audit ring and the mis-tiering labeler. */
struct DecisionAuditConfig {
  /** Flight-recorder capacity in batch records; older records are
   *  overwritten (and counted) once the ring is full. */
  size_t ring_capacity = 4096;
  /** A demoted unit re-filled from the slow tier within this window is
   *  a premature demotion. */
  TimeNs premature_window_ns = 10 * kMillisecond;
  /** Consecutive hot stats intervals a slow unit must stay unpromoted
   *  to count as a late promotion. */
  uint32_t late_promotion_intervals = 3;
  /** Slow demand fills per interval for a unit to count as hot. */
  uint32_t hot_touch_min = 4;
};

/** Bounded migration flight recorder + mis-tiering labeler. */
class DecisionAudit {
 public:
  explicit DecisionAudit(const DecisionAuditConfig& config = {});

  /** Sizes the labeler's per-unit tables; called by the simulation
   *  once the footprint is known. Resets all state. */
  void Configure(uint64_t footprint_units);

  // --- Flight recorder (fed by MigrationEngine) -----------------------

  /** Appends one executed batch to the ring. */
  void RecordBatch(bool promotion, MigrationReason reason, TimeNs now,
                   uint32_t pages_moved, uint32_t pages_requested);

  /** Counts promotion candidates a quota gate refused admission. */
  void RecordQuotaTruncation(uint64_t pages) {
    quota_truncated_pages_ += pages;
  }

  /** Advances the cooling epoch stamped onto subsequent records. */
  void RecordCooling() { ++cooling_epochs_; }

  /** Counts promotion batches reordered by endpoint cost before the
   *  quota gate decided admissions. */
  void RecordEndpointReorder() { ++endpoint_reorders_; }

  // --- Labeler feeds (fed by the engine and the hot loop) -------------

  /** A unit landed in the fast tier via a promotion batch. */
  void OnPromoted(PageId unit, TimeNs now);

  /** A unit was demoted to the slow tier. */
  void OnDemoted(PageId unit, TimeNs now);

  /** A demand fill was served from the slow tier for `unit`. */
  void OnSlowFill(PageId unit, TimeNs now);

  /** Closes one stats interval: updates hot-streak state for the units
   *  touched since the previous call. O(touched units). */
  void AdvanceInterval(TimeNs now);

  // --- Views ----------------------------------------------------------

  /** Ring contents, oldest first. */
  std::vector<AuditRecord> RingSnapshot() const;

  /** Batch records overwritten at the ring capacity. */
  uint64_t dropped_records() const { return dropped_records_; }

  uint64_t premature_demotions() const { return premature_demotions_; }
  uint64_t late_promotions() const { return late_promotions_; }
  uint64_t quota_truncated_pages() const { return quota_truncated_pages_; }
  uint64_t cooling_epochs() const { return cooling_epochs_; }
  uint64_t endpoint_reorders() const { return endpoint_reorders_; }

  /** Pages moved by promotion batches carrying `reason`. */
  uint64_t promoted_pages(MigrationReason reason) const {
    return promoted_pages_[static_cast<size_t>(reason)];
  }

  /** Pages moved by demotion batches carrying `reason`. */
  uint64_t demoted_pages(MigrationReason reason) const {
    return demoted_pages_[static_cast<size_t>(reason)];
  }

  /** Batches recorded with `reason` (promotions + demotions). */
  uint64_t batches(MigrationReason reason) const {
    return batches_[static_cast<size_t>(reason)];
  }

  /** Total batches recorded (including ring-dropped ones). */
  uint64_t total_batches() const { return total_batches_; }

  /** Multi-line per-reason + mis-tiering table for CLI output. */
  std::string Report() const;

 private:
  static constexpr size_t kReasons =
      static_cast<size_t>(MigrationReason::kCount);

  DecisionAuditConfig config_;

  // Flight recorder.
  std::vector<AuditRecord> ring_;
  size_t ring_next_ = 0;       //!< Next slot to write (wraps).
  size_t ring_size_ = 0;       //!< Valid records in the ring.
  uint64_t dropped_records_ = 0;
  uint64_t total_batches_ = 0;
  uint64_t batches_[kReasons] = {};
  uint64_t promoted_pages_[kReasons] = {};
  uint64_t demoted_pages_[kReasons] = {};
  uint64_t quota_truncated_pages_ = 0;
  uint64_t cooling_epochs_ = 0;
  uint64_t endpoint_reorders_ = 0;

  /** What a slow fill reads and writes of one unit: 16 B, so four
   *  units share a host line and a fill touches one. */
  struct alignas(16) FillRecord {
    TimeNs demote_stamp;        //!< time+1 of last demotion; 0=none.
    uint32_t touch_epoch;       //!< Epoch of interval_touches.
    uint32_t interval_touches;  //!< Slow fills in touch_epoch.
  };
  static_assert(sizeof(FillRecord) == 16);

  // Labeler state (dense per-unit tables, epoch-stamped).
  uint64_t footprint_units_ = 0;
  uint32_t epoch_ = 1;  //!< Current stats interval (starts at 1).
  std::vector<FillRecord> fill_;          //!< Per-unit slow-fill state.
  std::vector<uint32_t> last_hot_epoch_;  //!< Last epoch the unit was hot.
  std::vector<uint16_t> hot_streak_;      //!< Consecutive hot intervals.
  std::vector<uint8_t> late_counted_;     //!< Latched until promoted.
  std::vector<PageId> touched_units_;     //!< Units seen this interval.
  uint64_t premature_demotions_ = 0;
  uint64_t late_promotions_ = 0;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_OBS_AUDIT_H_
