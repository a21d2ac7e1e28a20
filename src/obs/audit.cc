#include "obs/audit.h"

#include <algorithm>
#include <cstdio>

namespace hybridtier {

const char* MigrationReasonName(MigrationReason reason) {
  switch (reason) {
    case MigrationReason::kHintFault:
      return "hint_fault";
    case MigrationReason::kHotnessRank:
      return "hotness_rank";
    case MigrationReason::kCapacityDemand:
      return "capacity_demand";
    case MigrationReason::kWatermark:
      return "watermark";
    case MigrationReason::kQuotaEnforce:
      return "quota_enforce";
    case MigrationReason::kQuotaFill:
      return "quota_fill";
    case MigrationReason::kQuotaRotation:
      return "quota_rotation";
    case MigrationReason::kChurnDrain:
      return "churn_drain";
    case MigrationReason::kFaultEvacuation:
      return "fault_evacuation";
    case MigrationReason::kFaultSpill:
      return "fault_spill";
    case MigrationReason::kCount:
      break;
  }
  return "?";
}

DecisionAudit::DecisionAudit(const DecisionAuditConfig& config)
    : config_(config) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  ring_.resize(config_.ring_capacity);
}

void DecisionAudit::Configure(uint64_t footprint_units) {
  footprint_units_ = footprint_units;
  epoch_ = 1;
  // resize value-initializes the records: one zero fill, as assign is
  // for the scalar tables.
  fill_.clear();
  fill_.resize(footprint_units);
  last_hot_epoch_.assign(footprint_units, 0);
  hot_streak_.assign(footprint_units, 0);
  late_counted_.assign(footprint_units, 0);
  touched_units_.clear();
}

void DecisionAudit::RecordBatch(bool promotion, MigrationReason reason,
                                TimeNs now, uint32_t pages_moved,
                                uint32_t pages_requested) {
  ++total_batches_;
  const size_t r = static_cast<size_t>(reason);
  ++batches_[r];
  if (promotion) {
    promoted_pages_[r] += pages_moved;
  } else {
    demoted_pages_[r] += pages_moved;
  }
  if (ring_size_ == ring_.size()) ++dropped_records_;
  AuditRecord& record = ring_[ring_next_];
  record.time_ns = now;
  record.reason = reason;
  record.promotion = promotion;
  record.pages_moved = pages_moved;
  record.pages_requested = pages_requested;
  record.cooling_epoch = cooling_epochs_;
  ring_next_ = (ring_next_ + 1) % ring_.size();
  if (ring_size_ < ring_.size()) ++ring_size_;
}

void DecisionAudit::OnPromoted(PageId unit, TimeNs now) {
  (void)now;
  if (unit >= footprint_units_) return;
  fill_[unit].demote_stamp = 0;
  hot_streak_[unit] = 0;
  last_hot_epoch_[unit] = 0;
  late_counted_[unit] = 0;
}

void DecisionAudit::OnDemoted(PageId unit, TimeNs now) {
  if (unit >= footprint_units_) return;
  fill_[unit].demote_stamp = now + 1;  // Shifted so 0 stays "no stamp".
}

void DecisionAudit::OnSlowFill(PageId unit, TimeNs now) {
  if (unit >= footprint_units_) return;
  FillRecord& record = fill_[unit];
  if (record.demote_stamp != 0) {
    if (now < (record.demote_stamp - 1) + config_.premature_window_ns) {
      ++premature_demotions_;
    }
    // Inside the window the offense is counted; past it the stamp is
    // stale either way. One demotion yields at most one label.
    record.demote_stamp = 0;
  }
  if (record.touch_epoch != epoch_) {
    record.touch_epoch = epoch_;
    record.interval_touches = 0;
    touched_units_.push_back(unit);
  }
  ++record.interval_touches;
}

void DecisionAudit::AdvanceInterval(TimeNs now) {
  (void)now;
  for (const PageId unit : touched_units_) {
    if (fill_[unit].interval_touches < config_.hot_touch_min) continue;
    // A streak only continues across back-to-back intervals; a cold or
    // untouched interval in between resets it (the epoch check covers
    // both without visiting untouched units).
    hot_streak_[unit] = last_hot_epoch_[unit] == epoch_ - 1
                            ? static_cast<uint16_t>(hot_streak_[unit] + 1)
                            : 1;
    last_hot_epoch_[unit] = epoch_;
    if (hot_streak_[unit] >= config_.late_promotion_intervals &&
        !late_counted_[unit]) {
      ++late_promotions_;
      late_counted_[unit] = 1;  // Latched until the unit is promoted.
    }
  }
  touched_units_.clear();
  ++epoch_;
}

std::vector<AuditRecord> DecisionAudit::RingSnapshot() const {
  std::vector<AuditRecord> out;
  out.reserve(ring_size_);
  const size_t start =
      ring_size_ == ring_.size() ? ring_next_ : 0;
  for (size_t i = 0; i < ring_size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::string DecisionAudit::Report() const {
  std::string report;
  char line[160];
  std::snprintf(line, sizeof(line),
                "  %-16s %10s %12s %12s\n", "reason", "batches",
                "promoted", "demoted");
  report += line;
  for (size_t r = 0; r < kReasons; ++r) {
    if (batches_[r] == 0) continue;
    std::snprintf(
        line, sizeof(line), "  %-16s %10llu %12llu %12llu\n",
        MigrationReasonName(static_cast<MigrationReason>(r)),
        static_cast<unsigned long long>(batches_[r]),
        static_cast<unsigned long long>(promoted_pages_[r]),
        static_cast<unsigned long long>(demoted_pages_[r]));
    report += line;
  }
  std::snprintf(
      line, sizeof(line),
      "  premature demotions %llu, late promotions %llu\n",
      static_cast<unsigned long long>(premature_demotions_),
      static_cast<unsigned long long>(late_promotions_));
  report += line;
  std::snprintf(
      line, sizeof(line),
      "  quota-truncated pages %llu, cooling epochs %llu, "
      "endpoint reorders %llu\n",
      static_cast<unsigned long long>(quota_truncated_pages_),
      static_cast<unsigned long long>(cooling_epochs_),
      static_cast<unsigned long long>(endpoint_reorders_));
  report += line;
  std::snprintf(
      line, sizeof(line),
      "  audit ring: %llu batches recorded, %llu overwritten\n",
      static_cast<unsigned long long>(total_batches_),
      static_cast<unsigned long long>(dropped_records_));
  report += line;
  return report;
}

}  // namespace hybridtier
