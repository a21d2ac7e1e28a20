#ifndef HYBRIDTIER_BENCH_COMMON_CLOCKED_WORKLOAD_H_
#define HYBRIDTIER_BENCH_COMMON_CLOCKED_WORKLOAD_H_

/**
 * @file
 * Measures op latencies from outside the simulation: a workload
 * decorator that rebuilds every op's latency from the clock the
 * simulation hands to `Workload::NextOp`. Benches use it for statistics
 * over an arbitrary op window (e.g. every op after a fault); tests use
 * it to check the simulation's own percentiles bit for bit.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "multitenant/mux_workload.h"
#include "workloads/tenant_tag.h"
#include "workloads/workload.h"

namespace hybridtier::bench {

/** One op as the NextOp clock saw it. */
struct ClockedOp {
  TimeNs start_ns = 0;     //!< The `now` its NextOp call was made at.
  uint64_t latency_ns = 0;
  uint32_t tenant = 0;
  bool measured = false;   //!< Completed after the warm-up reset.
};

/**
 * Forwards a workload and rebuilds every op's latency from the clock:
 * between two NextOp calls the simulation advances virtual time by
 * exactly the op's think time plus its latency. Call `Finish` after the
 * run to close the last op.
 */
class ClockedWorkload : public Workload {
 public:
  ClockedWorkload(Workload* inner, uint64_t warmup_accesses)
      : inner_(inner),
        warmup_accesses_(warmup_accesses),
        warm_(warmup_accesses == 0) {}

  bool NextOp(TimeNs now, OpTrace* op) override {
    if (pending_) Close(now);
    const bool more = inner_->NextOp(now, op);
    // Mirrors Simulation::Run: empty ops are idle gaps, and warm-up
    // ends after the op whose accesses cross the budget.
    if (more && !op->accesses.empty()) {
      pending_ = true;
      current_ = {now, op->think_time_ns, Tenant(), warm_};
      accesses_ += op->accesses.size();
      if (!warm_ && accesses_ >= warmup_accesses_) warm_ = true;
    }
    return more;
  }
  uint64_t footprint_pages() const override {
    return inner_->footprint_pages();
  }
  const char* name() const override { return inner_->name(); }
  bool time_invariant() const override { return inner_->time_invariant(); }

  /** Closes the last op at the run's final virtual time. */
  void Finish(TimeNs end_ns) {
    if (pending_) Close(end_ns);
  }

  const std::vector<ClockedOp>& ops() const { return ops_; }

 protected:
  /** Tenant of the op the inner workload just produced. */
  virtual uint32_t Tenant() const { return 0; }

 private:
  struct Pending {
    TimeNs start_ns;
    TimeNs think_ns;
    uint32_t tenant;
    bool measured;
  };

  void Close(TimeNs now) {
    ops_.push_back({current_.start_ns,
                    now - current_.start_ns - current_.think_ns,
                    current_.tenant, current_.measured});
    pending_ = false;
  }

  Workload* inner_;
  uint64_t warmup_accesses_;
  bool warm_;
  bool pending_ = false;
  Pending current_{};
  uint64_t accesses_ = 0;
  std::vector<ClockedOp> ops_;
};

/** `ClockedWorkload` that also forwards tenant attribution. */
class ClockedTenantWorkload : public ClockedWorkload, public TenantTagSource {
 public:
  ClockedTenantWorkload(MuxWorkload* inner, uint64_t warmup_accesses)
      : ClockedWorkload(inner, warmup_accesses), tags_(inner) {}

  uint32_t tenant_count() const override { return tags_->tenant_count(); }
  uint32_t last_tenant() const override { return tags_->last_tenant(); }
  const std::string& tenant_name(uint32_t tenant) const override {
    return tags_->tenant_name(tenant);
  }
  PageRange tenant_units(uint32_t tenant, PageMode mode) const override {
    return tags_->tenant_units(tenant, mode);
  }
  bool tenant_active_at(uint32_t tenant, TimeNs now) const override {
    return tags_->tenant_active_at(tenant, now);
  }
  double tenant_weight(uint32_t tenant) const override {
    return tags_->tenant_weight(tenant);
  }
  std::vector<std::pair<TimeNs, TimeNs>> tenant_windows(
      uint32_t tenant) const override {
    return tags_->tenant_windows(tenant);
  }

 protected:
  uint32_t Tenant() const override { return tags_->last_tenant(); }

 private:
  TenantTagSource* tags_;
};

}  // namespace hybridtier::bench

#endif  // HYBRIDTIER_BENCH_COMMON_CLOCKED_WORKLOAD_H_
