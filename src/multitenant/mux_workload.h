#ifndef HYBRIDTIER_MULTITENANT_MUX_WORKLOAD_H_
#define HYBRIDTIER_MULTITENANT_MUX_WORKLOAD_H_

/**
 * @file
 * Multi-tenant workload multiplexer.
 *
 * `MuxWorkload` composes N tenant workloads into one interleaved access
 * stream, the shared-tier analogue of N applications running on one
 * host. Each tenant is remapped into a disjoint, 2 MiB-aligned region of
 * the shared address space (so tracking units never straddle tenants in
 * either page mode), and every operation is tagged with the tenant that
 * generated it via `TenantTagSource`. Interleaving is deterministic
 * round-robin in op space — the multi-programmed schedule an OS would
 * produce with one runnable thread per tenant — so same specs + seed
 * replay bit-identically.
 *
 * Tenants carry residency windows (`TenantSpec::windows`): a tenant
 * enters the rotation when the virtual clock reaches a window's arrival
 * and is removed (mid-op-stream, like a process being killed) at its
 * departure. A tenant with several windows *recurs* — after a departure
 * it waits for its next window and re-enters the rotation there,
 * resuming its op stream where it was suspended (the diurnal
 * co-location pattern; `TieredMemory::Release` makes its region
 * reusable in between). Transitions are surfaced as `TenantChurnEvent`s
 * so harnesses can mark them on timelines, and `tenant_active_at`
 * exposes the windows to the simulation (prefault and fairness
 * scoping). Window edges come off the directory's `ResidencySchedule`,
 * the same schedule the fair-share policy and the simulation walk.
 * When no tenant is runnable but one arrives later, NextOp emits a
 * pure idle gap (`OpTrace::think_time_ns`) that advances the clock to
 * the next arrival on the schedule.
 */

#include <memory>
#include <string>
#include <vector>

#include "multitenant/tenant.h"
#include "workloads/tenant_tag.h"
#include "workloads/workload.h"

namespace hybridtier {

/** One tenant arrival or departure observed by the multiplexer. */
struct TenantChurnEvent {
  TimeNs time_ns = 0;    //!< Scheduled window edge (arrival/departure).
  uint32_t tenant = 0;   //!< Tenant index in admission order.
  bool arrival = false;  //!< True for arrivals, false for departures.
};

/** N tenant workloads multiplexed into one tagged access stream. */
class MuxWorkload : public Workload, public TenantTagSource {
 public:
  /** One admitted tenant: its generator, weight, and residency windows. */
  struct Tenant {
    std::unique_ptr<Workload> workload;
    double weight = 1.0;
    /** Residency windows (see TenantSpec::windows); empty = whole run. */
    std::vector<ResidencyWindow> windows;
  };

  /** Lays out `tenants` in admission order; needs at least one. */
  explicit MuxWorkload(std::vector<Tenant> tenants);

  // Workload:
  bool NextOp(TimeNs now, OpTrace* op) override;
  uint64_t footprint_pages() const override { return total_span_pages_; }
  const char* name() const override { return name_.c_str(); }

  // TenantTagSource:
  uint32_t tenant_count() const override { return directory_.size(); }
  uint32_t last_tenant() const override { return last_tenant_; }
  const std::string& tenant_name(uint32_t tenant) const override {
    return directory_.regions[tenant].name;
  }
  PageRange tenant_units(uint32_t tenant, PageMode mode) const override {
    return directory_.regions[tenant].UnitRange(mode);
  }
  bool tenant_active_at(uint32_t tenant, TimeNs now) const override {
    return directory_.regions[tenant].ActiveAt(now);
  }
  double tenant_weight(uint32_t tenant) const override {
    return directory_.regions[tenant].weight;
  }
  std::vector<std::pair<TimeNs, TimeNs>> tenant_windows(
      uint32_t tenant) const override {
    std::vector<std::pair<TimeNs, TimeNs>> windows;
    windows.reserve(directory_.regions[tenant].windows.size());
    for (const ResidencyWindow& window : directory_.regions[tenant].windows) {
      windows.emplace_back(window.arrival_ns, window.departure_ns);
    }
    return windows;
  }

  /** The shared-tier layout (regions in admission order). */
  const TenantDirectory& directory() const { return directory_; }

  /** Arrivals/departures observed so far, in detection order. */
  const std::vector<TenantChurnEvent>& churn_events() const {
    return churn_events_;
  }

 private:
  /** Rotation membership of one tenant over its lifetime. */
  enum class Status : uint8_t {
    kPending,   //!< Next window not yet reached.
    kActive,    //!< In the round-robin rotation.
    kFinished,  //!< Workload ran to completion (pages stay resident).
    kDeparted,  //!< Every window closed; removed for good.
  };

  /** Applies the schedule's edges the clock has crossed by `now`. */
  void UpdateActivation(TimeNs now);

  /** Walks `tenant`'s window list up to `now` (arrivals + departures). */
  void AdvanceTenant(uint32_t tenant, TimeNs now);

  /** Drops `tenant` from the rotation, fixing up the rotation cursor. */
  void RemoveFromRotation(uint32_t tenant);

  std::vector<Tenant> tenants_;
  TenantDirectory directory_;
  std::vector<Status> status_;
  std::vector<size_t> window_;      //!< Current/next window per tenant.
  std::vector<uint32_t> rotation_;  //!< Runnable tenants, rotation order.
  std::vector<TenantChurnEvent> churn_events_;
  /** Every tenant's window edges: the hot path compares the clock
   *  against one cursor instead of scanning all tenants' windows. */
  ResidencySchedule schedule_;
  size_t rr_next_ = 0;              //!< Next rotation slot to serve.
  uint32_t last_tenant_ = 0;
  uint64_t total_span_pages_ = 0;
  std::string name_;
};

/**
 * Default footprint scale for workload `id` when admitted as a tenant.
 * Smaller than the single-run bench defaults since N tenants share one
 * simulated machine.
 */
double DefaultTenantScale(const std::string& id);

/**
 * Builds a MuxWorkload from parsed specs. Per-tenant seeds derive from
 * `seed` + the tenant index (unless the spec pins one), so co-located
 * instances of the same workload id still generate distinct streams.
 */
std::unique_ptr<MuxWorkload> MakeMuxWorkload(
    const std::vector<TenantSpec>& specs, uint64_t seed);

}  // namespace hybridtier

#endif  // HYBRIDTIER_MULTITENANT_MUX_WORKLOAD_H_
