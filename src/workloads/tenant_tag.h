#ifndef HYBRIDTIER_WORKLOADS_TENANT_TAG_H_
#define HYBRIDTIER_WORKLOADS_TENANT_TAG_H_

/**
 * @file
 * Tenant attribution interface for composite (multi-tenant) workloads.
 *
 * A workload that multiplexes several tenants into one access stream
 * implements this alongside `Workload`; the simulation harness detects it
 * with a `dynamic_cast` and, when present, attributes every operation to
 * the tenant that generated it (per-tenant ops, latency percentiles,
 * fast-tier occupancy, Jain fairness index). Single-tenant workloads need
 * no changes — the harness simply finds no tag source and skips the
 * per-tenant bookkeeping.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "mem/page.h"

namespace hybridtier {

/** Per-op tenant attribution provided by multiplexing workloads. */
class TenantTagSource {
 public:
  virtual ~TenantTagSource() = default;

  /** Number of tenants multiplexed into the stream. */
  virtual uint32_t tenant_count() const = 0;

  /** Tenant that generated the most recent successful NextOp. */
  virtual uint32_t last_tenant() const = 0;

  /** Display name of tenant `tenant` (e.g. "cdn", "bfs-k#1"). */
  virtual const std::string& tenant_name(uint32_t tenant) const = 0;

  /**
   * Tracking-unit range [begin, end) owned by tenant `tenant` under
   * `mode`. Ranges are pairwise disjoint and exact in both page modes
   * (regions are 2 MiB aligned).
   */
  virtual PageRange tenant_units(uint32_t tenant, PageMode mode) const = 0;

  /**
   * True if tenant `tenant`'s residency window contains virtual time
   * `now`. Workloads without churn keep the default (always active);
   * the harness uses this to scope prefaulting and fairness reporting
   * to tenants actually present.
   */
  virtual bool tenant_active_at(uint32_t tenant, TimeNs now) const {
    (void)tenant;
    (void)now;
    return true;
  }

  /** Fair-share weight of tenant `tenant` (1.0 when unweighted). */
  virtual double tenant_weight(uint32_t tenant) const {
    (void)tenant;
    return 1.0;
  }

  /**
   * Residency windows of tenant `tenant` as (arrival_ns, departure_ns)
   * pairs in ascending order; departure 0 = open-ended, an empty list =
   * present for the whole run. Must agree with `tenant_active_at`:
   * `tenant_active_at(t, now)` iff some window contains `now`. The
   * harness builds its `ResidencySchedule` (multitenant/tenant.h) from
   * the windows so its per-interval accounting walks only the tenants
   * actually present, never the whole fleet. Called once at
   * construction (not hot).
   */
  virtual std::vector<std::pair<TimeNs, TimeNs>> tenant_windows(
      uint32_t tenant) const {
    (void)tenant;
    return {};
  }
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_WORKLOADS_TENANT_TAG_H_
