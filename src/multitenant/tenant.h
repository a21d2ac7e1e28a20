#ifndef HYBRIDTIER_MULTITENANT_TENANT_H_
#define HYBRIDTIER_MULTITENANT_TENANT_H_

/**
 * @file
 * Tenant descriptions for the multi-tenant tiering subsystem.
 *
 * Real CXL deployments co-locate many applications on one fast tier; an
 * unmanaged policy lets one hot tenant starve the rest. The types here
 * describe who shares the tier: a `TenantSpec` names a workload and its
 * fair-share weight, and a `TenantDirectory` records where each admitted
 * tenant landed in the shared simulated address space. The directory is
 * the contract between the `MuxWorkload` that lays tenants out, the
 * `FairSharePolicy` that enforces quotas, and the simulation harness
 * that attributes results.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "mem/page.h"

namespace hybridtier {

/**
 * One residency interval [arrival, departure) in virtual time. A zero
 * departure means the tenant stays until the run ends.
 */
struct ResidencyWindow {
  TimeNs arrival_ns = 0;
  TimeNs departure_ns = 0;  //!< 0 = open-ended (never departs).

  /** True if `now` falls inside this window. */
  bool Contains(TimeNs now) const {
    return now >= arrival_ns && (departure_ns == 0 || now < departure_ns);
  }
};

/** One tenant to admit: which workload it runs and its share weight. */
struct TenantSpec {
  std::string workload_id;  //!< Workload-factory id (e.g. "cdn", "zipf").
  double weight = 1.0;      //!< Fair-share weight (fast-tier quota).
  double scale = -1.0;      //!< Footprint scale; < 0 = per-family default.
  uint64_t seed = 0;        //!< 0 = derive from the run seed + index.
  /**
   * Residency windows, strictly increasing and non-overlapping; every
   * window but the last is closed. Empty = resident for the whole run.
   * Several windows model diurnal co-location: the tenant departs (its
   * memory is released) and re-arrives when the next window opens.
   */
  std::vector<ResidencyWindow> windows;
};

/**
 * Parses a tenant list of the form "cdn,bfs-k:2,silo:0.5@1e8-5e8". Each
 * entry is a workload id with an optional ":weight" suffix (weight > 0,
 * default 1) and an optional "@arrival[-departure]" residency window in
 * virtual time (spec times, common/spec_reader.h: bare numbers are ns,
 * ns/us/ms/s suffixes scale, "@0-300ms"): the tenant arrives
 * mid-run at `arrival` and, when a departure is given, exits at
 * `departure`, releasing its memory. Several '+'-joined windows —
 * "zipf@1e8-2e8+5e8-6e8" — give the tenant recurring residency (it
 * re-arrives at each later window); every window but the last must then
 * be closed, and windows must be disjoint and in increasing order.
 * Malformed entries and unknown workload ids are user errors reported
 * through the spec reader (bad token and byte offset, exit 1).
 */
std::vector<TenantSpec> ParseTenantList(const std::string& list);

/** Where one admitted tenant lives in the shared address space. */
struct TenantRegion {
  std::string name;           //!< Display name (unique within the run).
  double weight = 1.0;        //!< Fair-share weight from the spec.
  uint64_t base_page = 0;     //!< First 4 KiB page of the region.
  uint64_t footprint_pages = 0;  //!< Pages the tenant actually uses.
  uint64_t span_pages = 0;    //!< Reserved span (2 MiB-aligned).
  /** Residency windows (see TenantSpec::windows); empty = whole run. */
  std::vector<ResidencyWindow> windows;

  /** Tracking units [begin, end) under `mode`; exact in both modes. */
  PageRange UnitRange(PageMode mode) const {
    const uint64_t per_unit =
        mode == PageMode::kHuge ? kPagesPerHugePage : 1;
    return PageRange{base_page / per_unit,
                     (base_page + span_pages) / per_unit};
  }

  /** True if any residency window contains virtual time `now`. */
  bool ActiveAt(TimeNs now) const {
    if (windows.empty()) return true;
    for (const ResidencyWindow& window : windows) {
      if (window.Contains(now)) return true;
    }
    return false;
  }
};

/** The shared-tier layout: one region per admitted tenant. */
struct TenantDirectory {
  std::vector<TenantRegion> regions;

  /** Number of tenants. */
  uint32_t size() const { return static_cast<uint32_t>(regions.size()); }

  /** Sum of all tenant weights. */
  double TotalWeight() const;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_MULTITENANT_TENANT_H_
