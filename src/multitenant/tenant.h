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
 * that attributes results. A `ResidencySchedule` turns the tenants'
 * residency windows into the one chronological edge list all three
 * walk.
 */

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/units.h"
#include "mem/page.h"
#include "workloads/tenant_tag.h"

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
};

/**
 * The residency-window edge schedule of a tenant set: every arrival and
 * departure instant, sorted by (at, tenant, arrival) and consumed by a
 * forward-only cursor, so churn costs O(edges crossed), never O(fleet).
 * The arrival of a window that opens at t=0 is omitted: its tenant is
 * present from the start. Two edges of one tenant never share an
 * instant (windows are disjoint and depart after they arrive), so the
 * order is total. The mux rotation, the fair-share policy and the
 * simulation's per-interval accounting each walk their own copy and
 * keep their own per-tenant state; the schedule only says which
 * tenant's windows to advance next.
 */
class ResidencySchedule {
 public:
  /** One arrival or departure instant of one tenant. */
  struct Edge {
    TimeNs at = 0;
    uint32_t tenant = 0;
    bool arrival = false;
  };

  /** An empty schedule: nothing is ever due. */
  ResidencySchedule() = default;

  /** The schedule of `directory`'s region windows. */
  explicit ResidencySchedule(const TenantDirectory& directory);

  /** The schedule of `tenants`' windows (`tenant_windows`). */
  explicit ResidencySchedule(const TenantTagSource& tenants);

  /** True if an unconsumed edge lies at or before `now`. One
   *  comparison: the mux runs it on every op. */
  bool Due(TimeNs now) const { return now >= next_at_; }

  /**
   * Consumes every edge at or before `now`, in schedule order, calling
   * `on_edge(const Edge&)` for each. Returns the number consumed. A
   * consumer that walks a tenant's window list past several edges at
   * once sees that tenant's later edges again here; they must no-op.
   */
  template <typename OnEdge>
  size_t PopDue(TimeNs now, OnEdge&& on_edge) {
    const size_t first = cursor_;
    while (Due(now) && cursor_ < edges_.size()) {
      on_edge(edges_[cursor_]);
      ++cursor_;
      next_at_ = cursor_ < edges_.size() ? edges_[cursor_].at : kNever;
    }
    return cursor_ - first;
  }

  /** Edges not yet consumed, in schedule order. */
  std::span<const Edge> pending() const {
    return std::span<const Edge>(edges_).subspan(cursor_);
  }

 private:
  static constexpr TimeNs kNever = std::numeric_limits<TimeNs>::max();

  /** Appends the edges of one window of `tenant`. */
  void AddWindow(uint32_t tenant, TimeNs arrival_ns, TimeNs departure_ns);

  /** Sorts the edges and points the cursor at the first. */
  void Sort();

  std::vector<Edge> edges_;
  size_t cursor_ = 0;         //!< First edge not yet consumed.
  TimeNs next_at_ = kNever;   //!< edges_[cursor_].at; kNever past the end.
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_MULTITENANT_TENANT_H_
