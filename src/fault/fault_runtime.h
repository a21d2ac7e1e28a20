#ifndef HYBRIDTIER_FAULT_FAULT_RUNTIME_H_
#define HYBRIDTIER_FAULT_FAULT_RUNTIME_H_

/**
 * @file
 * The fault-injection runtime: applies a fault schedule to the live
 * simulation and degrades service gracefully instead of falling over.
 *
 * `FaultRuntime::Advance(now)` runs at every tick boundary:
 *
 *  1. **Transitions.** Health edges from the `HealthTracker` are applied
 *     to the timing model (`PerfModel::SetEndpointDown/Degrade`), the
 *     one holder of endpoint health — the migration engine reads it to
 *     reject demotions onto dead devices — and then to the policy
 *     (`TieringPolicy::OnEndpointHealth` — the fair-share water-filler
 *     re-plans over effective capacity).
 *
 *  2. **Evacuation.** While an endpoint is down, its slow-resident
 *     pages are promoted off it in bounded batches (`evac_batch` per
 *     tick, paced like PR 4's departure reclaim so a dying 100k-page
 *     device doesn't stall the world for one giant batch). The stripe
 *     walk exploits the HDM decode — endpoint E's pages live in stripes
 *     `[(k*N+E)*gran, +gran)` — so each batch scans only the dying
 *     device's address ranges. When the fast tier is full, fast pages
 *     homed on *healthy* endpoints are demoted first (`fault_spill`
 *     reason) to make room; if even spill cannot free a unit (every
 *     other device also down, or no spill-eligible pages), the batch is
 *     retried with exponential backoff (`retry_backoff_ns` doubling to
 *     `max_backoff_ns`) instead of spinning every tick.
 *
 * All movement goes through the normal `MigrationEngine` with the new
 * `MigrationReason::{kFaultEvacuation,kFaultSpill}` codes, so costs,
 * audit records, and trace spans come out of the existing machinery.
 * Everything is a pure function of the schedule and the simulated
 * stream: fault runs are bit-identical across reruns and `--jobs`.
 *
 * Capacity bound: HDM decode pins each page's slow-tier home, so a page
 * homed on a dead device can live nowhere but the fast tier. A full
 * drain therefore requires the dead endpoint's homed footprint
 * (~footprint/N units) to fit in fast; when it does not, the runtime
 * evacuates until the fast tier is entirely dead-homed pages, then
 * parks in backoff — the surviving stragglers pay the fault stall on
 * access, which is the graceful-degradation floor, not a bug.
 */

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "fault/fault_spec.h"
#include "fault/health.h"
#include "mem/migration.h"
#include "mem/perf_model.h"
#include "mem/tiered_memory.h"
#include "obs/trace.h"
#include "policies/policy.h"

namespace hybridtier {

/** Degradation-handling knobs (defaults suit the standard cells). */
struct FaultRuntimeConfig {
  /** Pull residents off down endpoints (off = naive baseline: pages
   *  strand on the dead device and every touch pays the fault stall). */
  bool evacuate = true;
  uint32_t evac_batch = 512;    //!< Max pages evacuated per tick.
  uint32_t spill_batch = 512;   //!< Max pages spilled per tick.
  TimeNs retry_backoff_ns = 1 * kMillisecond;   //!< First retry delay.
  TimeNs max_backoff_ns = 64 * kMillisecond;    //!< Backoff cap.
  TimeNs recovery_ns = 10 * kMillisecond;       //!< Recovering window.
  double recovery_degrade = 2.0;  //!< Service factor while recovering.
};

/** Cumulative fault-handling counters (reported in SimulationResult). */
struct FaultStats {
  uint64_t transitions = 0;        //!< Health-state edges applied.
  uint64_t endpoints_downed = 0;   //!< Transitions into kDown.
  uint64_t endpoints_recovered = 0;  //!< Transitions out of kDown.
  uint64_t stalled_accesses = 0;   //!< Demand accesses hitting a down EP.
  uint64_t evacuated_pages = 0;    //!< Pages promoted off down EPs.
  uint64_t spilled_pages = 0;      //!< Fast pages demoted to make room.
  uint64_t evac_retries = 0;       //!< Batches deferred by backoff.
};

class FaultRuntime {
 public:
  /** All pointers borrowed; `policy`/`trace` may be null. */
  FaultRuntime(const FaultSchedule& schedule,
               const FaultRuntimeConfig& config, TieredMemory* memory,
               PerfModel* perf, MigrationEngine* migration,
               TieringPolicy* policy, TraceEmitter* trace);

  /**
   * Applies every health edge with time <= `now`, then runs one paced
   * evacuation round. Called at tick boundaries (and once at t=0 so
   * schedules starting at 0 take effect before the first op).
   */
  void Advance(TimeNs now);

  /** Current health of `endpoint`. */
  EndpointHealth state(uint32_t endpoint) const {
    return health_.state(endpoint);
  }

  /** True while any endpoint is down. */
  bool AnyDown() const;

  /** True once every scheduled edge has been applied and no down
   *  endpoint still has residents to evacuate. */
  bool Quiesced() const;

  /**
   * Counters so far. `stalled_accesses` is pulled from the timing
   * model at call time (the hot path counts stalls where they happen).
   */
  FaultStats stats() const;

 private:
  // Paced evacuation state for one down endpoint.
  struct Evacuation {
    bool active = false;
    uint64_t stripe = 0;      //!< Resume stripe index (k in (k*N+e)*g).
    TimeNs backoff_ns = 0;    //!< Current retry delay.
    TimeNs retry_at_ns = 0;   //!< Next attempt time while backing off.
  };

  void ApplyTransition(uint32_t endpoint, EndpointHealth old_state,
                       EndpointHealth new_state, double factor, TimeNs now);
  void RunEvacuation(uint32_t endpoint, Evacuation& evac, TimeNs now);
  /** Demotes up to `needed` healthy-homed fast pages; returns demoted. */
  uint64_t Spill(uint64_t needed, TimeNs now);

  HealthTracker health_;
  FaultRuntimeConfig config_;
  TieredMemory* memory_;
  PerfModel* perf_;
  MigrationEngine* migration_;
  TieringPolicy* policy_;
  TraceEmitter* trace_;
  TraceEmitter::TrackId trace_track_ = 0;
  std::vector<Evacuation> evacuations_;  //!< One slot per endpoint.
  uint64_t spill_cursor_ = 0;            //!< Fast-victim scan resume.
  FaultStats stats_;
  std::vector<PageId> batch_;            //!< Scratch (reused per round).
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_FAULT_FAULT_RUNTIME_H_
