#ifndef HYBRIDTIER_FAULT_HEALTH_H_
#define HYBRIDTIER_FAULT_HEALTH_H_

/**
 * @file
 * Per-endpoint health state machine driven by a fault schedule.
 *
 * `HealthTracker` materializes every state edge of every endpoint at
 * construction: down/degrade intervals come straight from the schedule,
 * flap windows are pre-expanded into concrete down slots using the
 * seeded flap coin, and each down interval that ends appends a
 * `recovering` window of configurable length during which the endpoint
 * serves traffic at a mild degrade factor before returning to healthy.
 *
 * State priority when intervals overlap: down > degraded > recovering >
 * healthy. The degrade factor of overlapping degrade intervals is the
 * max. `Advance(now, fn)` replays all edges in virtual-time order and
 * invokes `fn` once per endpoint whose state changed — the tracker is
 * pure bookkeeping (no simulator dependencies) so transitions are
 * unit-testable standalone.
 */

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"
#include "fault/fault_spec.h"

namespace hybridtier {

/** Health of one slow-tier endpoint. */
enum class EndpointHealth : uint8_t {
  kHealthy = 0,
  kDegraded = 1,    //!< Serving with inflated latency / shrunk bandwidth.
  kDown = 2,        //!< Rejecting accesses; residents must evacuate.
  kRecovering = 3,  //!< Back up, still slow; being re-admitted.
};

/** Display name ("healthy", "degraded", "down", "recovering"). */
const char* EndpointHealthName(EndpointHealth state);

class HealthTracker {
 public:
  /**
   * Builds the edge timeline for `endpoint_count` endpoints.
   * @param recovery_ns length of the recovering window appended after
   *        each down interval that has an end time.
   * @param recovery_factor degrade factor applied while recovering.
   */
  HealthTracker(const FaultSchedule& schedule, uint32_t endpoint_count,
                TimeNs recovery_ns, double recovery_factor);

  /**
   * Applies all edges with time <= `now`, invoking
   * `fn(endpoint, old_state, new_state, degrade_factor)` once per
   * endpoint whose state changed (in edge-time order). The factor is
   * the effective latency multiplier for the new state (1.0 when
   * healthy or down).
   */
  void Advance(TimeNs now,
               const std::function<void(uint32_t, EndpointHealth,
                                        EndpointHealth, double)>& fn);

  /** Current state of `endpoint` (after the last Advance). */
  EndpointHealth state(uint32_t endpoint) const {
    return states_[endpoint];
  }

  /** Effective degrade factor of `endpoint` (1.0 unless degraded or
   *  recovering). */
  double factor(uint32_t endpoint) const { return factors_[endpoint]; }

  /** True once every edge has been applied. */
  bool Settled() const { return next_edge_ >= edges_.size(); }

 private:
  // One half-open state interval on one endpoint, pre-expanded.
  struct Interval {
    uint32_t endpoint;
    TimeNs start_ns;
    TimeNs end_ns;  // 0 = open-ended.
    EndpointHealth state;
    double factor;
  };
  struct Edge {
    TimeNs at_ns;
    uint32_t endpoint;
  };

  // Recomputes endpoint state at `now` from its active intervals.
  void Resolve(uint32_t endpoint, TimeNs now, EndpointHealth* state,
               double* factor) const;

  std::vector<Interval> intervals_;
  std::vector<Edge> edges_;  // Sorted by time; one per potential change.
  size_t next_edge_ = 0;
  std::vector<EndpointHealth> states_;
  std::vector<double> factors_;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_FAULT_HEALTH_H_
