#ifndef HYBRIDTIER_OBS_TELEMETRY_H_
#define HYBRIDTIER_OBS_TELEMETRY_H_

/**
 * @file
 * The telemetry bundle a simulation is configured with.
 *
 * `Telemetry` is five optional pointers — metrics, trace, stage
 * profiler, latency attribution, decision audit — carried by value in
 * `SimulationConfig`. The simulation
 * does not own any of them: the driver (ht_run, a bench, a test)
 * creates whichever sinks it wants, points the config at them, runs,
 * and serializes afterwards. All-null (the default) is the disabled
 * state: the engine reaches the metric histograms, attribution and
 * audit through one guarded diagnosis seam, and the other sinks guard
 * on their own pointers, so a run without telemetry executes the exact
 * pre-observability code path.
 */

#include "obs/attribution.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/stage_profiler.h"
#include "obs/trace.h"

namespace hybridtier {

/** Optional telemetry sinks for one simulation. Non-owning. */
struct Telemetry {
  MetricRegistry* metrics = nullptr;
  TraceEmitter* trace = nullptr;
  StageProfiler* stages = nullptr;
  LatencyAttribution* attribution = nullptr;
  DecisionAudit* audit = nullptr;

  /** True when any sink is attached. */
  bool enabled() const {
    return metrics != nullptr || trace != nullptr || stages != nullptr ||
           attribution != nullptr || audit != nullptr;
  }
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_OBS_TELEMETRY_H_
