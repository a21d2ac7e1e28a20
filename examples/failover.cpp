/**
 * @file
 * Failover demo: lose one of three CXL endpoints mid-run and watch the
 * simulator degrade gracefully.
 *
 * A CDN-style cache runs over a 3-endpoint interleaved slow tier. At
 * t=10ms endpoint 2 goes down permanently: demand accesses that decode
 * to it pay the constant fault stall, and the fault runtime evacuates
 * its resident pages into the fast tier (spilling healthy-homed pages
 * to the surviving endpoints when fast is full). The latency
 * attribution sink shows the outage as an explicit `fault_stall`
 * component — the decomposition still sums exactly to total latency —
 * and the invariant watchdog recounts the books every stats interval.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/failover
 */

#include <iostream>

#include "core/hybridtier_policy.h"
#include "core/simulation.h"
#include "obs/attribution.h"
#include "workloads/cachelib.h"

int main() {
  using namespace hybridtier;

  CacheLibConfig workload_config = CacheLibWorkload::CdnConfig(
      /*num_objects=*/30000, /*seed=*/42);
  CacheLibWorkload workload(workload_config, "failover-cdn");
  HybridTierPolicy policy;

  SimulationConfig config;
  // A full drain needs the dead endpoint's homed footprint (~1/3 of
  // all pages under 3-way interleave) to fit in the fast tier — pages
  // homed on a dead device can live nowhere else (HDM decode pins
  // their slow home). 2:5 leaves room to spare.
  config.fast_tier_fraction = 0.4;
  config.max_accesses = 50000000;
  config.max_time_ns = 40 * kMillisecond;
  config.stats_interval_ns = 1 * kMillisecond;
  // Three interleaved endpoints; unit addresses decode round-robin.
  config.topology = "cxl:(1,2,3),lat=124:180:180,bw=34:17:17";
  // Endpoint 2 dies at 10 ms and never comes back. A fault schedule
  // runs on the bounded queue model.
  config.faults = "faults:ep2@10ms=down";
  // Drain faster than the default pacing so the dead endpoint empties
  // well inside the run (4096 pages per 1 ms maintenance tick).
  config.fault_runtime.evac_batch = 4096;
  config.fault_runtime.spill_batch = 4096;
  config.watchdog = true;

  LatencyAttribution attribution;
  config.telemetry.attribution = &attribution;

  Simulation simulation(config, &workload, &policy);
  SimulationResult result = simulation.Run();

  std::cout << "workload:           " << workload.name() << "\n"
            << "virtual duration:   " << FormatTime(result.duration_ns)
            << "\n"
            << "median op latency:  " << result.median_latency_ns
            << " ns\n"
            << "p99 op latency:     " << result.p99_latency_ns << " ns\n";

  std::cout << "\nendpoint residency after the outage (slow units):\n";
  for (uint32_t e = 0; e < simulation.perf_model().EndpointCount(); ++e) {
    std::cout << "  endpoint " << e << ": "
              << simulation.memory().EndpointResident(e)
              << (e == 2 ? "   <- down at 10ms, drained by failover"
                         : "")
              << "\n";
  }

  std::cout << "\nfault layer: " << result.fault.transitions
            << " transitions, " << result.fault.stalled_accesses
            << " stalled accesses, " << result.fault.evacuated_pages
            << " pages evacuated, " << result.fault.spilled_pages
            << " spilled, " << result.fault.evac_retries
            << " backoff retries\n";

  // The outage shows up as an explicit fault_stall component; the
  // decomposition still sums exactly to the total op latency.
  std::cout << "\nlatency decomposition (" << attribution.ops()
            << " ops):\n"
            << attribution.Report();
  return 0;
}
