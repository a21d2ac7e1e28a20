/**
 * @file
 * Failover figure: the quota-pressured multi-tenant mix runs over three
 * interleaved slow-tier endpoints and loses one permanently at
 * mid-run. Two stacks face the same outage:
 *
 *  - `naive`: endpoint-blind FairShare(HybridTier) with evacuation
 *    disabled — pages strand on the dead device and every demand touch
 *    pays the constant fault stall for the rest of the run.
 *  - `graceful`: endpoint-aware placement plus the fault runtime's
 *    paced evacuation (spill-to-slow when the fast tier is full, then
 *    exponential backoff) — the dead endpoint drains and the tail
 *    recovers.
 *
 * Shape targets: graceful posts a lower post-fault p99 than naive, the
 * down endpoint ends the run with zero resident units, and the p99
 * timeline returns to within 10% of its pre-fault level within a
 * bounded recovery time (naive never recovers — the stalls are
 * permanent). The recovery time and the post-fault weighted Jain index
 * land in `BENCH_failover.json`.
 *
 * Outputs:
 *  - `fig_failover.csv`: virtual-time metrics only — byte-identical
 *    across `--jobs` values (the CI jobs-invariance gate byte-diffs it).
 *  - `BENCH_failover.json`: the same cells plus the gate verdicts.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/percentile.h"
#include "common/table.h"
#include "common/units.h"
#include "core/simulation.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/mux_workload.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kSeed = 42;
// A full drain needs the dead endpoint's homed footprint (~1/3 of all
// pages under 3-way interleave) to fit in the fast tier — HDM decode
// pins each page's slow home, so pages homed on a dead device can live
// nowhere else. 2:5 leaves headroom; at the paper's 1:8 the evacuation
// would park in backoff with stragglers paying the fault stall.
constexpr double kRatio = 0.4;
constexpr uint64_t kWarmup = 200000;

// Same Zipf mix as fig_topology (one double-weighted tenant) so the
// weighted Jain index through the outage is comparable across figures.
const char kTenants[] = "zipf,zipf:2,zipf";

// Three symmetric-latency expanders; endpoint 0 is the near device.
const char kTopology[] = "cxl:(1,2,3),lat=124:180:180,bw=34:17:17";

// Endpoint 2 dies at 20 ms and never comes back; the run continues to
// 60 ms so the recovery window is twice the pre-fault window.
constexpr TimeNs kFaultNs = 20 * kMillisecond;
constexpr TimeNs kRunNs = 60 * kMillisecond;
constexpr TimeNs kIntervalNs = 500 * kMicrosecond;
const char kFaultSpec[] = "faults:ep2@20ms=down";

// Pre-fault p99 baseline window: skip the first half of the pre-fault
// run so warmup fill transients don't skew the recovery target.
constexpr TimeNs kBaselineFromNs = 10 * kMillisecond;

// Recovery = p99 back at or below 1.1x the pre-fault level, sustained.
constexpr double kRecoveryTolerance = 0.10;
constexpr size_t kSustainPoints = 5;

struct FailoverCell {
  std::string mode;  // "naive" | "graceful".
  SimulationResult result;
  uint64_t ep2_resident = 0;   //!< Dead-endpoint residents at run end.
  double pre_p99 = 0.0;        //!< Mean windowed p99 before the fault.
  double post_p99 = 0.0;       //!< Mean windowed p99 after the fault.
  double post_jain = 0.0;      //!< Mean weighted Jain after the fault.
  /** Virtual ns from the fault until p99 stays at or below
   *  (1 + tolerance) * pre_p99; UINT64_MAX = never recovers. */
  uint64_t recovery_ns = UINT64_MAX;

  bool Recovered() const { return recovery_ns != UINT64_MAX; }
  double RecoveryMs() const {
    return Recovered() ? static_cast<double>(recovery_ns) / kMillisecond
                       : -1.0;
  }
};

/** Mean of `series` values over [from_ns, to_ns), skipping idle zeros. */
double WindowMean(const TimeSeries& series, TimeNs from_ns, TimeNs to_ns) {
  double sum = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    if (series.times_ns[i] < from_ns || series.times_ns[i] >= to_ns) {
      continue;
    }
    if (series.values[i] <= 0.0) continue;
    sum += series.values[i];
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/**
 * First time at or after `not_before_ns` from which `sustain` consecutive
 * points all sit at or below `ceiling`. One-sided on purpose: after the
 * drain the p99 can settle *below* its pre-fault level (a third of the
 * footprint now lives in fast), which the symmetric
 * `FirstSustainedEntryNs` band would score as "never recovered".
 */
uint64_t FirstSustainedBelowNs(const TimeSeries& series, double ceiling,
                               size_t sustain, TimeNs not_before_ns) {
  size_t run_start = SIZE_MAX;
  size_t run_length = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    const bool eligible =
        series.times_ns[i] >= not_before_ns && series.values[i] > 0.0;
    if (eligible && series.values[i] <= ceiling) {
      if (run_length == 0) run_start = i;
      ++run_length;
      if (run_length >= sustain) return series.times_ns[run_start];
    } else {
      run_length = 0;
    }
  }
  return UINT64_MAX;
}

FailoverCell RunFailover(bool graceful) {
  FailoverCell cell;
  cell.mode = graceful ? "graceful" : "naive";

  auto mux = MakeMuxWorkload(ParseTenantList(kTenants), kSeed);
  FairShareConfig fair_config;
  fair_config.endpoint_aware = graceful;
  auto policy = std::make_unique<FairSharePolicy>(
      MakePolicy("HybridTier"), mux->directory(), fair_config);

  SimulationConfig config;
  config.fast_tier_fraction = kRatio;
  config.max_accesses = UINT64_MAX;  // Time-bounded run.
  config.max_time_ns = kRunNs;
  config.warmup_accesses = kWarmup;
  config.stats_interval_ns = kIntervalNs;
  config.seed = kSeed;
  config.topology = kTopology;
  config.faults = kFaultSpec;
  config.fault_runtime.evacuate = graceful;
  // Drain fast enough that recovery lands well inside the run.
  config.fault_runtime.evac_batch = 4096;
  config.fault_runtime.spill_batch = 4096;
  config.watchdog = true;  // Books are recounted through the outage.

  Simulation simulation(config, mux.get(), policy.get());
  cell.result = simulation.Run();
  cell.ep2_resident = simulation.memory().EndpointResident(2);

  // The timeline point stamped exactly at the fault time covers the
  // *preceding* (pre-fault) window; post-fault windows start after it.
  const TimeSeries& p99 = cell.result.p99_timeline;
  cell.pre_p99 = WindowMean(p99, kBaselineFromNs, kFaultNs + 1);
  cell.post_p99 = WindowMean(p99, kFaultNs + 1, kRunNs + 1);
  cell.post_jain = WindowMean(cell.result.weighted_fairness_timeline,
                              kFaultNs + 1, kRunNs + 1);
  const uint64_t entered = FirstSustainedBelowNs(
      p99, cell.pre_p99 * (1.0 + kRecoveryTolerance), kSustainPoints,
      kFaultNs + 1);
  if (entered != UINT64_MAX) cell.recovery_ns = entered - kFaultNs;
  return cell;
}

void WriteJson(const std::string& path,
               const std::vector<FailoverCell>& cells,
               bool graceful_beats_naive, bool drained, bool recovers) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"fig_failover\",\n"
      << "  \"tenants\": \"" << kTenants << "\",\n"
      << "  \"topology\": \"" << kTopology << "\",\n"
      << "  \"faults\": \"" << kFaultSpec << "\",\n"
      << "  \"fast_tier_fraction\": " << kRatio << ",\n"
      << "  \"run_ms\": " << kRunNs / kMillisecond << ",\n"
      << "  \"fault_ms\": " << kFaultNs / kMillisecond << ",\n"
      << "  \"recovery_tolerance\": " << kRecoveryTolerance << ",\n"
      << "  \"gates\": {\"graceful_beats_naive_p99\": "
      << (graceful_beats_naive ? "true" : "false")
      << ", \"down_endpoint_drained\": " << (drained ? "true" : "false")
      << ", \"graceful_recovers\": " << (recovers ? "true" : "false")
      << "},\n  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const FailoverCell& cell = cells[i];
    char line[640];
    std::snprintf(
        line, sizeof(line),
        "    {\"mode\": \"%s\", \"pre_fault_p99_ns\": %.0f, "
        "\"post_fault_p99_ns\": %.0f, \"recovery_ms\": %.2f, "
        "\"post_fault_weighted_jain\": %.4f, \"ep2_resident_units\": "
        "%llu, \"evacuated_pages\": %llu, \"spilled_pages\": %llu, "
        "\"evac_retries\": %llu, \"stalled_accesses\": %llu, "
        "\"run_p99_ns\": %.0f, \"mops\": %.3f}",
        cell.mode.c_str(), cell.pre_p99, cell.post_p99,
        cell.RecoveryMs(), cell.post_jain,
        static_cast<unsigned long long>(cell.ep2_resident),
        static_cast<unsigned long long>(cell.result.fault.evacuated_pages),
        static_cast<unsigned long long>(cell.result.fault.spilled_pages),
        static_cast<unsigned long long>(cell.result.fault.evac_retries),
        static_cast<unsigned long long>(
            cell.result.fault.stalled_accesses),
        cell.result.p99_latency_ns, cell.result.throughput_mops);
    out << line << (i + 1 == cells.size() ? "" : ",") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig_failover",
         "endpoint loss mid-run: graceful evacuation vs stranded pages");
  if (!options.topology.empty()) {
    std::cout << "note: --topology ignored — the fault schedule is tied "
                 "to the 3-endpoint layout\n";
  }

  SweepGrid grid;
  grid.AddAxis("mode", {"naive", "graceful"});
  SweepRunner runner = MakeSweepRunner(options, "fig_failover");
  const std::vector<FailoverCell> cells =
      runner.Run(grid, [&](const SweepCell& cell) {
        return RunFailover(cell.Get("mode") == "graceful");
      });

  TablePrinter table({"mode", "pre p99 ns", "post p99 ns", "recovery ms",
                      "ep2 resident", "evacuated", "spilled", "retries",
                      "stalls", "post Jain(w)"});
  table.SetTitle("endpoint 2 down at 20ms (FairShare(HybridTier), 2:5)");
  for (const FailoverCell& cell : cells) {
    table.AddRow({cell.mode, FormatDouble(cell.pre_p99, 0),
                  FormatDouble(cell.post_p99, 0),
                  cell.Recovered() ? FormatDouble(cell.RecoveryMs(), 2)
                                   : "never",
                  std::to_string(cell.ep2_resident),
                  std::to_string(cell.result.fault.evacuated_pages),
                  std::to_string(cell.result.fault.spilled_pages),
                  std::to_string(cell.result.fault.evac_retries),
                  std::to_string(cell.result.fault.stalled_accesses),
                  FormatDouble(cell.post_jain, 4)});
  }
  table.Print(std::cout);

  // CSV mirror (virtual-time only; byte-diffed across --jobs by CI).
  TablePrinter csv({"mode", "pre_fault_p99_ns", "post_fault_p99_ns",
                    "recovery_ms", "post_fault_weighted_jain",
                    "ep2_resident", "evacuated_pages", "spilled_pages",
                    "evac_retries", "stalled_accesses"});
  csv.SetTitle("fig_failover");
  for (const FailoverCell& cell : cells) {
    csv.AddRow({cell.mode, FormatDouble(cell.pre_p99, 0),
                FormatDouble(cell.post_p99, 0),
                FormatDouble(cell.RecoveryMs(), 2),
                FormatDouble(cell.post_jain, 4),
                std::to_string(cell.ep2_resident),
                std::to_string(cell.result.fault.evacuated_pages),
                std::to_string(cell.result.fault.spilled_pages),
                std::to_string(cell.result.fault.evac_retries),
                std::to_string(cell.result.fault.stalled_accesses)});
  }
  csv.WriteCsv(CsvPath("fig_failover"));

  const auto find = [&](const std::string& mode) -> const FailoverCell& {
    for (const FailoverCell& cell : cells) {
      if (cell.mode == mode) return cell;
    }
    HT_FATAL("missing cell ", mode);
  };
  const FailoverCell& naive = find("naive");
  const FailoverCell& graceful = find("graceful");
  const bool graceful_beats_naive = graceful.post_p99 < naive.post_p99;
  const bool drained = graceful.ep2_resident == 0;
  const bool recovers = graceful.Recovered();

  WriteJson("BENCH_failover.json", cells, graceful_beats_naive, drained,
            recovers);
  std::cout << "wrote BENCH_failover.json\n"
            << "graceful beats naive post-fault p99: "
            << (graceful_beats_naive ? "yes" : "NO") << "\n"
            << "down endpoint fully drained:         "
            << (drained ? "yes" : "NO") << "\n"
            << "graceful p99 recovers (<=1.1x pre):  "
            << (recovers ? FormatDouble(graceful.RecoveryMs(), 2) + " ms"
                         : "NO") << "\n";

  const bool ok = graceful_beats_naive && drained && recovers;
  if (!ok) std::cout << "FAILOVER GATE FAILURE: see table above\n";
  return ok ? 0 : 1;
}
