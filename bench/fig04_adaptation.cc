/**
 * @file
 * Figure 4 — adapting to a hotness-distribution change (CacheLib).
 *
 * A CacheLib workload runs to steady state; at the churn point 2/3 of
 * the hot set turns cold at once (the paper reproduces Meta's reported
 * churn this way, at t=1800 s). The bench prints the median-latency
 * timeline for AutoNUMA, Memtis, and HybridTier and the time each takes
 * to return within 5% of its steady-state latency.
 *
 * Shape targets: HybridTier re-converges several times faster than
 * Memtis (paper: 250 s vs ~1400 s); AutoNUMA stays high and noisy.
 */

#include <iostream>
#include <map>
#include <vector>

#include "common/bench_util.h"
#include "common/percentile.h"
#include "common/table.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kAccessBudget = 45000000;
constexpr TimeNs kChurnTime = 1500 * kMillisecond;
constexpr TimeNs kStatsInterval = 10 * kMillisecond;
/** Memtis cooling period for this experiment: large enough to capture
 *  the distribution accurately (Fig 3b) — which is exactly what makes
 *  its EMA scores lag after the churn. */
constexpr uint64_t kMemtisCooling = 150000;

struct AdaptResult {
  SimulationResult sim;
  double steady_latency = 0.0;
  TimeNs adapt_ns = UINT64_MAX;
};

AdaptResult RunPolicy(const std::string& policy_name) {
  RunSpec spec;
  spec.workload_id = "cdn";
  spec.workload_scale = DefaultScaleFor("cdn");
  spec.policy_name = policy_name;
  spec.fast_fraction = 1.0 / 8;
  spec.max_accesses = kAccessBudget;
  spec.warmup_accesses = 0;
  spec.churn = {{.time_ns = kChurnTime, .hot_fraction = 2.0 / 3}};
  spec.base_config.stats_interval_ns = kStatsInterval;
  spec.policy_options.memtis_cooling_samples = kMemtisCooling;

  AdaptResult result;
  result.sim = RunCell(spec);

  // Steady state = median of the timeline points well past the churn
  // (the last quarter of the run).
  const TimeSeries& series = result.sim.latency_timeline;
  result.steady_latency = TailMedian(series);
  const uint64_t settle = FirstSustainedEntryNs(
      series, result.steady_latency, 0.05, /*sustain_points=*/8,
      kChurnTime);
  if (settle != UINT64_MAX && settle > kChurnTime) {
    result.adapt_ns = settle - kChurnTime;
  }
  return result;
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig04", "median-latency timeline across a distribution change");

  const std::vector<std::string> policies = {"AutoNUMA", "Memtis",
                                             "HybridTier"};
  SweepGrid grid;
  grid.AddAxis("policy", policies);
  SweepRunner runner = MakeSweepRunner(options, "fig04");
  const std::vector<AdaptResult> cells = runner.Run(
      grid,
      [](const SweepCell& cell) { return RunPolicy(cell.Get("policy")); });
  std::map<std::string, AdaptResult> results;
  for (size_t p = 0; p < policies.size(); ++p) {
    results[policies[p]] = cells[p];
  }

  // Timeline table (common time axis from HybridTier's run).
  TablePrinter table(
      {"t (ms)", "AutoNUMA p50 (ns)", "Memtis p50 (ns)",
       "HybridTier p50 (ns)"});
  table.SetTitle(
      "Figure 4: per-interval median latency; distribution change at t=" +
      std::to_string(kChurnTime / kMillisecond) + "ms");
  const TimeSeries& axis = results["HybridTier"].sim.latency_timeline;
  for (size_t i = 0; i < axis.size(); ++i) {
    std::vector<std::string> row = {
        std::to_string(axis.times_ns[i] / kMillisecond)};
    for (const std::string& name : policies) {
      const TimeSeries& series = results[name].sim.latency_timeline;
      row.push_back(i < series.size()
                        ? FormatDouble(series.values[i], 0)
                        : "-");
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  table.WriteCsv(CsvPath("fig04_adaptation"));

  for (const std::string& name : policies) {
    const AdaptResult& result = results[name];
    std::cout << name << ": steady-state p50 "
              << FormatDouble(result.steady_latency, 0)
              << " ns, re-adaptation time ";
    if (result.adapt_ns == UINT64_MAX) {
      std::cout << "> run length";
    } else {
      std::cout << FormatTime(result.adapt_ns);
    }
    std::cout << "\n";
  }
  std::cout << "paper shape: HybridTier adapts several times faster than "
               "Memtis; AutoNUMA stays high even at steady state\n";
  return 0;
}
