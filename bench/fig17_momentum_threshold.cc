/**
 * @file
 * Figure 17 — momentum-threshold sensitivity: CacheLib CDN and
 * social-graph performance (p50 + throughput) at thresholds 1..6,
 * normalized to the default threshold 3, at 1:8.
 *
 * The (workload x threshold) matrix runs as one parallel sweep; cells
 * pin the shared bench seed, and the threshold-3 cell doubles as the
 * normalization baseline (runs are deterministic, so a separate
 * baseline run would return identical numbers).
 *
 * Shape target: thresholds below 3 hurt (cold pages promoted on a few
 * touches); 3..6 is flat; social-graph is more sensitive than CDN
 * (larger hot set, scarcer fast tier).
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/table.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kAccessBudget = 4000000;
constexpr uint64_t kWarmup = 1200000;
constexpr uint32_t kDefaultThreshold = 3;

SimulationResult RunThreshold(const std::string& workload_id,
                              uint32_t threshold) {
  RunSpec spec;
  spec.workload_id = workload_id;
  spec.workload_scale = DefaultScaleFor(workload_id);
  spec.policy_name = "HybridTier";
  spec.fast_fraction = 1.0 / 8;
  spec.max_accesses = kAccessBudget;
  spec.warmup_accesses = kWarmup;
  spec.policy_options.momentum_threshold = threshold;
  return RunCell(spec);
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig17", "momentum-threshold sensitivity sweep (1..6, 1:8)");

  const std::vector<std::string> workloads = {"cdn", "social"};
  std::vector<std::string> thresholds;
  for (uint32_t threshold = 1; threshold <= 6; ++threshold) {
    thresholds.push_back(std::to_string(threshold));
  }
  SweepGrid grid;
  grid.AddAxis("workload", workloads);
  grid.AddAxis("threshold", thresholds);

  SweepRunner runner = MakeSweepRunner(options, "fig17");
  const std::vector<SimulationResult> results =
      runner.Run(grid, [](const SweepCell& cell) {
        return RunThreshold(
            cell.Get("workload"),
            static_cast<uint32_t>(std::stoul(cell.Get("threshold"))));
      });

  TablePrinter table({"threshold", "CDN p50 (norm.)", "CDN op/s (norm.)",
                      "social p50 (norm.)", "social op/s (norm.)"});
  table.SetTitle(
      "Figure 17: performance normalized to momentum threshold 3 "
      "(p50 normalized as baseline/measured; >1 is better)");

  // Over every normalized column: the largest deviation from threshold
  // 3 at thresholds 3..6, and the lowest value below threshold 3.
  double flat_deviation = 0.0;
  double below_min = 1.0;
  for (size_t t = 0; t < thresholds.size(); ++t) {
    std::vector<std::string> row = {thresholds[t]};
    const auto note = [&](double normalized) {
      if (t + 1 >= kDefaultThreshold) {
        flat_deviation =
            std::max(flat_deviation, std::abs(normalized - 1.0));
      } else {
        below_min = std::min(below_min, normalized);
      }
      return FormatDouble(normalized, 3);
    };
    for (size_t w = 0; w < workloads.size(); ++w) {
      const SimulationResult& result = results[grid.FlatIndex({w, t})];
      const SimulationResult& base =
          results[grid.FlatIndex({w, kDefaultThreshold - 1})];
      row.push_back(
          note(base.median_latency_ns / result.median_latency_ns));
      row.push_back(note(result.throughput_mops / base.throughput_mops));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  table.WriteCsv(CsvPath("fig17_momentum_threshold"));
  // The verdict reads the table; the paper's claim is a dip below
  // threshold 3 and a flat 3..6. "Flat" allows 2%; "dips" asks for a
  // low below 3 deeper than any deviation at 3..6.
  const bool flat = flat_deviation <= 0.02;
  const bool dips = 1.0 - below_min > flat_deviation;
  std::cout << "verdict: thresholds 3-6 within "
            << FormatDouble(100.0 * flat_deviation, 1)
            << "% of threshold 3; thresholds 1-2 "
            << (dips ? "dip" : "do not dip") << " (lowest "
            << FormatDouble(below_min, 3)
            << ") (paper: dip below 3, flat from 3 to 6) — "
            << (flat && dips ? "matches" : "differs from")
            << " the paper's shape\n";
  return 0;
}
