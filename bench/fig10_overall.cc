/**
 * @file
 * Figure 10 — overall performance comparison: GAP (BFS/CC/PR on
 * Kronecker + uniform-random), SPEC (bwaves, roms), Silo, and XGBoost,
 * for all six systems at 1:16 / 1:8 / 1:4, normalized to TPP (higher is
 * better), plus the cross-workload geomean.
 *
 * The full (ratio x workload x policy) matrix is submitted as one
 * sweep: cells run in parallel under --jobs, and the tables/CSVs are
 * byte-identical for every thread count. Every cell pins the shared
 * bench seed because the figure is a *paired* comparison — each policy
 * must see the same access stream as the TPP baseline it is normalized
 * against.
 *
 * Shape targets: HybridTier wins the geomean; its largest edge is on
 * BFS (single-source hotness shifts); ARC/TwoQ trail; gaps narrow as
 * the fast tier grows (except Memtis).
 */

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/table.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kAccessBudget = 3500000;
constexpr uint64_t kWarmup = 1000000;

const std::vector<std::string>& Fig10Workloads() {
  static const std::vector<std::string> ids = {
      "bfs-k", "bfs-u", "cc-k",   "cc-u", "pr-k",
      "pr-u",  "bwaves", "roms",  "silo", "xgboost"};
  return ids;
}

uint64_t RunDuration(const std::string& workload_id,
                     const std::string& policy_name,
                     double fast_fraction) {
  RunSpec spec;
  spec.workload_id = workload_id;
  spec.workload_scale = DefaultWorkloadScale(workload_id);
  spec.policy_name = policy_name;
  spec.fast_fraction = fast_fraction;
  spec.max_accesses = kAccessBudget;
  spec.warmup_accesses = kWarmup;
  return RunCell(spec).SteadyDurationNs();
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig10", "relative performance vs TPP, 10 workloads x 3 ratios");

  SweepGrid grid;
  grid.AddAxis("ratio", PaperRatioLabels());
  grid.AddAxis("workload", Fig10Workloads());
  grid.AddAxis("policy", StandardPolicyNames());

  SweepRunner runner = MakeSweepRunner(options, "fig10");
  const std::vector<uint64_t> durations =
      runner.Run(grid, [](const SweepCell& cell) {
        return RunDuration(cell.Get("workload"), cell.Get("policy"),
                           RatioFraction(cell.Get("ratio")));
      });

  const auto duration_of = [&](size_t r, size_t w, size_t p) {
    return durations[grid.FlatIndex({r, w, p})];
  };
  size_t tpp_policy = 0;
  for (size_t p = 0; p < StandardPolicyNames().size(); ++p) {
    if (StandardPolicyNames()[p] == "TPP") tpp_policy = p;
  }

  // rel_perf[ratio][policy] aggregated over workloads for the geomean.
  std::map<std::string, std::map<std::string, std::vector<double>>> rel;

  for (size_t r = 0; r < PaperRatios().size(); ++r) {
    const RatioPoint& ratio = PaperRatios()[r];
    TablePrinter table({"workload", "TPP", "AutoNUMA", "Memtis", "ARC",
                        "TwoQ", "HybridTier"});
    table.SetTitle(std::string("Figure 10 @ ") + ratio.label +
                   " — runtime relative to TPP (higher is better)");
    for (size_t w = 0; w < Fig10Workloads().size(); ++w) {
      const std::string& workload = Fig10Workloads()[w];
      const uint64_t tpp_ns = duration_of(r, w, tpp_policy);
      std::vector<std::string> row = {workload};
      for (size_t p = 0; p < StandardPolicyNames().size(); ++p) {
        const std::string& policy = StandardPolicyNames()[p];
        const uint64_t ns = duration_of(r, w, p);
        const double relative =
            ns == 0 ? 0.0
                    : static_cast<double>(tpp_ns) / static_cast<double>(ns);
        rel[ratio.label][policy].push_back(relative);
        row.push_back(FormatDouble(relative, 2));
      }
      table.AddRow(row);
    }
    // Geomean row.
    std::vector<std::string> geo_row = {"geomean"};
    for (const std::string& policy : StandardPolicyNames()) {
      geo_row.push_back(FormatDouble(GeoMean(rel[ratio.label][policy]), 2));
    }
    table.AddRow(geo_row);
    table.Print(std::cout);
    table.WriteCsv(CsvPath(std::string("fig10_overall_") +
                           (ratio.label + 2)));  // skip "1:".
  }

  // Cross-ratio geomean summary (the paper's headline numbers).
  std::cout << "cross-ratio geomean relative to TPP:\n";
  std::map<std::string, double> geomean;
  std::string best;
  for (const std::string& policy : StandardPolicyNames()) {
    std::vector<double> all;
    for (const RatioPoint& ratio : PaperRatios()) {
      const auto& values = rel[ratio.label][policy];
      all.insert(all.end(), values.begin(), values.end());
    }
    geomean[policy] = GeoMean(all);
    if (best.empty() || geomean[policy] > geomean[best]) best = policy;
    std::cout << "  " << policy << ": " << FormatDouble(geomean[policy], 3)
              << "\n";
  }
  // The verdict reads the geomeans above; the paper's claim is
  // HybridTier geomean-best, 29% ahead of Memtis on GAP.
  const double margin = geomean["HybridTier"] / geomean["Memtis"] - 1.0;
  std::cout << "verdict: geomean-best is " << best << "; HybridTier vs "
            << "Memtis " << (margin >= 0.0 ? "+" : "")
            << FormatDouble(100.0 * margin, 1) << "% (paper: HybridTier "
            << "best, +29% vs Memtis on GAP) — "
            << (best == "HybridTier" && margin > 0.0 ? "matches"
                                                     : "differs from")
            << " the paper's shape\n";
  return 0;
}
