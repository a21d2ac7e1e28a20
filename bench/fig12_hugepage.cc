/**
 * @file
 * Figure 12 — huge-page (2 MiB) performance: HybridTier speedup over
 * Memtis for all 12 workloads at 1:16 / 1:8 / 1:4 with tracking and
 * migration at huge-page granularity.
 *
 * The (workload x ratio x system) matrix runs as one parallel sweep;
 * cells pin the shared bench seed because each speedup compares the two
 * systems on the same access stream.
 *
 * Shape target: HybridTier ~on par at 1:16 and ahead on average at
 * 1:8 / 1:4 (paper: +9% and +11%).
 */

#include <iostream>
#include <vector>

#include "common/bench_util.h"
#include "common/table.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kAccessBudget = 3500000;
constexpr uint64_t kWarmup = 1000000;

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
  spec.mode = PageMode::kHuge;
  return RunCell(spec).SteadyDurationNs();
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig12", "huge-page HybridTier speedup over Memtis");

  SweepGrid grid;
  grid.AddAxis("workload", AllWorkloadIds());
  grid.AddAxis("ratio", PaperRatioLabels());
  grid.AddAxis("system", {"Memtis", "HybridTier"});

  SweepRunner runner = MakeSweepRunner(options, "fig12");
  const std::vector<uint64_t> durations =
      runner.Run(grid, [](const SweepCell& cell) {
        return RunDuration(cell.Get("workload"), cell.Get("system"),
                           RatioFraction(cell.Get("ratio")));
      });

  TablePrinter table({"workload", "1:16", "1:8", "1:4"});
  table.SetTitle(
      "Figure 12: HybridTier huge-page performance relative to Memtis "
      "(>1 = HybridTier faster)");
  std::vector<std::vector<double>> per_ratio(PaperRatios().size());

  for (size_t w = 0; w < AllWorkloadIds().size(); ++w) {
    std::vector<std::string> row = {AllWorkloadIds()[w]};
    for (size_t r = 0; r < PaperRatios().size(); ++r) {
      const uint64_t memtis_ns = durations[grid.FlatIndex({w, r, 0})];
      const uint64_t hybrid_ns = durations[grid.FlatIndex({w, r, 1})];
      const double speedup =
          hybrid_ns == 0 ? 0.0
                         : static_cast<double>(memtis_ns) /
                               static_cast<double>(hybrid_ns);
      per_ratio[r].push_back(speedup);
      row.push_back(FormatDouble(speedup, 3));
    }
    table.AddRow(row);
  }
  std::vector<std::string> geo = {"geomean"};
  for (auto& values : per_ratio) {
    geo.push_back(FormatDouble(GeoMean(values), 3));
  }
  table.AddRow(geo);
  table.Print(std::cout);
  table.WriteCsv(CsvPath("fig12_hugepage"));
  std::cout << "paper: geomean ~1.00 / 1.09 / 1.11 at 1:16 / 1:8 / 1:4\n";
  return 0;
}
