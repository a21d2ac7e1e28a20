/**
 * @file
 * Figure 11 — HybridTier performance normalized against an all-fast-tier
 * baseline (the upper bound of any tiering system), for all 12
 * workloads at 1:16 / 1:8 / 1:4.
 *
 * The (workload x config) matrix — config being the all-fast oracle or
 * one of the three ratios — runs as one parallel sweep; cells pin the
 * shared bench seed because every ratio is normalized against the
 * oracle run of the same access stream.
 *
 * Shape target: HybridTier lands within ~14% / 9% / 6% of all-fast on
 * average at 1:16 / 1:8 / 1:4 — closer as the fast tier grows.
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
  return RunCell(spec).SteadyDurationNs();
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig11", "HybridTier normalized to the all-fast-tier oracle");

  // The oracle is ratio-independent (everything is fast): one extra
  // config value next to the three ratios.
  std::vector<std::string> configs = {"all-fast"};
  for (const std::string& label : PaperRatioLabels()) {
    configs.push_back(label);
  }
  SweepGrid grid;
  grid.AddAxis("workload", AllWorkloadIds());
  grid.AddAxis("config", configs);

  SweepRunner runner = MakeSweepRunner(options, "fig11");
  const std::vector<uint64_t> durations =
      runner.Run(grid, [](const SweepCell& cell) {
        const std::string& config = cell.Get("config");
        if (config == "all-fast") {
          return RunDuration(cell.Get("workload"), "AllFast", 1.0);
        }
        return RunDuration(cell.Get("workload"), "HybridTier",
                           RatioFraction(config));
      });

  TablePrinter table({"workload", "1:16", "1:8", "1:4"});
  table.SetTitle(
      "Figure 11: HybridTier performance relative to all-fast-tier "
      "(1.0 = matches the upper bound)");
  std::vector<std::vector<double>> per_ratio(PaperRatios().size());

  for (size_t w = 0; w < AllWorkloadIds().size(); ++w) {
    const uint64_t oracle_ns = durations[grid.FlatIndex({w, 0})];
    std::vector<std::string> row = {AllWorkloadIds()[w]};
    for (size_t r = 0; r < PaperRatios().size(); ++r) {
      const uint64_t ns = durations[grid.FlatIndex({w, r + 1})];
      const double relative =
          ns == 0 ? 0.0
                  : static_cast<double>(oracle_ns) /
                        static_cast<double>(ns);
      per_ratio[r].push_back(relative);
      row.push_back(FormatDouble(relative, 3));
    }
    table.AddRow(row);
  }
  std::vector<std::string> geo = {"geomean"};
  for (auto& values : per_ratio) {
    geo.push_back(FormatDouble(GeoMean(values), 3));
  }
  table.AddRow(geo);
  table.Print(std::cout);
  table.WriteCsv(CsvPath("fig11_upper_bound"));
  std::cout << "paper: HybridTier is on average 14% / 9% / 6% slower than "
               "all-fast at 1:16 / 1:8 / 1:4\n";
  return 0;
}
