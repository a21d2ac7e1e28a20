/**
 * @file
 * Figure 9 — CacheLib CDN and social-graph: median op latency and
 * throughput for all six tiering systems at 1:16 / 1:8 / 1:4.
 *
 * The (workload x policy x ratio) matrix runs as one parallel sweep;
 * every cell pins the shared bench seed so all systems see the same
 * access stream per (workload, ratio) point.
 *
 * Shape targets: HybridTier best or tied in nearly all cells; its 1:16
 * configuration competitive with other systems' 1:8.
 */

#include <iostream>
#include <map>
#include <vector>

#include "common/bench_util.h"
#include "common/table.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kAccessBudget = 5000000;
constexpr uint64_t kWarmup = 1500000;

SimulationResult RunPoint(const std::string& workload_id,
                          const std::string& policy_name,
                          double fast_fraction) {
  RunSpec spec;
  spec.workload_id = workload_id;
  spec.workload_scale = DefaultWorkloadScale(workload_id);
  spec.policy_name = policy_name;
  spec.fast_fraction = fast_fraction;
  spec.max_accesses = kAccessBudget;
  spec.warmup_accesses = kWarmup;
  return RunCell(spec);
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig09", "CacheLib CDN + social-graph across 6 systems");

  const std::vector<std::string> workloads = {"cdn", "social"};
  SweepGrid grid;
  grid.AddAxis("workload", workloads);
  grid.AddAxis("policy", StandardPolicyNames());
  grid.AddAxis("ratio", PaperRatioLabels());

  SweepRunner runner = MakeSweepRunner(options, "fig09");
  const std::vector<SimulationResult> results =
      runner.Run(grid, [](const SweepCell& cell) {
        return RunPoint(cell.Get("workload"), cell.Get("policy"),
                        RatioFraction(cell.Get("ratio")));
      });

  for (size_t w = 0; w < workloads.size(); ++w) {
    const std::string& workload = workloads[w];
    TablePrinter table({"system", "1:16 p50(ns)", "1:16 Mop/s",
                        "1:8 p50(ns)", "1:8 Mop/s", "1:4 p50(ns)",
                        "1:4 Mop/s"});
    table.SetTitle(std::string("Figure 9: CacheLib ") + workload);
    std::map<std::string, std::vector<double>> p50s;
    for (size_t p = 0; p < StandardPolicyNames().size(); ++p) {
      const std::string& policy = StandardPolicyNames()[p];
      std::vector<std::string> row = {policy};
      for (size_t r = 0; r < PaperRatios().size(); ++r) {
        const SimulationResult& result = results[grid.FlatIndex({w, p, r})];
        row.push_back(FormatDouble(result.median_latency_ns, 0));
        row.push_back(FormatDouble(result.throughput_mops, 3));
        p50s[policy].push_back(result.median_latency_ns);
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
    table.WriteCsv(CsvPath(std::string("fig09_cachelib_") + workload));

    // Shape summary: HybridTier's rank per ratio by median latency.
    for (size_t r = 0; r < PaperRatios().size(); ++r) {
      size_t rank = 1;
      for (const std::string& policy : StandardPolicyNames()) {
        if (policy != "HybridTier" &&
            p50s[policy][r] < p50s["HybridTier"][r]) {
          ++rank;
        }
      }
      std::cout << workload << " @ " << PaperRatios()[r].label
                << ": HybridTier p50 rank " << rank << " of 6\n";
    }
  }
  std::cout << "paper shape: HybridTier best in all but two cells; its "
               "1:16 outperforms others' 1:8 on CDN\n";
  return 0;
}
