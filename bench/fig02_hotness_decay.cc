/**
 * @file
 * Figure 2 — data hotness distribution changes rapidly.
 *
 * For PageRank (graph analytics) and XGBoost (ML training), measure the
 * fraction of initially hot pages that remain hot as time advances. The
 * two decay series are independent sweep cells, so they run in parallel
 * under --jobs. The paper reports that in both workloads most pages are
 * no longer hot within ~5 minutes; our virtual timeline is compressed,
 * so the X axis is windows of the access stream (each window ~ a
 * "minutes analogue").
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <set>
#include <vector>

#include "common/bench_util.h"
#include "common/table.h"
#include "mem/page.h"

namespace hybridtier::bench {
namespace {

/** Pages with at least this many accesses in a window count as hot. */
constexpr uint64_t kHotThreshold = 16;
constexpr int kWindows = 8;
constexpr uint64_t kAccessesPerWindow = 2000000;

std::vector<double> DecaySeries(const std::string& workload_id) {
  auto workload = MakeWorkload(workload_id, DefaultWorkloadScale(workload_id),
                               /*seed=*/42);
  OpTrace op;
  std::set<PageId> initial_hot;
  std::vector<double> still_hot_fraction;

  for (int window = 0; window < kWindows; ++window) {
    std::map<PageId, uint64_t> counts;
    uint64_t accesses = 0;
    while (accesses < kAccessesPerWindow) {
      workload->NextOp(0, &op);
      for (const MemoryAccess& access : op.accesses) {
        ++counts[PageOfAddr(access.addr)];
        ++accesses;
      }
    }
    std::set<PageId> hot;
    for (const auto& [page, count] : counts) {
      if (count >= kHotThreshold) hot.insert(page);
    }
    if (window == 0) {
      initial_hot = hot;
      still_hot_fraction.push_back(1.0);
      continue;
    }
    size_t surviving = 0;
    for (const PageId page : initial_hot) surviving += hot.count(page);
    still_hot_fraction.push_back(
        initial_hot.empty()
            ? 0.0
            : static_cast<double>(surviving) /
                  static_cast<double>(initial_hot.size()));
  }
  return still_hot_fraction;
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig02", "hotness decay of initially hot pages (PR, XGBoost)");

  SweepGrid grid;
  grid.AddAxis("workload", {"pr-k", "xgboost"});
  SweepRunner runner = MakeSweepRunner(options, "fig02");
  const std::vector<std::vector<double>> series =
      runner.Run(grid, [](const SweepCell& cell) {
        return DecaySeries(cell.Get("workload"));
      });
  const std::vector<double>& pr = series[0];
  const std::vector<double>& xgb = series[1];

  TablePrinter table({"window", "pr-kron % still hot", "xgboost % still hot"});
  table.SetTitle(
      "Figure 2: fraction of window-0 hot pages still hot per window");
  for (size_t w = 0; w < pr.size(); ++w) {
    table.AddRow({std::to_string(w), FormatDouble(pr[w] * 100, 1),
                  FormatDouble(xgb[w] * 100, 1)});
  }
  table.Print(std::cout);
  table.WriteCsv(CsvPath("fig02_hotness_decay"));

  const double pr_final = pr.back();
  const double xgb_final = xgb.back();
  std::cout << "shape check: PR hot-set survival decays to "
            << FormatDouble(pr_final * 100, 1) << "% ; XGBoost to "
            << FormatDouble(xgb_final * 100, 1)
            << "% (paper: most pages no longer hot after ~5 min)\n";
  return 0;
}
