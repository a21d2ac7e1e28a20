/**
 * @file
 * Figure 5 — cache misses due to Memtis tiering activities as a share
 * of the system total, over time, for regular (4 KiB) and huge (2 MiB)
 * pages, CacheLib at 1:4. The two page modes are independent sweep
 * cells.
 *
 * Shape target: tiering contributes a substantial share of both L1 and
 * LLC misses (paper: ~9%/18% for regular pages, 13%/18% for huge).
 */

#include <iostream>

#include "common/bench_util.h"
#include "common/table.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kAccessBudget = 12000000;

SimulationResult RunMode(PageMode mode) {
  RunSpec spec;
  spec.workload_id = "cdn";
  spec.workload_scale = DefaultWorkloadScale("cdn");
  spec.policy_name = "Memtis";
  spec.fast_fraction = 1.0 / 4;
  spec.max_accesses = kAccessBudget;
  spec.warmup_accesses = 0;
  spec.mode = mode;
  spec.base_config.stats_interval_ns = 20 * kMillisecond;
  return RunCell(spec);
}

void PrintTimeline(const char* label, const SimulationResult& result,
                   const std::string& csv_name) {
  TablePrinter table({"t (ms)", "tiering L1 miss share",
                      "tiering LLC miss share"});
  table.SetTitle(std::string("Figure 5 (") + label +
                 "): Memtis tiering share of total cache misses");
  const TimeSeries& l1 = result.tiering_l1_share_timeline;
  const TimeSeries& llc = result.tiering_llc_share_timeline;
  for (size_t i = 0; i < l1.size(); ++i) {
    table.AddRow({std::to_string(l1.times_ns[i] / kMillisecond),
                  FormatDouble(l1.values[i] * 100, 1) + "%",
                  FormatDouble(llc.values[i] * 100, 1) + "%"});
  }
  table.Print(std::cout);
  table.WriteCsv(CsvPath(csv_name));
  std::cout << label << " overall: tiering L1 share "
            << FormatDouble(result.TieringL1MissShare() * 100, 1)
            << "%, LLC share "
            << FormatDouble(result.TieringLlcMissShare() * 100, 1)
            << "% (paper: ~9%/18% regular, ~13%/18% huge)\n";
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig05", "Memtis tiering cache-miss share over time (1:4)");

  SweepGrid grid;
  grid.AddAxis("pages", {"4KiB", "huge"});
  SweepRunner runner = MakeSweepRunner(options, "fig05");
  const std::vector<SimulationResult> results =
      runner.Run(grid, [](const SweepCell& cell) {
        return RunMode(cell.Get("pages") == "4KiB" ? PageMode::kRegular
                                                   : PageMode::kHuge);
      });

  PrintTimeline("4KiB pages", results[0], "fig05_memtis_cache_overhead_4k");
  PrintTimeline("huge pages", results[1],
                "fig05_memtis_cache_overhead_huge");
  return 0;
}
