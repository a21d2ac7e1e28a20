/**
 * @file
 * Figure 13 — cache misses due to HybridTier tiering activities as a
 * share of the system total, over time, for regular and huge pages,
 * CacheLib at 1:4 (the HybridTier counterpart of Fig 5). The
 * (page mode x system) matrix runs as one parallel sweep; the Memtis
 * cells feed the side-by-side reduction lines.
 *
 * Shape target: HybridTier's tiering share is a small fraction of
 * Memtis's (paper: ~5% regular / ~4% huge of total misses, vs 9-18%).
 */

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

#include "common/bench_util.h"
#include "common/table.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kAccessBudget = 12000000;

SimulationResult RunMode(const std::string& policy, PageMode mode) {
  RunSpec spec;
  spec.workload_id = "cdn";
  spec.workload_scale = DefaultWorkloadScale("cdn");
  spec.policy_name = policy;
  spec.fast_fraction = 1.0 / 4;
  spec.max_accesses = kAccessBudget;
  spec.warmup_accesses = 0;
  spec.mode = mode;
  spec.base_config.stats_interval_ns = 20 * kMillisecond;
  return RunCell(spec);
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig13", "HybridTier tiering cache-miss share over time (1:4)");

  const std::vector<std::string> modes = {"4KiB pages", "huge pages"};
  SweepGrid grid;
  grid.AddAxis("pages", modes);
  grid.AddAxis("system", {"HybridTier", "Memtis"});
  SweepRunner runner = MakeSweepRunner(options, "fig13");
  const std::vector<SimulationResult> results =
      runner.Run(grid, [](const SweepCell& cell) {
        return RunMode(cell.Get("system"),
                       cell.Get("pages") == "4KiB pages"
                           ? PageMode::kRegular
                           : PageMode::kHuge);
      });

  const std::vector<const char*> csvs = {
      "fig13_hybridtier_cache_overhead_4k",
      "fig13_hybridtier_cache_overhead_huge"};
  for (size_t m = 0; m < modes.size(); ++m) {
    const std::string& label = modes[m];
    const SimulationResult& result = results[grid.FlatIndex({m, 0})];
    TablePrinter table({"t (ms)", "tiering L1 miss share",
                        "tiering LLC miss share"});
    table.SetTitle(std::string("Figure 13 (") + label +
                   "): HybridTier tiering share of total cache misses");
    const TimeSeries& l1 = result.tiering_l1_share_timeline;
    const TimeSeries& llc = result.tiering_llc_share_timeline;
    for (size_t i = 0; i < l1.size(); ++i) {
      table.AddRow({std::to_string(l1.times_ns[i] / kMillisecond),
                    FormatDouble(l1.values[i] * 100, 1) + "%",
                    FormatDouble(llc.values[i] * 100, 1) + "%"});
    }
    table.Print(std::cout);
    table.WriteCsv(CsvPath(csvs[m]));
    std::cout << label << " overall: tiering L1 share "
              << FormatDouble(result.TieringL1MissShare() * 100, 1)
              << "%, LLC share "
              << FormatDouble(result.TieringLlcMissShare() * 100, 1)
              << "% (paper: ~5% / ~4% of total)\n";

    // Side-by-side reduction vs Memtis (paper: 1.7-3.5x fewer misses),
    // with both raw counts. A ratio with zero misses on either side is
    // undefined and prints n/a; three significant digits keep a ratio
    // far below 1 from rounding to "0.00x".
    const SimulationResult& memtis = results[grid.FlatIndex({m, 1})];
    const auto reduction = [](uint64_t memtis_misses,
                              uint64_t hybridtier_misses) {
      const std::string counts = " (Memtis " + std::to_string(memtis_misses) +
                                 " vs HybridTier " +
                                 std::to_string(hybridtier_misses) +
                                 " misses)";
      if (memtis_misses == 0 || hybridtier_misses == 0) return "n/a" + counts;
      char ratio[32];
      std::snprintf(ratio, sizeof(ratio), "%.3gx",
                    static_cast<double>(memtis_misses) /
                        static_cast<double>(hybridtier_misses));
      return ratio + counts;
    };
    std::cout << label << ": tiering-miss reduction vs Memtis: L1 "
              << reduction(memtis.l1_tiering_misses,
                           result.l1_tiering_misses)
              << ", LLC "
              << reduction(memtis.llc_tiering_misses,
                           result.llc_tiering_misses)
              << " (paper: 1.7x/1.8x regular, 3.2x/3.5x huge)\n";
  }
  return 0;
}
