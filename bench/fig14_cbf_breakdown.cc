/**
 * @file
 * Figure 14 — HybridTier cache-miss reduction breakdown.
 *
 * Compares tiering-attributed L1 and LLC misses of Memtis, HybridTier
 * with a *standard* CBF, and HybridTier with the *blocked* CBF, on
 * CacheLib at 1:4, normalized to Memtis. The three systems are
 * independent sweep cells over the same seeded stream.
 *
 * Shape target: standard CBF already beats Memtis (compactness, fewer
 * dereferences); blocked CBF provides the larger additional reduction
 * (one line per update).
 */

#include <iostream>
#include <vector>

#include "common/bench_util.h"
#include "common/table.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kAccessBudget = 12000000;

SimulationResult RunPolicy(const std::string& policy_name) {
  RunSpec spec;
  spec.workload_id = "cdn";
  spec.workload_scale = DefaultWorkloadScale("cdn");
  spec.policy_name = policy_name;
  spec.fast_fraction = 1.0 / 4;
  spec.max_accesses = kAccessBudget;
  spec.warmup_accesses = 0;
  return RunCell(spec);
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig14", "tiering cache misses: Memtis vs CBF vs blocked CBF");

  SweepGrid grid;
  grid.AddAxis("system", {"Memtis", "HybridTier-CBF", "HybridTier"});
  SweepRunner runner = MakeSweepRunner(options, "fig14");
  const std::vector<SimulationResult> results =
      runner.Run(grid, [](const SweepCell& cell) {
        return RunPolicy(cell.Get("system"));
      });
  const SimulationResult& memtis = results[0];
  const SimulationResult& standard = results[1];
  const SimulationResult& blocked = results[2];

  auto rel = [](uint64_t value, uint64_t base) {
    return base == 0 ? 0.0
                     : static_cast<double>(value) /
                           static_cast<double>(base);
  };

  TablePrinter table({"system", "L1 misses (rel.)", "LLC misses (rel.)"});
  table.SetTitle(
      "Figure 14: tiering-attributed cache misses, normalized to Memtis");
  table.AddRow({"Memtis", "1.00", "1.00"});
  table.AddRow({"HybridTier-CBF",
                FormatDouble(rel(standard.l1_tiering_misses,
                                 memtis.l1_tiering_misses),
                             2),
                FormatDouble(rel(standard.llc_tiering_misses,
                                 memtis.llc_tiering_misses),
                             2)});
  table.AddRow({"HybridTier-bCBF",
                FormatDouble(rel(blocked.l1_tiering_misses,
                                 memtis.l1_tiering_misses),
                             2),
                FormatDouble(rel(blocked.llc_tiering_misses,
                                 memtis.llc_tiering_misses),
                             2)});
  table.Print(std::cout);
  table.WriteCsv(CsvPath("fig14_cbf_breakdown"));
  std::cout << "paper shape: standard CBF cuts misses 12-36% vs Memtis; "
               "blocked CBF another 31-72%\n";
  return 0;
}
