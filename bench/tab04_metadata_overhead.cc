/**
 * @file
 * Table 4 — tiering metadata size relative to total memory capacity.
 *
 * Memtis allocates 16 B per 4 KiB page of *total* memory (0.39%,
 * constant across ratios). HybridTier's CBFs scale with the *fast tier*
 * (plus a 128x smaller momentum filter), so its relative overhead
 * shrinks as the fast tier does. Reported two ways:
 *  - analytic, at the paper's machine scale (512 GB slow tier), where
 *    the exact 2.0-7.8x reductions should reproduce; and
 *  - measured, from policies bound in the simulator at bench scale
 *    (the (ratio x policy) cells run as one parallel sweep).
 */

#include <iostream>

#include "common/bench_util.h"
#include "common/table.h"
#include "probstruct/sizing.h"

namespace hybridtier::bench {
namespace {

/** Analytic HybridTier metadata bytes for a given fast-tier page count. */
double HybridTierAnalyticBytes(uint64_t fast_pages) {
  const CbfSizing freq = FrequencyCbfSizing(fast_pages, 4);
  const CbfSizing momentum = MomentumCbfSizing(fast_pages, 4);
  return (static_cast<double>(freq.num_counters) +
          static_cast<double>(momentum.num_counters)) *
         4.0 / 8.0;
}

/** Measured metadata bytes of one (ratio, policy) simulator cell. */
uint64_t MeasuredMetadataBytes(double fraction,
                               const std::string& policy_name) {
  RunSpec spec;
  spec.workload_id = "cdn";
  spec.workload_scale = DefaultWorkloadScale("cdn");
  spec.fast_fraction = fraction;
  spec.max_accesses = 400000;
  spec.warmup_accesses = 0;
  spec.policy_name = policy_name;
  return RunCell(spec).metadata_bytes;
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("tab04", "metadata size relative to total memory capacity");

  SweepGrid grid;
  grid.AddAxis("ratio", PaperRatioLabels());
  grid.AddAxis("policy", {"HybridTier", "Memtis"});
  SweepRunner runner = MakeSweepRunner(options, "tab04");
  const std::vector<uint64_t> measured =
      runner.Run(grid, [](const SweepCell& cell) {
        return MeasuredMetadataBytes(RatioFraction(cell.Get("ratio")),
                                     cell.Get("policy"));
      });

  // Paper configuration: slow tier fixed at 512 GB; fast = slow / N.
  const double slow_bytes = 512.0 * static_cast<double>(kGiB);

  TablePrinter table({"ratio", "Memtis", "HybridTier (analytic)",
                      "reduction", "HybridTier (measured, sim scale)"});
  table.SetTitle("Table 4: metadata size / total memory capacity");

  for (size_t r = 0; r < PaperRatios().size(); ++r) {
    const RatioPoint& ratio = PaperRatios()[r];
    const double fast_bytes = slow_bytes * ratio.fraction;
    const double total_bytes = slow_bytes + fast_bytes;
    const uint64_t fast_pages =
        static_cast<uint64_t>(fast_bytes / kPageSize);

    // Memtis: 16 B per 4 KiB page of total memory.
    const double memtis_bytes = total_bytes / kPageSize * 16.0;
    const double memtis_pct = memtis_bytes / total_bytes * 100.0;

    const double hybrid_bytes = HybridTierAnalyticBytes(fast_pages);
    const double hybrid_pct = hybrid_bytes / total_bytes * 100.0;

    // Measured at simulator scale, as a sanity cross-check.
    const uint64_t hybrid_measured = measured[grid.FlatIndex({r, 0})];
    const uint64_t memtis_measured = measured[grid.FlatIndex({r, 1})];
    const double measured_reduction =
        static_cast<double>(memtis_measured) /
        static_cast<double>(hybrid_measured);

    table.AddRow({ratio.label, FormatDouble(memtis_pct, 3) + "%",
                  FormatDouble(hybrid_pct, 3) + "%",
                  FormatSpeedup(memtis_pct / hybrid_pct),
                  FormatSpeedup(measured_reduction)});
  }
  table.Print(std::cout);
  table.WriteCsv(CsvPath("tab04_metadata_overhead"));
  std::cout << "paper: Memtis 0.39% flat; HybridTier 0.050% / 0.097% / "
               "0.192%; reductions 7.8x / 4.0x / 2.0x\n";
  return 0;
}
