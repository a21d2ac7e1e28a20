/**
 * @file
 * Table 5 — accuracy of migration decisions made by the counting bloom
 * filter, as a function of CBF size.
 *
 * Ground truth is an exact per-page counter table fed the identical
 * CacheLib sample stream. A migration decision "agrees" when the CBF
 * and the exact table classify a page on the same side of the hotness
 * threshold. Each filter size is an independent sweep cell over the
 * same seeded stream. The paper reports >= 99.4% agreement until the
 * filter is severely undersized (its 8 MB point drops to 96.9%); our
 * sizes are the x1000-scaled equivalents of the paper's
 * {256,128,64,32,8} MB.
 */

#include <iostream>
#include <vector>

#include "common/bench_util.h"
#include "common/table.h"
#include "mem/page.h"
#include "probstruct/blocked_cbf.h"
#include "probstruct/exact_table.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kSampleBudget = 1000000;
constexpr uint64_t kCoolingPeriod = 100000;  // As in the live tracker.
constexpr uint32_t kThreshold = 4;

double MeasureAgreement(size_t cbf_bytes) {
  auto workload = MakeWorkload("cdn", DefaultWorkloadScale("cdn"), 42);
  const CbfSizing sizing{.num_counters = cbf_bytes * 2,  // 4-bit counters.
                         .num_hashes = 4,
                         .counter_bits = 4};
  BlockedCountingBloomFilter cbf(sizing, 7);
  ExactCounterTable exact(workload->footprint_pages(), /*max=*/15);

  OpTrace op;
  uint64_t samples = 0;
  uint64_t since_cooling = 0;
  uint64_t countdown = 8;
  uint64_t agree = 0;
  uint64_t decisions = 0;
  while (samples < kSampleBudget) {
    workload->NextOp(0, &op);
    for (const MemoryAccess& access : op.accesses) {
      if (--countdown > 0) continue;
      countdown = 8;
      const PageId page = PageOfAddr(access.addr);
      const uint32_t cbf_count = cbf.Increment(page);
      const uint32_t exact_count = exact.Increment(page);
      ++samples;
      // A migration decision is taken per sample: does the CBF put the
      // page on the same side of the hotness threshold as the exact
      // counter would?
      ++decisions;
      agree += (cbf_count >= kThreshold) == (exact_count >= kThreshold);
      // Both sides cool exactly as the frequency tracker does, which
      // keeps filter occupancy bounded in the live system too.
      if (++since_cooling >= kCoolingPeriod) {
        since_cooling = 0;
        cbf.CoolByHalving();
        exact.CoolByHalving();
      }
    }
  }
  return static_cast<double>(agree) / static_cast<double>(decisions);
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("tab05", "CBF migration-decision accuracy vs filter size");

  // Scaled analogues of the paper's 256/128/64/32/8 MB sweep.
  const std::vector<size_t> sizes_kib = {256, 128, 64, 32, 8};
  std::vector<std::string> labels;
  for (const size_t size : sizes_kib) {
    labels.push_back(std::to_string(size));
  }
  SweepGrid grid;
  grid.AddAxis("size_kib", labels);
  SweepRunner runner = MakeSweepRunner(options, "tab05");
  const std::vector<double> agreements =
      runner.Run(grid, [&sizes_kib](const SweepCell& cell) {
        return MeasureAgreement(sizes_kib[cell.ValueIndex("size_kib")] *
                                1024);
      });

  TablePrinter table({"CBF size (KiB)", "decision agreement"});
  table.SetTitle("Table 5: CBF vs exact-table migration agreement");
  double first = 0.0, last = 0.0;
  for (size_t i = 0; i < sizes_kib.size(); ++i) {
    const double agreement = agreements[i];
    if (first == 0.0) first = agreement;
    last = agreement;
    table.AddRow({labels[i], FormatDouble(agreement * 100, 2) + "%"});
  }
  table.Print(std::cout);
  table.WriteCsv(CsvPath("tab05_cbf_accuracy"));
  std::cout << "paper: 99.72% / 99.65% / 99.62% / 99.42% / 96.92% — "
               "accuracy stays high until the filter is severely "
               "undersized (largest here: "
            << FormatDouble(first * 100, 2) << "%, smallest: "
            << FormatDouble(last * 100, 2) << "%)\n";
  return 0;
}
