/**
 * @file
 * Figure 16 — access hotness distributions of the 12 workloads.
 *
 * Cumulative distribution of per-page 4-bit-capped access-frequency
 * counts over a fixed sampled window, for every workload/input pair.
 * Each workload's measurement is an independent sweep cell (the twelve
 * streams share nothing), so the table fills in parallel under --jobs.
 * Paper shape targets: GAP-on-Kronecker has >=94% zero-access pages;
 * CacheLib social-graph has the largest fraction of pages at the
 * counter cap (15).
 */

#include <iostream>
#include <vector>

#include "common/bench_util.h"
#include "common/table.h"
#include "mem/page.h"
#include "probstruct/exact_table.h"
#include "sampling/sample.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kAccessBudget = 12000000;
/** The runtime's frequency-tracker cooling period; with the runtime's
 *  `kSamplePeriod`, counter magnitudes match what the tiering system
 *  actually sees. */
constexpr uint64_t kCoolingPeriod = 50000;

/** Cumulative shares at the Fig 16 bucket edges. */
std::vector<double> MeasureCdf(const std::string& workload_id) {
  // The array-sweep workloads revisit each page once per sweep; keep the
  // sweep period large relative to the cooling window (as it is at the
  // paper's 150 GB footprints) by running them at a larger scale.
  const bool is_stream = workload_id == "bwaves" || workload_id == "roms";
  const double scale =
      DefaultWorkloadScale(workload_id) * (is_stream ? 4.0 : 1.0);
  auto workload = MakeWorkload(workload_id, scale, 42);
  ExactCounterTable counters(workload->footprint_pages(), /*max=*/15);
  OpTrace op;
  uint64_t accesses = 0;
  uint64_t samples = 0;
  uint64_t countdown = kSamplePeriod;
  while (accesses < kAccessBudget) {
    workload->NextOp(0, &op);
    for (const MemoryAccess& access : op.accesses) {
      ++accesses;
      if (--countdown > 0) continue;
      countdown = kSamplePeriod;
      counters.Increment(PageOfAddr(access.addr));
      if (++samples % kCoolingPeriod == 0) counters.CoolByHalving();
    }
  }

  // Bucket edges as in the paper: 0, 1-3, 4-6, 7-9, 10-12, 13-14, 15.
  std::vector<uint64_t> buckets(7, 0);
  for (PageId page = 0; page < counters.size(); ++page) {
    const uint32_t count = counters.Get(page);
    size_t bucket;
    if (count == 0) {
      bucket = 0;
    } else if (count <= 3) {
      bucket = 1;
    } else if (count <= 6) {
      bucket = 2;
    } else if (count <= 9) {
      bucket = 3;
    } else if (count <= 12) {
      bucket = 4;
    } else if (count <= 14) {
      bucket = 5;
    } else {
      bucket = 6;
    }
    ++buckets[bucket];
  }
  std::vector<double> cdf(7, 0.0);
  double cumulative = 0.0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    cumulative += static_cast<double>(buckets[b]) /
                  static_cast<double>(counters.size());
    cdf[b] = cumulative;
  }
  return cdf;
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig16", "per-page access-frequency CDF of all 12 workloads");

  SweepGrid grid;
  grid.AddAxis("workload", AllWorkloadIds());

  SweepRunner runner = MakeSweepRunner(options, "fig16");
  const std::vector<std::vector<double>> cdfs =
      runner.Run(grid, [](const SweepCell& cell) {
        return MeasureCdf(cell.Get("workload"));
      });

  TablePrinter table({"workload", "0", "1-3", "4-6", "7-9", "10-12",
                      "13-14", "15"});
  table.SetTitle(
      "Figure 16: cumulative distribution of page access-frequency "
      "counts");
  double kron_zero_share = 1.0;
  double social_cap_share = 0.0;
  double max_other_cap_share = 0.0;
  for (size_t w = 0; w < AllWorkloadIds().size(); ++w) {
    const std::string& id = AllWorkloadIds()[w];
    const std::vector<double>& cdf = cdfs[w];
    std::vector<std::string> row = {id};
    for (const double value : cdf) row.push_back(FormatDouble(value, 3));
    table.AddRow(row);
    const double cap_share = 1.0 - cdf[5];
    if (id == "pr-k") kron_zero_share = cdf[0];
    if (id == "social") {
      social_cap_share = cap_share;
    } else {
      max_other_cap_share = std::max(max_other_cap_share, cap_share);
    }
  }
  table.Print(std::cout);
  table.WriteCsv(CsvPath("fig16_hotness_cdf"));

  std::cout << "shape check: pr-kron zero-access page share "
            << FormatDouble(kron_zero_share * 100, 1)
            << "% (paper: ~94% for GAP/Kronecker); social-graph share at "
               "count 15 "
            << FormatDouble(social_cap_share * 100, 2)
            << "% vs max of others "
            << FormatDouble(max_other_cap_share * 100, 2)
            << "% (paper: social-graph largest)\n";
  return 0;
}
