/**
 * @file
 * Figure 3b — lower cooling periods capture hotness less accurately.
 *
 * Feed the same CacheLib access-sample stream into exact per-page
 * counters under different cooling periods C and classify pages as
 * hot / warm / cold by their final counter value. C = inf is the target
 * distribution; as C shrinks, hot and warm pages lose counts to
 * premature halving and the measured hot/warm share collapses.
 * Each C is an independent sweep cell (every cell regenerates the same
 * seeded stream), so the sweep parallelizes under --jobs.
 * (Paper sweeps C in {inf, 25M, 10M, 5M, 2M} samples; ours is the
 * time-compressed equivalent.)
 */

#include <iostream>
#include <vector>

#include "common/bench_util.h"
#include "common/table.h"
#include "mem/page.h"
#include "probstruct/exact_table.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kSamples = 2000000;
constexpr uint32_t kHotCount = 13;
constexpr uint32_t kWarmCount = 4;

struct Shares {
  double hot = 0.0;
  double warm = 0.0;
  double cold = 0.0;
};

Shares MeasureShares(uint64_t cooling_period) {
  auto workload = MakeWorkload("cdn", DefaultWorkloadScale("cdn"), 42);
  ExactCounterTable counters(workload->footprint_pages(), /*max=*/15);
  OpTrace op;
  uint64_t samples = 0;
  uint64_t since_cooling = 0;
  // Sample every 8th access (denser than the runtime's 61 so the sweep
  // completes quickly while keeping the same distribution).
  uint64_t countdown = 8;
  while (samples < kSamples) {
    workload->NextOp(0, &op);
    for (const MemoryAccess& access : op.accesses) {
      if (--countdown > 0) continue;
      countdown = 8;
      counters.Increment(PageOfAddr(access.addr));
      ++samples;
      if (cooling_period != 0 && ++since_cooling >= cooling_period) {
        since_cooling = 0;
        counters.CoolByHalving();
      }
    }
  }

  Shares shares;
  uint64_t touched = 0;
  for (PageId page = 0; page < counters.size(); ++page) {
    const uint64_t count = counters.RawCount(page);
    if (count == 0) continue;
    ++touched;
    if (count >= kHotCount) {
      shares.hot += 1;
    } else if (count >= kWarmCount) {
      shares.warm += 1;
    } else {
      shares.cold += 1;
    }
  }
  if (touched > 0) {
    shares.hot /= static_cast<double>(touched);
    shares.warm /= static_cast<double>(touched);
    shares.cold /= static_cast<double>(touched);
  }
  return shares;
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig03b", "hot/warm/cold classification vs cooling period C");

  struct Point {
    const char* label;
    uint64_t period;
  };
  const std::vector<Point> sweep = {{"inf", 0},
                                    {"1M", 1000000},
                                    {"400k", 400000},
                                    {"200k", 200000},
                                    {"80k", 80000}};

  std::vector<std::string> labels;
  for (const Point& point : sweep) labels.push_back(point.label);
  SweepGrid grid;
  grid.AddAxis("C", labels);
  SweepRunner runner = MakeSweepRunner(options, "fig03b");
  const std::vector<Shares> measured =
      runner.Run(grid, [&sweep](const SweepCell& cell) {
        return MeasureShares(sweep[cell.ValueIndex("C")].period);
      });

  TablePrinter table({"C (samples)", "% hot", "% warm", "% cold"});
  table.SetTitle(
      "Figure 3b: hotness classification under different cooling periods");
  double hot_at_inf = 0.0, hot_at_min = 0.0;
  for (size_t i = 0; i < sweep.size(); ++i) {
    const Shares& shares = measured[i];
    if (sweep[i].period == 0) hot_at_inf = shares.hot + shares.warm;
    hot_at_min = shares.hot + shares.warm;
    table.AddRow({sweep[i].label, FormatDouble(shares.hot * 100, 1),
                  FormatDouble(shares.warm * 100, 1),
                  FormatDouble(shares.cold * 100, 1)});
  }
  table.Print(std::cout);
  table.WriteCsv(CsvPath("fig03_cooling_accuracy"));

  std::cout << "shape check: hot+warm share at C=inf "
            << FormatDouble(hot_at_inf * 100, 1) << "% vs at smallest C "
            << FormatDouble(hot_at_min * 100, 1)
            << "% (paper: smaller C underestimates hot/warm)\n";
  return 0;
}
