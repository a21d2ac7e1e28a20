/**
 * @file
 * Marginal-utility vs hit-density quota allocation (beyond the paper,
 * Equilibria-style): a mixed tenant matrix — two Zipf hot sets, a CDN
 * cache, and a streaming bwaves sweep — shares a 1:8 fast tier under
 * the fair-share wrapper, once with the density heuristic and once with
 * the ghost-MRC marginal-utility water-filler. The per-tenant budgeted
 * sampler is on in both runs so the comparison is purely about the
 * allocator.
 *
 * Shape targets: hit density misprices a streaming tenant — its pages
 * are touched once per sweep, so samples/resident-unit says nothing
 * about what capacity would *gain* it, and the division drifts away
 * from the weighted shares (here it pins the streamer at the floor
 * while handing a hot set capacity it cannot convert). The marginal
 * controller allocates by measured gain: every hot set gets exactly its
 * reuse set, the remainder is spread by weight, and both weighted Jain
 * fairness and the aggregate fast-hit ratio end at least as good as
 * under density. The bench exits nonzero when the marginal controller
 * loses on either metric, so CI catches allocator regressions.
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/table.h"
#include "core/simulation.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/mux_workload.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kAccessBudget = 3000000;
constexpr uint64_t kWarmup = 500000;
constexpr uint64_t kSeed = 42;
constexpr double kRatio = 1.0 / 8;

// Two hot sets a cache and a streamer: the matrix where density and
// marginal utility disagree the most.
const char* kTenantList = "zipf,bwaves,zipf:2,cdn";

struct ModeResult {
  SimulationResult result;
  uint64_t fast_capacity_units = 0;
};

ModeResult RunMode(QuotaMode mode) {
  auto mux = MakeMuxWorkload(ParseTenantList(kTenantList), kSeed);
  FairShareConfig fair_config;
  fair_config.quota_mode = mode;
  auto policy = std::make_unique<FairSharePolicy>(
      MakePolicy("HybridTier"), mux->directory(), fair_config);

  SimulationConfig config;
  config.fast_tier_fraction = kRatio;
  config.max_accesses = kAccessBudget;
  config.warmup_accesses = kWarmup;
  config.seed = kSeed;

  Simulation simulation(config, mux.get(), policy.get());
  ModeResult mode_result;
  mode_result.result = simulation.Run();
  mode_result.fast_capacity_units = simulation.fast_capacity_units();
  return mode_result;
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig_marginal_utility",
         "density vs marginal-utility quota allocation, mixed "
         "zipf+streaming tenants at 1:8");

  // Both mode cells pin kSeed: the gate below is a paired comparison,
  // so the two allocators must divide the same access stream.
  SweepGrid grid;
  grid.AddAxis("mode", {"density", "marginal"});
  SweepRunner runner = MakeSweepRunner(options, "fig_marginal_utility");
  const std::vector<ModeResult> runs =
      runner.Run(grid, [](const SweepCell& cell) {
        return RunMode(ParseQuotaMode(cell.Get("mode")));
      });

  TablePrinter table({"mode", "tenant", "weight", "quota", "fast units",
                      "share %", "fast-fill %", "MU", "period"});
  table.SetTitle("per-tenant allocation");

  double jain[2] = {0.0, 0.0};
  double hit_ratio[2] = {0.0, 0.0};
  for (const QuotaMode mode : {QuotaMode::kDensity, QuotaMode::kMarginal}) {
    const size_t m = static_cast<size_t>(mode);
    const ModeResult& run = runs[m];
    jain[m] = run.result.weighted_jain_fairness;
    hit_ratio[m] = run.result.FastAccessFraction();
    for (const TenantResult& tenant : run.result.tenants) {
      table.AddRow(
          {QuotaModeName(mode), tenant.name, FormatDouble(tenant.weight, 1),
           std::to_string(tenant.quota_units),
           std::to_string(tenant.fast_resident_units),
           FormatDouble(static_cast<double>(tenant.fast_resident_units) *
                            100.0 /
                            static_cast<double>(run.fast_capacity_units),
                        1),
           FormatDouble(tenant.FastAccessFraction() * 100, 1),
           FormatDouble(tenant.marginal_utility, 1),
           std::to_string(tenant.sample_period)});
    }
  }
  table.Print(std::cout);
  table.WriteCsv(CsvPath("fig_marginal_utility"));

  const size_t density = static_cast<size_t>(QuotaMode::kDensity);
  const size_t marginal = static_cast<size_t>(QuotaMode::kMarginal);
  std::cout << "weighted Jain:   density " << FormatDouble(jain[density], 3)
            << "  marginal " << FormatDouble(jain[marginal], 3) << "\n"
            << "fast-hit ratio:  density "
            << FormatDouble(hit_ratio[density], 3) << "  marginal "
            << FormatDouble(hit_ratio[marginal], 3) << "\n";

  // Allocator-regression gate (CI smoke): marginal must not lose to
  // density on either headline metric (tiny epsilon for run noise).
  constexpr double kEpsilon = 0.005;
  const bool ok = jain[marginal] >= jain[density] - kEpsilon &&
                  hit_ratio[marginal] >= hit_ratio[density] - kEpsilon;
  if (!ok) {
    std::cout << "ALLOCATOR REGRESSION: marginal mode lost to density\n";
  }
  return ok ? 0 : 1;
}
