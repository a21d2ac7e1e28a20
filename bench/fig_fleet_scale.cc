/**
 * @file
 * Fleet-scale gate (beyond the paper): one simulation cell multiplexing
 * O(10^3) tenants under Poisson churn, the regime Equilibria-style
 * fleet tiering targets. Each cell expands a `fleet:` generator spec
 * (Zipf weights and footprints, duty-cycled residency) into the
 * marginal-utility fair-share stack and reports weighted Jain fairness,
 * adaptation time, and wall-clock simulation rate at 100 / 300 / 1000
 * tenants.
 *
 * Outputs:
 *  - `fig_fleet_scale.csv`: virtual-time metrics only — byte-identical
 *    across `--jobs` values (the CI jobs-invariance gate byte-diffs it).
 *  - `BENCH_fleet.json`: adds the wall-clock Macc/s trajectory, exempt
 *    from the invariance contract (wall clock is a measurement).
 *
 * Exit status gates completion, not speed: every cell must finish its
 * budget with sane fairness, and per-interval accounting must have
 * stayed O(active) (visits well under tenants x intervals — the precise
 * complexity guard lives in tests/test_multitenant.cc).
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/flags.h"
#include "common/percentile.h"
#include "common/table.h"
#include "common/units.h"
#include "core/simulation.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/fleet.h"
#include "multitenant/mux_workload.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kAccessBudget = 3000000;
constexpr uint64_t kSeed = 42;
constexpr double kRatio = 1.0 / 8;
constexpr TimeNs kMaxTime = 400 * kMillisecond;
constexpr TimeNs kSteadyWindow = 100 * kMillisecond;

/** The fleet every cell runs, sized by tenant count. */
std::string FleetList(uint32_t tenants) {
  return "fleet:" + std::to_string(tenants) +
         ",zipf=0.9,fp=1024,fpskew=0.3,churn=poisson,duty=0.2,"
         "period=1e8,horizon=1e9,seed=7";
}

struct FleetCell {
  uint32_t tenants = 0;
  SimulationResult result;
  uint64_t fast_capacity_units = 0;
  uint64_t footprint_units = 0;
  double wall_s = 0.0;     //!< Wall clock of the Run() call.
  double maccs = 0.0;      //!< result.accesses / wall_s / 1e6.
  double adaptation_ms = -1.0;  //!< Fairness ramp-up time (-1 = never).
  double steady_fairness = 0.0;
};

/** Mean of the series values inside [begin, end); 0 when empty. */
double WindowMean(const TimeSeries& series, TimeNs begin, TimeNs end) {
  double sum = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    if (series.times_ns[i] >= begin && series.times_ns[i] < end) {
      sum += series.values[i];
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

/** First time the series reaches `target` and holds for 3 points. */
uint64_t RecoveryTimeNs(const TimeSeries& series, double target,
                        TimeNs from, size_t sustain = 3) {
  size_t run_start = 0;
  size_t run_length = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    if (series.times_ns[i] < from || series.values[i] < target) {
      run_length = 0;
      continue;
    }
    if (run_length == 0) run_start = i;
    if (++run_length >= sustain) return series.times_ns[run_start];
  }
  return run_length > 0 ? series.times_ns[run_start] : UINT64_MAX;
}

FleetCell RunFleet(uint32_t tenants) {
  FleetCell cell;
  cell.tenants = tenants;
  auto mux = MakeMuxWorkload(ParseTenantList(FleetList(tenants)), kSeed);
  FairShareConfig fair_config;  // Marginal mode + SHARDS defaults.
  auto policy = std::make_unique<FairSharePolicy>(
      MakePolicy("HybridTier"), mux->directory(), fair_config);

  SimulationConfig config;
  config.fast_tier_fraction = kRatio;
  config.max_accesses = kAccessBudget;
  config.max_time_ns = kMaxTime;
  config.seed = kSeed;

  Simulation simulation(config, mux.get(), policy.get());
  const auto wall_start = std::chrono::steady_clock::now();
  cell.result = simulation.Run();
  const auto wall_end = std::chrono::steady_clock::now();
  cell.wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  cell.maccs = cell.wall_s == 0.0
                   ? 0.0
                   : static_cast<double>(cell.result.accesses) /
                         cell.wall_s / 1e6;
  cell.fast_capacity_units = simulation.fast_capacity_units();
  cell.footprint_units = simulation.footprint_units();

  // Adaptation: how long until the weighted fairness index first
  // sustains 90% of its own steady level (the fleet starts cold — the
  // controller has to discover every arrival's demand curve).
  const TimeSeries& fairness = cell.result.weighted_fairness_timeline;
  const TimeNs duration = cell.result.duration_ns;
  cell.steady_fairness = WindowMean(
      fairness, duration > kSteadyWindow ? duration - kSteadyWindow : 0,
      duration + 1);
  const uint64_t recovered =
      RecoveryTimeNs(fairness, 0.9 * cell.steady_fairness, 0);
  if (recovered != UINT64_MAX) {
    cell.adaptation_ms =
        static_cast<double>(recovered) / kMillisecond;
  }
  return cell;
}

void WriteJson(const std::string& path,
               const std::vector<FleetCell>& cells) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"fig_fleet_scale\",\n"
      << "  \"access_budget\": " << kAccessBudget << ",\n"
      << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const FleetCell& cell = cells[i];
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "    {\"tenants\": %u, \"accesses\": %llu, "
        "\"weighted_jain\": %.4f, \"adaptation_ms\": %.1f, "
        "\"stats_tenant_visits\": %llu, \"wall_s\": %.4f, "
        "\"maccs\": %.3f}%s\n",
        cell.tenants,
        static_cast<unsigned long long>(cell.result.accesses),
        cell.result.weighted_jain_fairness, cell.adaptation_ms,
        static_cast<unsigned long long>(cell.result.stats_tenant_visits),
        cell.wall_s, cell.maccs, i + 1 == cells.size() ? "" : ",");
    out << line;
  }
  out << "  ]\n}\n";
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;

  // --max-tenants caps the sweep (CI smoke runs 300, ASan 100); the
  // remaining args are the standard sweep options.
  uint32_t max_tenants = 1000;
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--max-tenants" && i + 1 < argc) {
      max_tenants = static_cast<uint32_t>(
          ParseUintFlag(argv[i], argv[i + 1], 0, UINT32_MAX));
      ++i;
    } else {
      rest.push_back(argv[i]);
    }
  }
  const BenchOptions options =
      ParseBenchArgs(static_cast<int>(rest.size()), rest.data());
  Banner("fig_fleet_scale",
         "fairness, adaptation, and Macc/s at fleet tenant counts");

  std::vector<std::string> counts;
  for (const uint32_t n : {100u, 300u, 1000u}) {
    if (n <= max_tenants) counts.push_back(std::to_string(n));
  }
  SweepGrid grid;
  grid.AddAxis("tenants", counts);
  SweepRunner runner = MakeSweepRunner(options, "fig_fleet_scale");
  const std::vector<FleetCell> cells =
      runner.Run(grid, [](const SweepCell& cell) {
        return RunFleet(
            static_cast<uint32_t>(std::stoul(cell.Get("tenants"))));
      });

  TablePrinter table({"tenants", "accesses", "weighted Jain",
                      "adaptation", "stats visits", "Macc/s (wall)"});
  table.SetTitle("fleet scale (Poisson churn, marginal-utility quotas)");
  // CSV mirror without the wall-clock column: the jobs-invariance gate
  // byte-diffs it, and wall clock is the one legitimate nondeterminism.
  TablePrinter csv({"tenants", "accesses", "weighted_jain",
                    "adaptation_ms", "stats_tenant_visits"});
  csv.SetTitle("fleet");
  bool ok = true;
  for (const FleetCell& cell : cells) {
    const std::string adaptation =
        cell.adaptation_ms < 0
            ? "never"
            : FormatDouble(cell.adaptation_ms, 1) + " ms";
    table.AddRow({std::to_string(cell.tenants),
                  std::to_string(cell.result.accesses),
                  FormatDouble(cell.result.weighted_jain_fairness, 3),
                  adaptation,
                  std::to_string(cell.result.stats_tenant_visits),
                  FormatDouble(cell.maccs, 2)});
    csv.AddRow({std::to_string(cell.tenants),
                std::to_string(cell.result.accesses),
                FormatDouble(cell.result.weighted_jain_fairness, 4),
                FormatDouble(cell.adaptation_ms, 1),
                std::to_string(cell.result.stats_tenant_visits)});

    // Completion gates: the cell ran its budget, produced a sane
    // fairness index, and interval accounting stayed O(active): with
    // duty 0.2 the visit count must sit far below tenants x intervals.
    const uint64_t intervals =
        cell.result.weighted_fairness_timeline.size();
    const uint64_t visit_ceiling =
        intervals * (cell.tenants / 2 + 16);
    if (cell.result.accesses == 0 ||
        !(cell.result.weighted_jain_fairness > 0.0 &&
          cell.result.weighted_jain_fairness <= 1.0) ||
        cell.result.stats_tenant_visits > visit_ceiling) {
      std::cout << "FLEET CELL FAILURE: tenants="
                << cell.tenants << " accesses="
                << cell.result.accesses << " jain="
                << cell.result.weighted_jain_fairness
                << " visits=" << cell.result.stats_tenant_visits
                << " ceiling=" << visit_ceiling << "\n";
      ok = false;
    }
  }
  table.Print(std::cout);
  csv.WriteCsv(CsvPath("fig_fleet_scale"));
  WriteJson("BENCH_fleet.json", cells);
  std::cout << "wrote BENCH_fleet.json ("
            << cells.size() << " cells)\n";
  return ok ? 0 : 1;
}
