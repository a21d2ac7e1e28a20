/**
 * @file
 * Tenant-churn adaptation figure (beyond the paper, Table-3 style): three
 * tenants share a 1:8 fast tier under the fair-share quota enforcer. A
 * second Zipf hot set arrives mid-run and the CDN tenant departs later;
 * the bench measures how fast the quota split reconverges around each
 * event.
 *
 * Shape targets: the departed tenant's occupancy drops to zero within
 * one rebalance interval of its exit (reclaim is immediate, not
 * trickled); the survivors' occupancy rises as the freed capacity is
 * re-divided; and the weighted Jain fairness index recovers to >= 0.9 of
 * its pre-churn value shortly after each disturbance.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/percentile.h"
#include "common/table.h"
#include "common/units.h"
#include "core/simulation.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/mux_workload.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kAccessBudget = 5000000;
constexpr uint64_t kSeed = 42;
constexpr double kRatio = 1.0 / 8;
constexpr TimeNs kMaxTime = 300 * kMillisecond;
constexpr TimeNs kArrival = 80 * kMillisecond;    // zipf#1 joins.
constexpr TimeNs kDeparture = 180 * kMillisecond; // cdn exits.

// zipf and cdn:2 run from t=0; cdn departs; a second zipf arrives.
std::string TenantList() {
  return "zipf,cdn:2@0-" + std::to_string(kDeparture) + ",zipf@" +
         std::to_string(kArrival);
}

struct ChurnRun {
  SimulationResult result;
  uint64_t fast_capacity_units = 0;
};

ChurnRun Run() {
  auto mux = MakeMuxWorkload(ParseTenantList(TenantList()), kSeed);
  ChurnRun run;
  auto policy = std::make_unique<FairSharePolicy>(
      MakePolicy("HybridTier"), mux->directory());

  SimulationConfig config;
  config.fast_tier_fraction = kRatio;
  config.max_accesses = kAccessBudget;
  config.max_time_ns = kMaxTime;
  config.seed = kSeed;

  Simulation simulation(config, mux.get(), policy.get());
  run.result = simulation.Run();
  run.fast_capacity_units = simulation.fast_capacity_units();
  return run;
}

/** Series value at the last sample at or before `t` (0 if none). */
double ValueAt(const TimeSeries& series, TimeNs t) {
  double value = 0.0;
  for (size_t i = 0; i < series.size(); ++i) {
    if (series.times_ns[i] > t) break;
    value = series.values[i];
  }
  return value;
}

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

/**
 * First time at/after `from` the series reaches `target` and stays at
 * or above it for `sustain` consecutive points (a shorter run counts
 * only if it holds through the end of the series) — a one-sample spike
 * right after a churn event is not reconvergence.
 */
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

std::string FormatRecovery(uint64_t event_ns, uint64_t recovered_ns) {
  if (recovered_ns == UINT64_MAX) return "never";
  return FormatDouble(
             static_cast<double>(recovered_ns - event_ns) / kMillisecond,
             1) +
         " ms";
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig_tenant_churn",
         "quota reconvergence around a mid-run arrival and departure");

  // One-cell sweep: the figure is a single timeline, but routing it
  // through SweepRunner keeps the --jobs flag and per-sweep wall-time
  // reporting uniform across the matrix drivers.
  SweepGrid grid;
  grid.AddAxis("cell", {"churn"});
  SweepRunner runner = MakeSweepRunner(options, "fig_tenant_churn");
  const ChurnRun run =
      runner.Run(grid, [](const SweepCell&) { return Run(); }).front();
  const SimulationResult& result = run.result;
  const TimeSeries& fairness = result.weighted_fairness_timeline;

  // Reference fairness levels just before each event.
  const TimeNs window = kRebalanceIntervalNs;
  const double pre_arrival =
      WindowMean(fairness, kArrival > window ? kArrival - window : 0,
                 kArrival);
  const double pre_departure =
      WindowMean(fairness, kDeparture - window, kDeparture);

  const uint64_t arrival_recovered =
      RecoveryTimeNs(fairness, 0.9 * pre_arrival, kArrival);
  const uint64_t departure_recovered =
      RecoveryTimeNs(fairness, 0.9 * pre_departure, kDeparture);

  // Departed tenant (index 1, cdn): when its occupancy reaches zero.
  const TimeSeries& departed = result.tenants[1].occupancy_timeline;
  uint64_t drained_ns = UINT64_MAX;
  for (size_t i = 0; i < departed.size(); ++i) {
    if (departed.times_ns[i] >= kDeparture && departed.values[i] == 0.0) {
      drained_ns = departed.times_ns[i];
      break;
    }
  }

  // Survivor occupancy (share of the fast tier) before/after departure.
  double survivors_before = 0.0;
  double survivors_after = 0.0;
  for (const size_t t : {size_t{0}, size_t{2}}) {
    const TimeSeries& occ = result.tenants[t].occupancy_timeline;
    survivors_before += WindowMean(occ, kDeparture - window, kDeparture);
    survivors_after +=
        WindowMean(occ, result.duration_ns > window
                            ? result.duration_ns - window
                            : 0,
                   result.duration_ns + 1);
  }

  TablePrinter table({"event", "t", "pre fair", "fair recovered",
                      "note"});
  table.SetTitle("churn adaptation (weighted Jain fairness)");
  table.AddRow({"arrival zipf#1", FormatTime(kArrival),
                FormatDouble(pre_arrival, 3),
                FormatRecovery(kArrival, arrival_recovered),
                "new tenant starts from zero occupancy"});
  table.AddRow({"departure cdn", FormatTime(kDeparture),
                FormatDouble(pre_departure, 3),
                FormatRecovery(kDeparture, departure_recovered),
                drained_ns == UINT64_MAX
                    ? std::string("cdn never drained")
                    : "cdn drained in " +
                          FormatRecovery(kDeparture, drained_ns)});
  table.Print(std::cout);

  std::cout << "survivor fast-tier share: "
            << FormatDouble(survivors_before * 100, 1) << " % before -> "
            << FormatDouble(survivors_after * 100, 1)
            << " % after departure\n"
            << "end-of-run weighted Jain: "
            << FormatDouble(result.weighted_jain_fairness, 3) << "\n";

  // Timeline CSV: per-tenant occupancy share + weighted fairness.
  TablePrinter timeline({"t_ns", "zipf", "cdn", "zipf#1",
                         "weighted_jain"});
  timeline.SetTitle("timeline");
  for (size_t i = 0; i < fairness.size(); ++i) {
    std::vector<std::string> row;
    row.push_back(std::to_string(fairness.times_ns[i]));
    for (size_t t = 0; t < result.tenants.size(); ++t) {
      // Per-tenant series are sparse (points only while the tenant is
      // present or draining); look up by the fairness timestamp.
      const TimeSeries& occ = result.tenants[t].occupancy_timeline;
      row.push_back(FormatDouble(ValueAt(occ, fairness.times_ns[i]), 4));
    }
    row.push_back(FormatDouble(fairness.values[i], 4));
    timeline.AddRow(row);
  }
  timeline.WriteCsv(CsvPath("fig_tenant_churn"));

  const bool converged =
      drained_ns != UINT64_MAX && departure_recovered != UINT64_MAX;
  if (!converged) {
    std::cout << "RECONVERGENCE FAILURE: see table above\n";
  }
  return converged ? 0 : 1;
}
