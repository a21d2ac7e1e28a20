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
 *
 * A second cell runs recurring residency windows at small scale: zipf
 * is resident 0-2 ms and 30-40 ms, cdn 10-20 ms and 22-50 ms. Nobody is
 * resident from 2 to 10 ms (an idle gap), and with reclaim paced at 16
 * units per tick cdn's drain is still running when its second window
 * opens, so the re-arrival finishes it at once. The cell prints every
 * window edge with the tenant's fast-tier share just before it and
 * writes its own timeline CSV.
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

// The recurring-windows cell (see the file comment).
constexpr char kRecurringTenants[] =
    "zipf@0-2ms+30ms-40ms,cdn@10ms-20ms+22ms-50ms";
constexpr double kRecurringScale = 0.05;
constexpr uint64_t kRecurringReleaseBatch = 16;
constexpr TimeNs kRecurringMaxTime = 60 * kMillisecond;
// Stats points fine enough to land inside zipf's 2 ms first window.
constexpr TimeNs kRecurringStatsInterval = 1 * kMillisecond;

struct ChurnRun {
  SimulationResult result;
  std::vector<TenantChurnEvent> churn_events;
};

/** Runs the "churn" cell or the "recurring" one. */
ChurnRun Run(const std::string& cell) {
  const bool recurring = cell == "recurring";
  std::vector<TenantSpec> specs =
      ParseTenantList(recurring ? kRecurringTenants : TenantList());
  if (recurring) {
    for (TenantSpec& spec : specs) spec.scale = kRecurringScale;
  }
  auto mux = MakeMuxWorkload(specs, kSeed);
  FairShareConfig fair_config;
  if (recurring) fair_config.release_batch = kRecurringReleaseBatch;
  auto policy = std::make_unique<FairSharePolicy>(
      MakePolicy("HybridTier"), mux->directory(), fair_config);

  SimulationConfig config;
  config.fast_tier_fraction = kRatio;
  config.max_accesses = kAccessBudget;
  config.max_time_ns = recurring ? kRecurringMaxTime : kMaxTime;
  if (recurring) config.stats_interval_ns = kRecurringStatsInterval;
  config.seed = kSeed;

  Simulation simulation(config, mux.get(), policy.get());
  ChurnRun run;
  run.result = simulation.Run();
  run.churn_events = mux->churn_events();
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

/** Writes a timeline CSV: each tenant's occupancy share + fairness. */
void WriteTimeline(const SimulationResult& result,
                   std::vector<std::string> columns, const std::string& name) {
  const TimeSeries& fairness = result.weighted_fairness_timeline;
  columns.insert(columns.begin(), "t_ns");
  columns.push_back("weighted_jain");
  TablePrinter timeline(columns);
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
  timeline.WriteCsv(CsvPath(name));
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
         "quota reconvergence around a mid-run arrival and departure, "
         "and recurring residency windows");

  SweepGrid grid;
  grid.AddAxis("cell", {"churn", "recurring"});
  SweepRunner runner = MakeSweepRunner(options, "fig_tenant_churn");
  const std::vector<ChurnRun> runs = runner.Run(
      grid, [](const SweepCell& cell) { return Run(cell.Get("cell")); });
  const SimulationResult& result = runs[0].result;
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

  WriteTimeline(result, {"zipf", "cdn", "zipf#1"}, "fig_tenant_churn");

  const SimulationResult& recurring = runs[1].result;
  // The share at the last stats point before the edge: an arrival that
  // overtakes its own drain still shows the units the drain had left.
  TablePrinter edges({"t", "tenant", "event", "fast share before"});
  edges.SetTitle("recurring windows (release batch " +
                 std::to_string(kRecurringReleaseBatch) + ")");
  for (const TenantChurnEvent& event : runs[1].churn_events) {
    edges.AddRow(
        {FormatTime(event.time_ns), recurring.tenants[event.tenant].name,
         event.arrival ? "arrival" : "departure",
         FormatDouble(ValueAt(recurring.tenants[event.tenant]
                                  .occupancy_timeline,
                              event.time_ns - 1) *
                          100,
                      1) +
             " %"});
  }
  edges.Print(std::cout);
  WriteTimeline(recurring, {"zipf", "cdn"}, "fig_tenant_churn_recurring");

  const bool converged =
      drained_ns != UINT64_MAX && departure_recovered != UINT64_MAX;
  if (!converged) {
    std::cout << "RECONVERGENCE FAILURE: see table above\n";
  }
  return converged ? 0 : 1;
}
