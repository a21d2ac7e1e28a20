/**
 * @file
 * Tenant-churn walkthrough: a co-location timeline where the tenant mix
 * changes mid-run, showing the fair-share wrapper re-dividing the fast
 * tier as tenants come and go.
 *
 *   ./build/examples/tenant_churn [--tenants zipf,cdn:2@0-1.2e8,zipf@6e7]
 *       [--policy HybridTier] [--ratio 1:8] [--accesses 4000000]
 *       [--seed 42]
 *
 * The default scenario: a Zipf hot set and a double-weight CDN tenant
 * share the tier from t=0; a second Zipf tenant arrives at 60 ms and the
 * CDN departs at 120 ms, releasing its memory. The run prints the churn
 * events the workload surfaced, each tenant's occupancy at a few
 * timeline checkpoints, and how long the departed tenant's fast share
 * took to drain.
 */

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/percentile.h"
#include "common/table.h"
#include "common/units.h"
#include "core/policy_factory.h"
#include "core/simulation.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/mux_workload.h"

namespace {

using namespace hybridtier;

/** Series value at the last sample at or before `t` (0 if none). */
double ValueAt(const TimeSeries& series, TimeNs t) {
  double value = 0.0;
  for (size_t i = 0; i < series.size(); ++i) {
    if (series.times_ns[i] > t) break;
    value = series.values[i];
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::string tenants = "zipf,cdn:2@0-1.2e8,zipf@6e7";
  std::string policy_name = "HybridTier";
  double ratio = 1.0 / 8;
  uint64_t accesses = 4000000;
  uint64_t seed = 42;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--tenants") {
      tenants = next();
    } else if (arg == "--policy") {
      policy_name = next();
    } else if (arg == "--ratio") {
      ratio = ParseRatioFlag(arg, next());
    } else if (arg == "--accesses") {
      accesses = ParseUintFlag(arg, next());
    } else if (arg == "--seed") {
      seed = ParseUintFlag(arg, next());
    } else {
      std::cerr << "usage: tenant_churn [--tenants list] [--policy name] "
                   "[--ratio 1:N] [--accesses n] [--seed n]\n";
      return arg == "--help" || arg == "-h" ? 0 : 1;
    }
  }

  auto mux = MakeMuxWorkload(ParseTenantList(tenants), seed);
  auto policy = std::make_unique<FairSharePolicy>(MakePolicy(policy_name),
                                                  mux->directory());

  SimulationConfig config;
  config.fast_tier_fraction = FastFractionFor(policy_name, ratio);
  config.allocation = AllocationPolicyFor(policy_name);
  config.max_accesses = accesses;
  config.seed = seed;

  Simulation simulation(config, mux.get(), policy.get());
  const SimulationResult result = simulation.Run();

  std::cout << "workload: " << mux->name() << ", policy FairShare("
            << policy_name << "), " << simulation.fast_capacity_units()
            << " fast units, " << FormatTime(result.duration_ns)
            << " virtual\n\nchurn events:\n";
  for (const TenantChurnEvent& event : mux->churn_events()) {
    std::cout << "  " << FormatTime(event.time_ns) << "  "
              << (event.arrival ? "arrival   " : "departure ")
              << mux->tenant_name(event.tenant) << "\n";
  }

  // Occupancy checkpoints: just before/after each event and at the end.
  std::vector<std::pair<std::string, TimeNs>> checkpoints;
  for (const TenantChurnEvent& event : mux->churn_events()) {
    const std::string name = mux->tenant_name(event.tenant);
    const char* kind = event.arrival ? "arrival" : "departure";
    if (event.time_ns > 0) {
      checkpoints.emplace_back(std::string("before ") + kind + " " + name,
                               event.time_ns - 1);
    }
    checkpoints.emplace_back(
        std::string("after ") + kind + " " + name,
        event.time_ns + kRebalanceIntervalNs);
  }
  checkpoints.emplace_back("end of run", result.duration_ns);

  std::vector<std::string> header = {"checkpoint", "t"};
  for (const TenantResult& tenant : result.tenants) {
    header.push_back(tenant.name + " share %");
  }
  header.push_back("weighted Jain");
  TablePrinter table(header);
  table.SetTitle("fast-tier occupancy timeline");
  for (const auto& [label, t] : checkpoints) {
    std::vector<std::string> row = {label, FormatTime(t)};
    for (const TenantResult& tenant : result.tenants) {
      row.push_back(
          FormatDouble(ValueAt(tenant.occupancy_timeline, t) * 100, 1));
    }
    row.push_back(FormatDouble(
        ValueAt(result.weighted_fairness_timeline, t), 3));
    table.AddRow(row);
  }
  table.Print(std::cout);

  std::cout << "end-of-run weighted Jain fairness: "
            << FormatDouble(result.weighted_jain_fairness, 3) << "\n";
  return 0;
}
