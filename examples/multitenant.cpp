/**
 * @file
 * Multi-tenant shared-tier demo: four tenants (a Zipf hot set, CacheLib
 * CDN, BFS, and Silo) co-located on one fast tier, run twice under the
 * same base policy — once unmanaged, once wrapped in the per-tenant
 * fair-share quota enforcer — and compared side by side.
 *
 *   ./build/examples/multitenant [--tenants cdn,bfs-k,silo,zipf]
 *       [--policy HybridTier] [--ratio 1:8] [--accesses 4000000]
 *       [--seed 42] [--no-rebalance]
 *
 * The unmanaged run shows the starvation problem: the hottest tenant
 * soaks up the fast tier. The fair run shows quotas holding every
 * tenant's occupancy at (or under) its share, at a small cost to the
 * hot tenant. The final lines check the quota guarantee explicitly.
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "core/policy_factory.h"
#include "core/simulation.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/mux_workload.h"

namespace {

using namespace hybridtier;

struct RunOutput {
  SimulationResult result;
  uint64_t fast_capacity_units = 0;
  std::vector<uint64_t> quotas;  //!< Empty for the unmanaged run.
};

RunOutput RunOnce(const std::vector<TenantSpec>& specs,
                  const std::string& policy_name, double ratio,
                  uint64_t accesses, uint64_t seed, bool fair,
                  bool rebalance) {
  auto mux = MakeMuxWorkload(specs, seed);
  std::unique_ptr<TieringPolicy> policy = MakePolicy(policy_name);
  FairSharePolicy* fair_policy = nullptr;
  if (fair) {
    FairShareConfig config;
    config.rebalance = rebalance;
    auto wrapped = std::make_unique<FairSharePolicy>(
        std::move(policy), mux->directory(), config);
    fair_policy = wrapped.get();
    policy = std::move(wrapped);
  }

  SimulationConfig config;
  config.fast_tier_fraction = FastFractionFor(policy_name, ratio);
  config.allocation = AllocationPolicyFor(policy_name);
  config.max_accesses = accesses;
  config.seed = seed;

  Simulation simulation(config, mux.get(), policy.get());
  RunOutput output;
  output.result = simulation.Run();
  output.fast_capacity_units = simulation.fast_capacity_units();
  if (fair_policy != nullptr) {
    for (uint32_t t = 0; t < mux->tenant_count(); ++t) {
      output.quotas.push_back(fair_policy->quota_units(t));
    }
  }
  return output;
}

void PrintRun(const std::string& title, const RunOutput& run) {
  TablePrinter table({"tenant", "Mop/s", "p99 ns", "fast-fill %",
                      "tier share %", "quota share %"});
  table.SetTitle(title);
  for (size_t t = 0; t < run.result.tenants.size(); ++t) {
    const TenantResult& tenant = run.result.tenants[t];
    const double cap = static_cast<double>(run.fast_capacity_units);
    table.AddRow(
        {tenant.name, FormatDouble(tenant.throughput_mops, 3),
         FormatDouble(tenant.p99_latency_ns, 0),
         FormatDouble(tenant.FastAccessFraction() * 100, 1),
         FormatDouble(static_cast<double>(tenant.fast_resident_units) *
                          100.0 / cap,
                      1),
         run.quotas.empty()
             ? std::string("-")
             : FormatDouble(static_cast<double>(run.quotas[t]) * 100.0 /
                                cap,
                            1)});
  }
  table.Print(std::cout);
  std::cout << "Jain fairness (tier share): "
            << FormatDouble(run.result.jain_fairness, 3) << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string tenants = "cdn,bfs-k,silo,zipf";
  std::string policy_name = "HybridTier";
  double ratio = 1.0 / 8;
  uint64_t accesses = 4000000;
  uint64_t seed = 42;
  bool rebalance = true;

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
      const std::string value = next();
      const size_t colon = value.find(':');
      if (colon == std::string::npos) {
        std::cerr << "--ratio must look like 1:8\n";
        return 1;
      }
      ratio = std::stod(value.substr(0, colon)) /
              std::stod(value.substr(colon + 1));
    } else if (arg == "--accesses") {
      accesses = ParseUintFlag(arg, next());
    } else if (arg == "--seed") {
      seed = ParseUintFlag(arg, next());
    } else if (arg == "--no-rebalance") {
      rebalance = false;
    } else {
      std::cerr << "usage: multitenant [--tenants list] [--policy name] "
                   "[--ratio 1:N] [--accesses n] [--seed n] "
                   "[--no-rebalance]\n";
      return arg == "--help" || arg == "-h" ? 0 : 1;
    }
  }

  const std::vector<TenantSpec> specs = ParseTenantList(tenants);
  std::cout << specs.size() << " tenants sharing one fast tier, policy "
            << policy_name << ":\n\n";

  const RunOutput unmanaged = RunOnce(specs, policy_name, ratio, accesses,
                                      seed, /*fair=*/false, rebalance);
  PrintRun("unmanaged (" + policy_name + ")", unmanaged);

  const RunOutput fair = RunOnce(specs, policy_name, ratio, accesses, seed,
                                 /*fair=*/true, rebalance);
  PrintRun("fair-share quotas (FairShare(" + policy_name + "))", fair);

  // Check the quota guarantee: every tenant's end-of-run occupancy is
  // within one enforcement batch of its quota.
  const FairShareConfig defaults;
  bool all_within = true;
  for (size_t t = 0; t < fair.result.tenants.size(); ++t) {
    const TenantResult& tenant = fair.result.tenants[t];
    if (tenant.fast_resident_units >
        fair.quotas[t] + defaults.max_enforce_batch) {
      all_within = false;
      std::cout << "QUOTA VIOLATION: " << tenant.name << " holds "
                << tenant.fast_resident_units << " fast units, quota "
                << fair.quotas[t] << "\n";
    }
  }
  if (all_within) {
    std::cout << "quota check: every tenant within its fast-tier quota "
                 "(+<= one batch)\n";
  }
  std::cout << "fairness: " << FormatDouble(unmanaged.result.jain_fairness, 3)
            << " unmanaged -> " << FormatDouble(fair.result.jain_fairness, 3)
            << " fair-share\n";
  return all_within ? 0 : 1;
}
