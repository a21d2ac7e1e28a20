/**
 * @file
 * Oracle-gap diagnosis: where does the distance to the all-fast upper
 * bound come from, nanosecond by nanosecond?
 *
 * Runs a small matrix of representative cells — two single-workload
 * cells on the default device, one on an asymmetric multi-endpoint
 * topology (a direct expander plus two slower devices behind a thin
 * switch uplink), and one multi-tenant fleet cell under the fair-share
 * stack — each paired with the AllFast oracle over the same access
 * stream and seed. For every policy run the latency-attribution and
 * decision-audit sinks are attached, and the output table decomposes
 * the policy's ns/op into the exact components (Σ components == Σ op
 * latency, the identity gated in tests/test_obs.cc) next to the gap to
 * the oracle and the mis-tiering labels.
 *
 * Every printed/written number is a virtual-time quantity, so
 * `fig_attribution.csv` and `fig_attribution.json` are byte-identical
 * across `--jobs` values (the CI jobs-invariance gate diffs the CSV).
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/table.h"
#include "core/simulation.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/mux_workload.h"
#include "obs/attribution.h"
#include "obs/audit.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kAccessBudget = 2000000;
constexpr uint64_t kSeed = 42;
constexpr double kRatio = 1.0 / 8;

/** Asymmetric slow tier: endpoint 1 direct-attached at the paper's CXL
 *  timings, endpoints 2-3 slower expanders sharing a thin uplink. */
constexpr const char* kAsymTopology =
    "cxl:(1,(2,3)),lat=124:250:250,bw=34:8:8,link=10,gran=64";

/** 32-tenant fleet (Zipf weights/footprints, Poisson churn) shared
 *  through the marginal-utility fair-share stack. */
constexpr const char* kFleetSpec =
    "fleet:32,zipf=0.9,fp=1024,fpskew=0.3,churn=poisson,duty=0.5,"
    "period=1e8,horizon=1e9,seed=7";

const std::vector<std::string>& CellLabels() {
  static const std::vector<std::string> cells = {"cdn", "silo",
                                                 "cdn-asym", "fleet"};
  return cells;
}

struct CellOut {
  uint64_t ops = 0;
  uint64_t duration_ns = 0;
};

/** Runs one (cell, config) pair; diagnosis sinks attach to policy runs
 *  only (the oracle needs just its duration). */
CellOut RunOne(const std::string& cell, bool oracle,
               LatencyAttribution* attr, DecisionAudit* audit,
               const std::string& topology_override) {
  SimulationConfig base;
  base.max_accesses = kAccessBudget;
  base.seed = kSeed;
  base.telemetry.attribution = attr;
  base.telemetry.audit = audit;
  if (cell == "cdn-asym") {
    base.topology =
        topology_override.empty() ? kAsymTopology : topology_override;
  } else {
    base.topology = topology_override;
  }

  if (cell == "fleet") {
    auto mux = MakeMuxWorkload(ParseTenantList(kFleetSpec), kSeed);
    std::unique_ptr<TieringPolicy> policy;
    if (oracle) {
      base.fast_tier_fraction = 1.0;
      base.allocation = AllocationPolicyFor("AllFast");
      policy = MakePolicy("AllFast");
    } else {
      base.fast_tier_fraction = kRatio;
      base.allocation = AllocationPolicyFor("HybridTier");
      policy = std::make_unique<FairSharePolicy>(
          MakePolicy("HybridTier"), mux->directory(), FairShareConfig{});
    }
    const SimulationResult result =
        RunSimulation(base, mux.get(), policy.get());
    return CellOut{result.ops, result.duration_ns};
  }

  const std::string workload_id = cell == "cdn-asym" ? "cdn" : cell;
  RunSpec spec;
  spec.workload_id = workload_id;
  spec.workload_scale = DefaultWorkloadScale(workload_id);
  spec.policy_name = oracle ? "AllFast" : "HybridTier";
  spec.fast_fraction = oracle ? 1.0 : kRatio;
  spec.max_accesses = kAccessBudget;
  spec.warmup_accesses = 0;
  spec.seed = kSeed;
  spec.base_config = base;
  const SimulationResult result = RunCell(spec);
  return CellOut{result.ops, result.duration_ns};
}

double NsPerOp(uint64_t ns, uint64_t ops) {
  return ops == 0 ? 0.0
                  : static_cast<double>(ns) / static_cast<double>(ops);
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig_attribution",
         "oracle-gap diagnosis: exact latency decomposition + decision "
         "audit");

  const std::vector<std::string>& cells = CellLabels();
  SweepGrid grid;
  grid.AddAxis("cell", cells);
  grid.AddAxis("config", {"oracle", "policy"});

  // One diagnosis sink pair per cell, preallocated and indexed by the
  // cell axis: each policy run writes only its own slot, so the sweep
  // is race-free and the output order is fixed regardless of --jobs.
  std::vector<std::unique_ptr<LatencyAttribution>> attrs;
  std::vector<std::unique_ptr<DecisionAudit>> audits;
  for (size_t c = 0; c < cells.size(); ++c) {
    attrs.push_back(std::make_unique<LatencyAttribution>());
    audits.push_back(std::make_unique<DecisionAudit>());
  }

  SweepRunner runner = MakeSweepRunner(options, "fig_attribution");
  const std::vector<CellOut> outs =
      runner.Run(grid, [&](const SweepCell& cell) {
        const size_t c = cell.ValueIndex("cell");
        const bool oracle = cell.Get("config") == "oracle";
        return RunOne(cell.Get("cell"), oracle,
                      oracle ? nullptr : attrs[c].get(),
                      oracle ? nullptr : audits[c].get(),
                      options.topology);
      });

  TablePrinter table(
      {"cell", "oracle ns/op", "policy ns/op", "gap ns/op", "gap %",
       "slow idle", "slow queue", "fast queue", "hint", "stall",
       "premature", "late"});
  table.SetTitle(
      "oracle-gap diagnosis (component columns: policy ns/op; identity "
      "Σ == total gated by tests)");
  for (size_t c = 0; c < cells.size(); ++c) {
    const CellOut& oracle = outs[grid.FlatIndex({c, 0})];
    const CellOut& policy = outs[grid.FlatIndex({c, 1})];
    const LatencyAttribution& attr = *attrs[c];
    const DecisionAudit& audit = *audits[c];
    const double oracle_ns = NsPerOp(oracle.duration_ns, oracle.ops);
    const double policy_ns = NsPerOp(policy.duration_ns, policy.ops);
    const double gap = policy_ns - oracle_ns;
    table.AddRow(
        {cells[c], FormatDouble(oracle_ns, 1), FormatDouble(policy_ns, 1),
         FormatDouble(gap, 1),
         FormatDouble(oracle_ns == 0.0 ? 0.0 : gap * 100.0 / oracle_ns,
                      1),
         FormatDouble(
             NsPerOp(attr.component_ns(LatencyComponent::kSlowIdle),
                     policy.ops),
             1),
         FormatDouble(
             NsPerOp(attr.component_ns(LatencyComponent::kSlowQueue),
                     policy.ops),
             1),
         FormatDouble(
             NsPerOp(attr.component_ns(LatencyComponent::kFastQueue),
                     policy.ops),
             1),
         FormatDouble(
             NsPerOp(attr.component_ns(LatencyComponent::kHintFault),
                     policy.ops),
             1),
         FormatDouble(
             NsPerOp(
                 attr.component_ns(LatencyComponent::kMigrationStall),
                 policy.ops),
             1),
         std::to_string(audit.premature_demotions()),
         std::to_string(audit.late_promotions())});
  }
  table.Print(std::cout);
  table.WriteCsv(CsvPath("fig_attribution"));

  // Full-precision companion: exact integer ns per component and the
  // complete audit counters, one object per cell. Virtual quantities
  // only — byte-identical across --jobs like the CSV.
  std::ofstream json("fig_attribution.json");
  json << "{\n";
  for (size_t c = 0; c < cells.size(); ++c) {
    const LatencyAttribution& attr = *attrs[c];
    const DecisionAudit& audit = *audits[c];
    json << (c == 0 ? "" : ",\n") << "\"" << cells[c] << "\": {\n";
    json << "  \"ops\": " << attr.ops() << ",\n";
    json << "  \"op_latency_ns\": " << attr.op_latency_ns() << ",\n";
    json << "  \"components\": {";
    for (uint32_t k = 0;
         k < static_cast<uint32_t>(LatencyComponent::kCount); ++k) {
      const LatencyComponent component = static_cast<LatencyComponent>(k);
      json << (k == 0 ? "" : ", ") << "\""
           << LatencyComponentName(component)
           << "\": " << attr.component_ns(component);
    }
    json << "},\n";
    json << "  \"endpoints\": [";
    for (uint32_t e = 0; e < attr.endpoint_count(); ++e) {
      json << (e == 0 ? "" : ", ") << "{\"slow_idle_ns\": "
           << attr.endpoint_slow_idle_ns(e)
           << ", \"slow_queue_ns\": " << attr.endpoint_slow_queue_ns(e)
           << "}";
    }
    json << "],\n";
    json << "  \"audit\": {\"premature_demotions\": "
         << audit.premature_demotions()
         << ", \"late_promotions\": " << audit.late_promotions()
         << ", \"quota_truncated_pages\": "
         << audit.quota_truncated_pages()
         << ", \"cooling_epochs\": " << audit.cooling_epochs()
         << ", \"endpoint_reorders\": " << audit.endpoint_reorders()
         << ", \"total_batches\": " << audit.total_batches() << "}\n";
    json << "}";
  }
  json << "\n}\n";

  // Per-cell narrative: the full component table and reason breakdown.
  for (size_t c = 0; c < cells.size(); ++c) {
    std::cout << "-- " << cells[c] << " --\n"
              << attrs[c]->Report() << audits[c]->Report();
  }
  std::cout << "wrote " << CsvPath("fig_attribution")
            << " and fig_attribution.json (jobs-invariant)\n";
  return 0;
}
