/**
 * @file
 * Command-line runner: simulate any (workload, policy, ratio) cell from
 * the paper's evaluation matrix without writing code.
 *
 *   ./build/examples/ht_run --workload cdn --policy HybridTier \
 *       --ratio 1:8 --accesses 5000000 [--huge] [--scale 0.1] [--seed 42]
 *
 * Multi-tenant mode shares the fast tier among several workloads and
 * reports per-tenant results (see src/multitenant/):
 *
 *   ./build/examples/ht_run --tenants cdn,bfs-k:2,silo --policy \
 *       HybridTier [--fair]
 *
 * Prints the headline metrics of the run. Lists valid workloads and
 * policies with --help.
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/table.h"
#include "core/policy_factory.h"
#include "core/simulation.h"
#include "exec/sweep.h"
#include "fault/fault_spec.h"
#include "mem/topology.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/mux_workload.h"
#include "obs/attribution.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/stage_profiler.h"
#include "obs/trace.h"
#include "workloads/factory.h"

namespace {

using namespace hybridtier;

void PrintUsage() {
  std::cout
      << "usage: ht_run [options]\n"
         "  --workload <id>   one of:";
  for (const std::string& id : AllWorkloadIds()) std::cout << ' ' << id;
  std::cout
      << "\n  --policy <name>   TPP | AutoNUMA | Memtis | ARC | TwoQ |\n"
         "                    HybridTier | HybridTier-onlyFreq |\n"
         "                    HybridTier-CBF | HybridTier-exact |\n"
         "                    AllFast | FirstTouch\n"
         "  --ratio 1:N[,1:M,...]  fast:slow capacity ratio (default\n"
         "                    1:8); a comma-separated list sweeps every\n"
         "                    ratio (single-workload mode only) and\n"
         "                    prints one summary row per cell\n"
         "  --jobs <n>        worker threads for a --ratio sweep\n"
         "                    (default: all hardware threads; results\n"
         "                    are identical for every value)\n"
         "  --accesses <n>    access budget (default 5000000)\n"
         "  --scale <f>       workload footprint scale (default: bench)\n"
         "  --seed <n>        RNG seed (default 42)\n"
         "  --huge            2 MiB tracking/migration granularity\n"
         "  --tenants <list>  multi-tenant mode: comma-separated\n"
         "                    workload ids with optional :weight and\n"
         "                    optional @arrival[-departure] residency\n"
         "                    window in virtual ns (e.g.\n"
         "                    cdn@0-3e8,bfs-k:2@1e8,silo); also accepts\n"
         "                    the synthetic \"zipf\" hot-set tenant, or\n"
         "                    a fleet generator spec\n"
         "                    (fleet:1000,zipf=0.9,churn=poisson,...)\n"
         "                    expanding to N tenants with Zipf weights/\n"
         "                    footprints under Poisson or diurnal churn\n"
         "  --fair [mode]     wrap the policy in the per-tenant\n"
         "                    fair-share quota enforcer; mode is the\n"
         "                    rebalance demand signal: marginal\n"
         "                    (ghost-MRC marginal utility, default) or\n"
         "                    density (sampled hit density)\n"
         "  --no-rebalance    fair-share: static weight quotas only\n"
         "  --topology <spec> slow-tier device layout, e.g.\n"
         "                    'cxl:(1,(2,3)),lat=124:180:180,bw=\n"
         "                    34:17:17,link=20' (see src/mem/topology.h\n"
         "                    for the grammar; default: one endpoint\n"
         "                    with the paper's emulated-CXL timings)\n"
         "  --faults <spec>   deterministic fault schedule, e.g.\n"
         "                    'faults:ep2@5s=down,ep1@2s-8s=degrade3x'\n"
         "                    or a seeded chaos schedule\n"
         "                    'faults:chaos(seed=7,endpoints=3,\n"
         "                    horizon=20ms,events=4)' (see\n"
         "                    src/fault/fault_spec.h for the grammar;\n"
         "                    endpoints are 0-based decode indices).\n"
         "                    Any schedule selects the bounded queue\n"
         "                    model\n"
         "  --watchdog        run the invariant watchdog every stats\n"
         "                    interval: recount residency/quota/\n"
         "                    attribution accounting and abort the run\n"
         "                    on any divergence (pure observation)\n"
         "  --endpoint-aware  fair-share: weigh hotness against each\n"
         "                    unit's home-endpoint cost (idle latency +\n"
         "                    queue backlog) in victim selection and\n"
         "                    fill-to-quota (needs --fair and a\n"
         "                    multi-endpoint --topology)\n"
         "  --trace-out <f>   write a Perfetto/chrome://tracing JSON\n"
         "                    trace of the run (virtual-time migration,\n"
         "                    rebalance, churn, cooling, and sampler\n"
         "                    events); byte-identical across --jobs\n"
         "                    values and engines\n"
         "  --metrics-out <f> write the metric registry's time series;\n"
         "                    a .csv suffix selects CSV (single runs),\n"
         "                    anything else JSON\n"
         "  --diagnose        attach the latency-attribution and\n"
         "                    decision-audit sinks and print the exact\n"
         "                    per-component latency decomposition plus\n"
         "                    the migration reason/mis-tiering audit\n"
         "                    after the run (see README \"Diagnosis\")\n"
         "  --profile-stages  sampled wall-clock profile of the engine\n"
         "                    stages (measurement; varies run to run)\n"
         "  --log-level <l>   debug | info | warn | error | silent\n"
         "                    (default info)\n";
}

/** Writes `metrics` to `path`; a ".csv" suffix selects CSV over JSON. */
void WriteMetricsFile(const MetricRegistry& metrics,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open metrics file '" << path << "'\n";
    std::exit(1);
  }
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv) {
    metrics.WriteCsv(out);
  } else {
    metrics.WriteJson(out);
  }
}

/** Writes one merged trace file for `emitters`, in the given order. */
void WriteTraceFile(const std::string& path,
                    std::span<const TraceEmitter* const> emitters) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open trace file '" << path << "'\n";
    std::exit(1);
  }
  WriteTraceJson(out, emitters);
}

/** Prints the post-run diagnosis blocks for the attached sinks. */
void PrintDiagnosis(bool diagnose, bool profile_stages,
                    const LatencyAttribution& attribution,
                    const DecisionAudit& audit,
                    const StageProfiler& stages) {
  if (diagnose) {
    std::cout << "latency decomposition (" << attribution.ops()
              << " ops):\n"
              << attribution.Report() << "decision audit:\n"
              << audit.Report();
  }
  if (profile_stages) {
    std::cout << "stage profile (wall ns, measurement):\n"
              << stages.Report();
  }
}

/** Prints the per-tenant table and fairness index of a tenants run. */
void PrintTenantResults(const SimulationResult& result,
                        uint64_t fast_capacity_units,
                        const FairSharePolicy* fair) {
  TablePrinter table({"tenant", "weight", "ops", "Mop/s", "p50 ns",
                      "p99 ns", "fast-fill %", "fast units",
                      "tier share %", "quota"});
  for (size_t t = 0; t < result.tenants.size(); ++t) {
    const TenantResult& tenant = result.tenants[t];
    table.AddRow(
        {tenant.name, FormatDouble(tenant.weight, 1),
         std::to_string(tenant.ops),
         FormatDouble(tenant.throughput_mops, 3),
         FormatDouble(tenant.median_latency_ns, 0),
         FormatDouble(tenant.p99_latency_ns, 0),
         FormatDouble(tenant.FastAccessFraction() * 100, 1),
         std::to_string(tenant.fast_resident_units),
         FormatDouble(static_cast<double>(tenant.fast_resident_units) *
                          100.0 /
                          static_cast<double>(fast_capacity_units),
                      1),
         fair == nullptr
             ? std::string("-")
             : std::to_string(fair->quota_units(
                   static_cast<uint32_t>(t)))});
  }
  table.SetTitle("per-tenant results");
  table.Print(std::cout);
  std::cout << "Jain fairness (tier share):     "
            << FormatDouble(result.jain_fairness, 3) << "\n"
            << "weighted Jain (share / weight): "
            << FormatDouble(result.weighted_jain_fairness, 3) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_id = "cdn";
  std::string policy_name = "HybridTier";
  std::string tenants;
  std::vector<std::string> ratio_labels = {"1:8"};
  std::vector<double> ratios = {1.0 / 8};
  double scale = -1.0;
  uint64_t accesses = 5000000;
  uint64_t seed = 42;
  unsigned jobs = 0;
  bool huge = false;
  bool fair = false;
  bool rebalance = true;
  bool workload_set = false;
  QuotaMode quota_mode = FairShareConfig{}.quota_mode;
  std::string topology;
  std::string faults;
  bool watchdog = false;
  bool endpoint_aware = false;
  std::string trace_out;
  std::string metrics_out;
  bool diagnose = false;
  bool profile_stages = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (arg == "--workload") {
      workload_id = next();
      workload_set = true;
    } else if (arg == "--policy") {
      policy_name = next();
    } else if (arg == "--ratio") {
      // One fast:slow share or a comma-separated list of them.
      const std::string value = next();
      ratio_labels.clear();
      ratios.clear();
      for (size_t start = 0; start <= value.size();) {
        const size_t end = std::min(value.find(',', start), value.size());
        ratio_labels.push_back(value.substr(start, end - start));
        ratios.push_back(ParseRatioFlag(arg, ratio_labels.back()));
        start = end + 1;
      }
    } else if (arg == "--jobs") {
      jobs = static_cast<unsigned>(ParseUintFlag(arg, next(), 1, 65536));
    } else if (arg == "--accesses") {
      accesses = ParseUintFlag(arg, next());
    } else if (arg == "--scale") {
      scale = ParseDoubleFlag(arg, next(), 0.0, 1000.0);
    } else if (arg == "--seed") {
      seed = ParseUintFlag(arg, next());
    } else if (arg == "--huge") {
      huge = true;
    } else if (arg == "--tenants") {
      tenants = next();
    } else if (arg == "--fair") {
      fair = true;
      // Optional mode operand: --fair marginal | --fair density.
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "density") == 0 ||
                           std::strcmp(argv[i + 1], "marginal") == 0)) {
        quota_mode = ParseQuotaMode(argv[++i]);
      }
    } else if (arg == "--topology") {
      topology = next();
      // Validate eagerly so a typo fails before the run starts.
      (void)ParseTopologySpec(topology);
    } else if (arg == "--faults") {
      faults = next();
      // Validate eagerly so a typo fails before the run starts.
      (void)ParseFaultSpec(faults);
    } else if (arg == "--watchdog") {
      watchdog = true;
    } else if (arg == "--endpoint-aware") {
      endpoint_aware = true;
    } else if (arg == "--no-rebalance") {
      rebalance = false;
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--diagnose") {
      diagnose = true;
    } else if (arg == "--profile-stages") {
      profile_stages = true;
    } else if (arg == "--log-level") {
      SetLogLevel(ParseLogLevel(next()));
    } else {
      std::cerr << "unknown option " << arg << "\n";
      PrintUsage();
      return 1;
    }
  }

  if (!IsPolicyName(policy_name)) {
    std::cerr << "unknown policy '" << policy_name << "'\n";
    PrintUsage();
    return 1;
  }

  if (tenants.empty() && fair) {
    std::cerr << "--fair requires --tenants\n";
    return 1;
  }
  if (!rebalance && !fair) {
    std::cerr << "--no-rebalance requires --fair\n";
    return 1;
  }
  if (endpoint_aware && !fair) {
    std::cerr << "--endpoint-aware requires --fair\n";
    return 1;
  }
  if (ratios.size() > 1 && !tenants.empty()) {
    std::cerr << "--ratio lists are single-workload sweeps; pick one "
                 "ratio for --tenants runs\n";
    return 1;
  }
  if ((diagnose || profile_stages) && ratios.size() > 1) {
    std::cerr << "--diagnose/--profile-stages report one cell; pick a "
                 "single --ratio\n";
    return 1;
  }

  if (!tenants.empty()) {
    if (workload_set) {
      std::cerr << "--workload conflicts with --tenants; list every "
                   "tenant workload in --tenants instead\n";
      return 1;
    }
    // Multi-tenant mode: share the fast tier among several workloads.
    std::vector<TenantSpec> specs = ParseTenantList(tenants);
    if (scale >= 0) {
      for (TenantSpec& spec : specs) spec.scale = scale;
    }
    auto mux = MakeMuxWorkload(specs, seed);

    std::unique_ptr<TieringPolicy> policy = MakePolicy(policy_name);
    FairSharePolicy* fair_policy = nullptr;
    if (fair) {
      FairShareConfig fair_config;
      fair_config.rebalance = rebalance;
      fair_config.quota_mode = quota_mode;
      fair_config.endpoint_aware = endpoint_aware;
      auto wrapped = std::make_unique<FairSharePolicy>(
          std::move(policy), mux->directory(), fair_config);
      fair_policy = wrapped.get();
      policy = std::move(wrapped);
    }

    SimulationConfig config;
    config.fast_tier_fraction = FastFractionFor(policy_name, ratios[0]);
    config.allocation = AllocationPolicyFor(policy_name);
    config.max_accesses = accesses;
    config.mode = huge ? PageMode::kHuge : PageMode::kRegular;
    config.seed = seed;
    config.topology = topology;
    config.faults = faults;
    config.watchdog = watchdog;

    MetricRegistry metrics;
    TraceEmitter trace(1, std::string("ht_run:") + mux->name());
    if (!metrics_out.empty()) config.telemetry.metrics = &metrics;
    if (!trace_out.empty()) config.telemetry.trace = &trace;
    LatencyAttribution attribution;
    DecisionAudit audit;
    StageProfiler stages;
    if (diagnose) {
      config.telemetry.attribution = &attribution;
      config.telemetry.audit = &audit;
    }
    if (profile_stages) config.telemetry.stages = &stages;

    Simulation simulation(config, mux.get(), policy.get());
    const SimulationResult result = simulation.Run();

    if (!trace_out.empty()) {
      // Tenant arrival/departure instants from the workload's churn
      // log, on a dedicated track — present even without --fair (the
      // fair-share policy additionally traces its own quota view).
      const TraceEmitter::TrackId churn_track = trace.Track("churn");
      for (const TenantChurnEvent& event : mux->churn_events()) {
        trace.Instant(
            churn_track, event.arrival ? "arrival" : "departure",
            event.time_ns,
            {{"tenant", static_cast<double>(event.tenant)}});
      }
      const TraceEmitter* emitters[] = {&trace};
      WriteTraceFile(trace_out, emitters);
    }
    if (!metrics_out.empty()) WriteMetricsFile(metrics, metrics_out);

    std::cout << "workload:          " << mux->name() << " ("
              << mux->footprint_pages() << " pages)\n"
              << "policy:            " << policy->name() << "\n";
    if (fair) {
      std::cout << "fair mode:         "
                << (rebalance ? QuotaModeName(quota_mode) : "static")
                << " + sampler budget\n";
    }
    std::cout << "fast tier:         " << simulation.fast_capacity_units()
              << " / " << simulation.footprint_units() << " units\n"
              << "accesses:          " << result.accesses << " in "
              << FormatTime(result.duration_ns) << " virtual\n"
              << "throughput:        " << result.throughput_mops
              << " Mop/s\n";
    PrintTenantResults(result, simulation.fast_capacity_units(),
                       fair_policy);
    if (!mux->churn_events().empty()) {
      std::cout << "churn events:\n";
      for (const TenantChurnEvent& event : mux->churn_events()) {
        std::cout << "  " << FormatTime(event.time_ns) << "  "
                  << (event.arrival ? "arrival   " : "departure ")
                  << mux->tenant_name(event.tenant) << "\n";
      }
    }
    if (!faults.empty()) {
      std::cout << "fault layer:       " << result.fault.transitions
                << " transitions, " << result.fault.stalled_accesses
                << " stalled accesses, " << result.fault.evacuated_pages
                << " evacuated / " << result.fault.spilled_pages
                << " spilled pages\n";
    }
    PrintDiagnosis(diagnose, profile_stages, attribution, audit, stages);
    return 0;
  }

  if (!IsWorkloadId(workload_id)) {
    std::cerr << "unknown workload '" << workload_id << "'\n";
    PrintUsage();
    return 1;
  }
  if (scale < 0) scale = DefaultWorkloadScale(workload_id);

  if (ratios.size() > 1) {
    // Ratio sweep: one independent cell per ratio, executed through the
    // sweep runner (parallel under --jobs, output identical for any
    // thread count). Every cell rebuilds its own workload + policy.
    SweepOptions sweep_options;
    sweep_options.jobs = jobs;
    sweep_options.name = "ht_run";
    // Every cell pins --seed (not cell.seed()): the sweep compares the
    // same workload stream across ratios, like the paired bench drivers.
    SweepGrid grid;
    grid.AddAxis("ratio", ratio_labels);
    SweepRunner runner(sweep_options);
    // Per-cell telemetry is preallocated and indexed by flat cell
    // index: each cell writes only its own slot, and the merged files
    // are written in index order — so trace/metrics bytes are
    // jobs-invariant like the result table itself.
    std::vector<std::unique_ptr<TraceEmitter>> cell_traces(
        ratio_labels.size());
    std::vector<std::unique_ptr<MetricRegistry>> cell_metrics(
        ratio_labels.size());
    const std::vector<SimulationResult> results =
        runner.Run(grid, [&](const SweepCell& cell) {
          auto cell_workload = MakeWorkload(workload_id, scale, seed);
          auto cell_policy = MakePolicy(policy_name);
          SimulationConfig config;
          config.fast_tier_fraction = FastFractionFor(
              policy_name, ratios[cell.ValueIndex("ratio")]);
          config.allocation = AllocationPolicyFor(policy_name);
          config.max_accesses = accesses;
          config.mode = huge ? PageMode::kHuge : PageMode::kRegular;
          config.seed = seed;
          config.topology = topology;
          config.faults = faults;
          config.watchdog = watchdog;
          if (!trace_out.empty()) {
            cell_traces[cell.index()] = std::make_unique<TraceEmitter>(
                static_cast<uint32_t>(cell.index() + 1),
                "ratio=" + ratio_labels[cell.ValueIndex("ratio")]);
            config.telemetry.trace = cell_traces[cell.index()].get();
          }
          if (!metrics_out.empty()) {
            cell_metrics[cell.index()] =
                std::make_unique<MetricRegistry>();
            config.telemetry.metrics = cell_metrics[cell.index()].get();
          }
          return RunSimulation(config, cell_workload.get(),
                               cell_policy.get());
        });

    if (!trace_out.empty()) {
      std::vector<const TraceEmitter*> emitters;
      for (const auto& trace : cell_traces) emitters.push_back(trace.get());
      WriteTraceFile(trace_out, emitters);
    }
    if (!metrics_out.empty()) {
      // One JSON object per ratio cell, keyed by label (always JSON:
      // a multi-cell sweep has no single CSV shape).
      std::ofstream out(metrics_out);
      if (!out) {
        std::cerr << "cannot open metrics file '" << metrics_out << "'\n";
        return 1;
      }
      out << "{\n";
      for (size_t r = 0; r < cell_metrics.size(); ++r) {
        out << (r == 0 ? "" : ",\n") << "\"" << ratio_labels[r] << "\": ";
        cell_metrics[r]->WriteJsonObject(out);
      }
      out << "\n}\n";
    }

    std::cout << "workload:          " << workload_id << " (scale " << scale
              << ")\npolicy:            " << policy_name << "\n";
    TablePrinter table({"ratio", "p50 ns", "p99 ns", "Mop/s",
                        "fast-fill %", "promoted", "demoted"});
    table.SetTitle("per-ratio results");
    for (size_t r = 0; r < results.size(); ++r) {
      const SimulationResult& result = results[r];
      table.AddRow({ratio_labels[r],
                    FormatDouble(result.median_latency_ns, 0),
                    FormatDouble(result.p99_latency_ns, 0),
                    FormatDouble(result.throughput_mops, 3),
                    FormatDouble(result.FastAccessFraction() * 100, 1),
                    std::to_string(result.migration.promoted_pages),
                    std::to_string(result.migration.demoted_pages)});
    }
    table.Print(std::cout);
    return 0;
  }

  auto workload = MakeWorkload(workload_id, scale, seed);
  auto policy = MakePolicy(policy_name);

  SimulationConfig config;
  config.fast_tier_fraction = FastFractionFor(policy_name, ratios[0]);
  config.allocation = AllocationPolicyFor(policy_name);
  config.max_accesses = accesses;
  config.mode = huge ? PageMode::kHuge : PageMode::kRegular;
  config.seed = seed;
  config.topology = topology;
  config.faults = faults;
  config.watchdog = watchdog;

  MetricRegistry metrics;
  TraceEmitter trace(1, std::string("ht_run:") + workload->name());
  if (!metrics_out.empty()) config.telemetry.metrics = &metrics;
  if (!trace_out.empty()) config.telemetry.trace = &trace;
  LatencyAttribution attribution;
  DecisionAudit audit;
  StageProfiler stages;
  if (diagnose) {
    config.telemetry.attribution = &attribution;
    config.telemetry.audit = &audit;
  }
  if (profile_stages) config.telemetry.stages = &stages;

  Simulation simulation(config, workload.get(), policy.get());
  const SimulationResult result = simulation.Run();

  if (!trace_out.empty()) {
    const TraceEmitter* emitters[] = {&trace};
    WriteTraceFile(trace_out, emitters);
  }
  if (!metrics_out.empty()) WriteMetricsFile(metrics, metrics_out);

  std::cout << "workload:          " << workload->name() << " ("
            << workload->footprint_pages() << " pages, scale " << scale
            << ")\n"
            << "policy:            " << policy->name() << "\n"
            << "fast tier:         " << simulation.fast_capacity_units()
            << " / " << simulation.footprint_units() << " units\n"
            << "accesses:          " << result.accesses << " in "
            << FormatTime(result.duration_ns) << " virtual\n"
            << "median op latency: " << result.median_latency_ns << " ns\n"
            << "p99 op latency:    " << result.p99_latency_ns << " ns\n"
            << "throughput:        " << result.throughput_mops
            << " Mop/s\n"
            << "fast-fill rate:    "
            << FormatDouble(result.FastAccessFraction() * 100, 1) << " %\n"
            << "promoted/demoted:  " << result.migration.promoted_pages
            << " / " << result.migration.demoted_pages << " pages\n"
            << "metadata:          " << FormatBytes(result.metadata_bytes)
            << "\n"
            << "tiering LLC share: "
            << FormatDouble(result.TieringLlcMissShare() * 100, 1)
            << " % of misses\n";
  if (!faults.empty()) {
    std::cout << "fault layer:       " << result.fault.transitions
              << " transitions, " << result.fault.stalled_accesses
              << " stalled accesses, " << result.fault.evacuated_pages
              << " evacuated / " << result.fault.spilled_pages
              << " spilled pages (" << result.fault.evac_retries
              << " backoff retries)\n";
  }
  PrintDiagnosis(diagnose, profile_stages, attribution, audit, stages);
  return 0;
}
