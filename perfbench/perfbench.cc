/**
 * @file
 * The repository benchmark: runs one named workload cell of the
 * simulator in one process on one thread, checks its outputs, and
 * prints its metrics, ending with one JSON line.
 *
 *   perfbench --workload cdn-hybridtier --seed 1 --seconds 25 --trace 0
 *
 * `--trace 0` reports the end-to-end metrics: host throughput of
 * Simulation::Run (the fastest of many short timed reps, after an
 * untimed warm-up rep), set-up time (the fastest of several samples),
 * peak RSS, and the modeled metrics, which are exact for a given seed.
 * `--trace 1` reports per-layer metrics measured from
 * outside the program: timing decorators around the public seams
 * (timed_seams.h), timed factory and constructor calls, and the sinks
 * the program already has (wall-mode StageProfiler, LatencyAttribution,
 * DecisionAudit, InvariantWatchdog). Traced and untraced reps alternate
 * in the traced invocation, which gives the tracing overhead and checks
 * that tracing leaves the simulated digest unchanged.
 *
 * Exit status is nonzero when any correctness check fails. NOTES.md
 * explains the workloads and which layer metric moves which end-to-end
 * metric.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/policy_factory.h"
#include "core/simulation.h"
#include "fault/fault_spec.h"
#include "fault/watchdog.h"
#include "mem/topology.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/fleet.h"
#include "multitenant/mux_workload.h"
#include "obs/attribution.h"
#include "obs/audit.h"
#include "obs/stage_profiler.h"
#include "timed_seams.h"
#include "workloads/factory.h"

namespace {

using namespace hybridtier;
using perfbench::CountingWorkload;
using perfbench::SeamRecorder;
using perfbench::TimedPolicy;
using Clock = std::chrono::steady_clock;

constexpr char kUnvalidated[] =
    "modeled timings are unvalidated against hardware; the repo holds no "
    "reference measurements";

/** One named benchmark workload: the cell it simulates. */
struct WorkloadDef {
  const char* name;
  const char* workload;  //!< Factory id, or a fleet spec.
  const char* policy;    //!< Base policy (fleet cells wrap it in FairShare).
  double fast_fraction;  //!< Fast-tier share of the footprint.
  const char* topology;  //!< "" = the default single endpoint.
  const char* faults;    //!< "" = no fault schedule.
  /** Virtual time of the fault (0 = none); must fall after warm-up. */
  TimeNs fault_at_ns;
  /** Attribution and audit attached in every rep, as when a failover
   *  run is diagnosed (modeling and traced reps attach them everywhere). */
  bool diagnosis_sinks;
  uint64_t accesses;         //!< Simulated accesses per modeling rep.
  uint64_t warmup_accesses;  //!< Modeled statistics start after these.
  /**
   * Accesses per untimed-invocation timed rep, warm-up scaled alike.
   * Shorter than a modeling rep so that a window holds many reps and the
   * fastest of them can fall into a brief quiet stretch of the host.
   */
  uint64_t timed_accesses;
  /**
   * Workload instances (seeds derived from the benchmark seed) whose
   * modeled metrics are pooled. One cdn instance's modeled metrics move
   * 5-12 % between seeds (which objects are hot, how large they are),
   * and its p50 jumps between latency clusters ~30 ns apart; pooling
   * eight keeps p50 within 1 % and the rest within 4 %. bfs and the
   * 200-tenant fleet already average over many sources and tenants and
   * move under 3 %.
   */
  uint32_t instances;
};

// Rep sizes: a cdn or bfs modeling rep takes 0.4-1 s of host time, and
// its timed reps a quarter of that, so a 25 s window holds well over a
// hundred of them. The fleet cell's host time goes to the drain after
// the fault, so its timed rep keeps the fault and two fifths of the
// modeling rep (~0.6 s). cdn and bfs warm up for a fifth of the rep. The
// fleet cell warms up for 15 % (~33 ms virtual) and loses endpoint 2 at
// 50 ms (near access 175 k), so 80 % of the modeling rep comes after
// the fault and its post-warm-up fast-fill share (~0.47) stays
// clear of 0.5, where the op-latency median would jump between the
// all-fast and the first slow latency cluster.
const WorkloadDef kWorkloads[] = {
    {"cdn-hybridtier", "cdn", "HybridTier", 1.0 / 8, "", "", 0, false,
     10000000, 2000000, 2500000, 8},
    {"bfs-tpp", "bfs-k", "TPP", 1.0 / 8, "", "", 0, false, 8000000,
     1600000, 2000000, 1},
    {"fleet-failover",
     "fleet:200,zipf=0.9,fp=1024,fpskew=0.3,churn=none,seed=7",
     "HybridTier", 2.0 / 5, "cxl:(1,(2,3)),lat=124:250:250,bw=34:8:8,link=10",
     "faults:ep2@50ms=down", 50 * kMillisecond, true, 1000000, 150000,
     400000, 1},
};

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Best(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/** Seed of stream `stream` derived from the benchmark seed (SplitMix64). */
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/** How far one rep simulates. */
struct Budget {
  uint64_t accesses;
  uint64_t warmup_accesses;
};

Budget ModelingBudget(const WorkloadDef& def) {
  return {def.accesses, def.warmup_accesses};
}

Budget TimedBudget(const WorkloadDef& def) {
  return {def.timed_accesses,
          def.warmup_accesses * def.timed_accesses / def.accesses};
}

/** Wall time of each part of one cell's construction. */
struct SetupTimes {
  double workload_s = 0.0;  //!< MakeWorkload / MakeMuxWorkload.
  double policy_s = 0.0;    //!< MakePolicy (+ FairSharePolicy).
  double sim_s = 0.0;       //!< Simulation constructor.
  double Total() const { return workload_s + policy_s + sim_s; }
};

/** How a cell is observed. */
enum class Mode {
  kPlain,     //!< As the program runs it, undecorated: the timed reps.
  kModeling,  //!< Untimed: exact op latencies plus attribution/audit.
  kTraced,    //!< Decorators, every sink, and the in-run watchdog.
};

/**
 * One constructed simulation. Heap-allocated and never moved: the
 * simulation holds pointers into the sinks and decorators.
 */
struct Cell {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<TieringPolicy> policy;
  SeamRecorder seams;
  std::unique_ptr<CountingWorkload> counting;  //!< Not in plain cells.
  std::unique_ptr<TimedPolicy> timed_policy;  //!< Traced cells only.
  perfbench::OpLatencies latencies;  //!< Filled by modeling cells only.
  LatencyAttribution attribution;
  DecisionAudit audit;
  StageProfiler stages;  //!< Wall mode, one op in 64.
  Mode mode = Mode::kPlain;
  Budget budget{};
  bool attributed = false;
  std::unique_ptr<Simulation> sim;
  SetupTimes setup;
};

std::unique_ptr<Cell> BuildCell(const WorkloadDef& def, uint64_t seed,
                                Mode mode, Budget budget) {
  auto cell = std::make_unique<Cell>();
  cell->mode = mode;
  cell->budget = budget;
  const bool traced = mode == Mode::kTraced;
  const bool fleet = IsFleetSpec(def.workload);

  Clock::time_point t = Clock::now();
  MuxWorkload* mux = nullptr;
  if (fleet) {
    auto built =
        MakeMuxWorkload(MakeFleetSpecs(ParseFleetSpec(def.workload)), seed);
    mux = built.get();
    cell->workload = std::move(built);
  } else {
    cell->workload = MakeWorkload(
        def.workload, DefaultWorkloadScale(def.workload), seed);
  }
  cell->setup.workload_s = SecondsSince(t);

  t = Clock::now();
  cell->policy = MakePolicy(def.policy);
  if (fleet) {
    FairShareConfig fair;
    fair.quota_mode = QuotaMode::kMarginal;
    fair.endpoint_aware = true;
    cell->policy = std::make_unique<FairSharePolicy>(
        std::move(cell->policy), mux->directory(), fair);
  }
  cell->setup.policy_s = SecondsSince(t);

  SimulationConfig config;
  config.fast_tier_fraction = FastFractionFor(def.policy, def.fast_fraction);
  config.allocation = AllocationPolicyFor(def.policy);
  config.max_accesses = budget.accesses;
  config.warmup_accesses = budget.warmup_accesses;
  config.seed = seed;
  config.topology = def.topology;
  config.faults = def.faults;
  cell->attributed = def.diagnosis_sinks || mode != Mode::kPlain;
  if (cell->attributed) {
    config.telemetry.attribution = &cell->attribution;
    config.telemetry.audit = &cell->audit;
  }
  TieringPolicy* policy = cell->policy.get();
  if (traced) {
    config.telemetry.stages = &cell->stages;
    config.watchdog = true;
    cell->timed_policy = perfbench::WrapPolicy(policy, &cell->seams);
    policy = cell->timed_policy.get();
  }
  Workload* workload = cell->workload.get();
  if (mode != Mode::kPlain) {
    cell->counting = perfbench::WrapWorkload(
        workload, budget.warmup_accesses, traced ? &cell->seams : nullptr,
        mode == Mode::kModeling ? &cell->latencies : nullptr);
    workload = cell->counting.get();
  }

  t = Clock::now();
  cell->sim = std::make_unique<Simulation>(config, workload, policy);
  cell->setup.sim_s = SecondsSince(t);
  return cell;
}

/** One executed rep. */
struct Rep {
  SimulationResult result;
  double run_s = 0.0;  //!< Host seconds inside Simulation::Run.
  uint64_t warmup_ops = 0;  //!< Counted in modeling and traced reps only.

  double Maccs() const {
    return static_cast<double>(result.accesses) / run_s / 1e6;
  }
};

Rep RunRep(Cell& cell) {
  Rep rep;
  const Clock::time_point t = Clock::now();
  rep.result = cell.sim->Run();
  rep.run_s = SecondsSince(t);
  if (cell.counting != nullptr) {
    cell.counting->Finish(rep.result.duration_ns);
    rep.warmup_ops = cell.counting->warmup_ops();
  }
  return rep;
}

/** FNV-1a over the simulated outcome of a run. */
uint64_t Digest(const SimulationResult& r) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  const auto mix_double = [&mix](double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  };
  mix(r.ops);
  mix(r.accesses);
  mix(r.duration_ns);
  mix(r.warmup_end_ns);
  mix_double(r.median_latency_ns);
  mix_double(r.p99_latency_ns);
  mix_double(r.mean_latency_ns);
  mix(r.fast_mem_accesses);
  mix(r.slow_mem_accesses);
  mix(r.hint_faults);
  const MigrationStats& m = r.migration;
  for (const uint64_t v :
       {m.promoted_pages, m.demoted_pages, m.promotion_batches,
        m.demotion_batches, m.failed_promotions, m.failed_demotions,
        m.migration_time_ns}) {
    mix(v);
  }
  const FaultStats& f = r.fault;
  for (const uint64_t v :
       {f.transitions, f.endpoints_downed, f.endpoints_recovered,
        f.stalled_accesses, f.evacuated_pages, f.spilled_pages,
        f.evac_retries}) {
    mix(v);
  }
  for (const uint64_t v :
       {r.l1_app_misses, r.l1_tiering_misses, r.llc_app_misses,
        r.llc_tiering_misses, static_cast<uint64_t>(r.metadata_bytes),
        r.samples_taken, r.samples_dropped, r.stats_tenant_visits}) {
    mix(v);
  }
  mix_double(r.weighted_jain_fairness);
  // Per-tenant results: a decorator that dropped TenantTagSource or
  // TenantQuotaStatsSource would change these and nothing else.
  for (const TenantResult& t : r.tenants) {
    for (const uint64_t v :
         {t.ops, t.accesses, t.fast_mem_accesses, t.slow_mem_accesses,
          t.fast_resident_units, t.quota_units, t.shadow_samples,
          t.sample_period}) {
      mix(v);
    }
    mix_double(t.marginal_utility);
    mix_double(t.median_latency_ns);
    mix_double(t.p99_latency_ns);
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/** Collects failed correctness checks. */
struct Checks {
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/** True when `inner` and `outer` both or neither implement `View`. */
template <typename View, typename T>
bool SameView(const T* inner, const T* outer) {
  return (dynamic_cast<const View*>(inner) != nullptr) ==
         (dynamic_cast<const View*>(outer) != nullptr);
}

/**
 * Checks one rep against the reference digest and the invariants the
 * program promises: the run reached its budget, the fault fired after
 * warm-up, the attribution components sum to the op latency to the
 * nanosecond, the op latencies rebuilt from the clock agree with the
 * run, and in traced reps the decorators forward every view and the
 * dispatch mode, and the invariant watchdog passes on the final state.
 */
void CheckRep(const WorkloadDef& def, const Cell& cell, const Rep& rep,
              uint64_t reference, const std::string& label, Checks* checks,
              uint64_t* watchdog_checks) {
  const SimulationResult& r = rep.result;
  checks->Expect(r.accesses >= cell.budget.accesses,
                 label + ": ran " + std::to_string(r.accesses) + " of " +
                     std::to_string(cell.budget.accesses) + " accesses");
  checks->Expect(Digest(r) == reference,
                 label + ": digest " + Hex(Digest(r)) + " != reference " +
                     Hex(reference));
  checks->Expect(r.median_latency_ns > 0 &&
                     r.median_latency_ns <= r.p99_latency_ns,
                 label + ": op latency percentiles out of order");
  if (def.fault_at_ns != 0) {
    checks->Expect(r.fault.endpoints_downed == 1 &&
                       r.warmup_end_ns < def.fault_at_ns &&
                       def.fault_at_ns < r.duration_ns,
                   label + ": the fault did not fire once after warm-up");
  }
  if (cell.attributed) {
    const LatencyAttribution& a = cell.attribution;
    checks->Expect(a.ComponentSumNs() == a.op_latency_ns() &&
                       a.ops() == r.ops,
                   label + ": attribution components sum to " +
                       std::to_string(a.ComponentSumNs()) + " ns, op " +
                       "latency to " + std::to_string(a.op_latency_ns()));
    for (uint32_t t = 0; t < a.tenant_count(); ++t) {
      checks->Expect(a.TenantComponentSumNs(t) == a.tenant_op_latency_ns(t),
                     label + ": attribution identity fails for tenant " +
                         std::to_string(t));
    }
  }
  if (cell.mode == Mode::kModeling) {
    const perfbench::OpLatencies& l = cell.latencies;
    checks->Expect(l.ops == r.ops &&
                       l.PostWarmupOps() == r.ops - rep.warmup_ops &&
                       l.total_ns == cell.attribution.op_latency_ns(),
                   label + ": op latencies rebuilt from the clock (" +
                       std::to_string(l.ops) + " ops, " +
                       std::to_string(l.total_ns) +
                       " ns) disagree with the run (" +
                       std::to_string(r.ops) + " ops, " +
                       std::to_string(cell.attribution.op_latency_ns()) +
                       " ns attributed)");
  }
  if (cell.mode == Mode::kTraced) {
    // The decorators expose exactly the optional views of what they
    // wrap, and the policy sees the dispatch its interest asks for.
    const TieringPolicy* inner = cell.policy.get();
    const TieringPolicy* outer = cell.timed_policy.get();
    checks->Expect(
        SameView<InvariantSource>(inner, outer) &&
            SameView<TenantQuotaStatsSource>(inner, outer) &&
            SameView<TenantTagSource, Workload>(cell.workload.get(),
                                                cell.counting.get()),
        label + ": a decorator hides or adds an optional interface");
    const perfbench::SeamRecorder& s = cell.seams;
    const AccessInterest interest = inner->access_interest();
    checks->Expect(
        outer->access_interest() == interest &&
            s.on_access.calls ==
                (interest == AccessInterest::kInline ? r.accesses : 0) &&
            (s.on_batch.calls == 0 || interest == AccessInterest::kBatched),
        label + ": policy dispatch does not match its access interest");
    // The in-run watchdog (config.watchdog) aborts the process on a
    // violation; this extra pass over the final state gives the count.
    InvariantWatchdog watchdog(&cell.sim->memory(), &cell.attribution);
    if (const auto* source = dynamic_cast<const InvariantSource*>(inner)) {
      watchdog.RegisterSource("policy", source);
    }
    checks->Expect(watchdog.RunChecks(r.duration_ns),
                   label + ": invariant watchdog: " + watchdog.last_error());
    *watchdog_checks += watchdog.checks_run();
  }
}

/** One named metric value with its unit. */
struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/**
 * Host-independent metrics, pooled over the workload instances' modeling
 * reps: percentiles over all their post-warm-up ops, ratios of summed
 * counts, and means of per-instance values.
 */
std::vector<Metric> ModeledMetrics(const std::vector<Rep>& reps,
                                   const perfbench::OpLatencies& latencies) {
  double steady_ops = 0, steady_ns = 0, fast = 0, slow = 0, llc_app = 0,
         llc_tiering = 0, metadata = 0, jain = 0, stalled = 0, accesses = 0;
  for (const Rep& rep : reps) {
    const SimulationResult& r = rep.result;
    steady_ops += static_cast<double>(r.ops - rep.warmup_ops);
    steady_ns += static_cast<double>(r.SteadyDurationNs());
    fast += static_cast<double>(r.fast_mem_accesses);
    slow += static_cast<double>(r.slow_mem_accesses);
    llc_app += static_cast<double>(r.llc_app_misses);
    llc_tiering += static_cast<double>(r.llc_tiering_misses);
    metadata += static_cast<double>(r.metadata_bytes);
    jain += r.weighted_jain_fairness;
    stalled += static_cast<double>(r.fault.stalled_accesses);
    accesses += static_cast<double>(r.accesses);
  }
  const double n = static_cast<double>(reps.size());
  return {
      {"op_p50_ns", "ns", latencies.Quantile(0.5)},
      {"op_p99_ns", "ns", latencies.Quantile(0.99)},
      {"modeled_mops", "ops/us", Ratio(steady_ops * 1000.0, steady_ns)},
      {"fast_fill_frac", "fraction", Ratio(fast, fast + slow)},
      {"tiering_llc_miss_share", "fraction",
       Ratio(llc_tiering, llc_app + llc_tiering)},
      {"metadata_kb", "KiB", metadata / n / 1024.0},
      {"weighted_jain", "index", jain / n},
      {"fault_free_access_frac", "fraction", 1.0 - Ratio(stalled, accesses)},
  };
}

/** Per-layer metrics of one traced rep. */
std::vector<Metric> LayerMetrics(const Cell& cell, const Rep& rep) {
  const SimulationResult& r = rep.result;
  const SeamRecorder& s = cell.seams;
  const StageProfiler& p = cell.stages;
  const LatencyAttribution& a = cell.attribution;
  const DecisionAudit& audit = cell.audit;
  const double accesses = static_cast<double>(r.accesses);
  const double run_ns = rep.run_s * 1e9;

  std::vector<Metric> m;
  m.push_back({"workloads.next_op_ns", "ns", s.next_op.MeanNs()});
  for (uint32_t st = 0; st < static_cast<uint32_t>(Stage::kCount); ++st) {
    const Stage stage = static_cast<Stage>(st);
    m.push_back({std::string("core.stage_") + StageName(stage) + "_ns",
                 "ns/access", p.NsPerAccess(stage)});
  }
  m.push_back({"core.stage_other_ns", "ns/access",
               Ratio(static_cast<double>(p.OtherNs()),
                     static_cast<double>(p.sampled_accesses()))});
  m.push_back({"core.run_self_ns", "ns/access",
               Ratio(run_ns - static_cast<double>(s.outer_ns), accesses)});

  const std::pair<const char*, const perfbench::SeamTotals*> hooks[] = {
      {"on_access", &s.on_access},
      {"on_batch", &s.on_batch},
      {"on_sample", &s.on_sample},
      {"tick", &s.tick}};
  for (const auto& [hook, totals] : hooks) {
    m.push_back({std::string("policies.") + hook + "_calls", "count",
                 static_cast<double>(totals->calls)});
    m.push_back({std::string("policies.") + hook + "_ns", "ns/call",
                 totals->MeanNs()});
  }

  const uint64_t batches = s.promote.calls + s.demote.calls;
  m.push_back({"mem.migration.promote_calls", "count",
               static_cast<double>(s.promote.calls)});
  m.push_back({"mem.migration.demote_calls", "count",
               static_cast<double>(s.demote.calls)});
  m.push_back({"mem.migration.pages_requested", "count",
               static_cast<double>(s.pages_requested)});
  m.push_back({"mem.migration.pages_moved", "count",
               static_cast<double>(s.pages_moved)});
  m.push_back({"mem.migration.useful_frac", "fraction",
               Ratio(static_cast<double>(s.pages_moved),
                     static_cast<double>(s.pages_requested))});
  m.push_back({"mem.migration.failed_promotions", "count",
               static_cast<double>(s.failed_promotions)});
  m.push_back({"mem.migration.failed_demotions", "count",
               static_cast<double>(s.failed_demotions)});
  m.push_back({"mem.migration.batch_ns", "ns/call",
               Ratio(static_cast<double>(s.promote.ns + s.demote.ns),
                     static_cast<double>(batches))});
  m.push_back({"mem.migration.modeled_ms", "ms",
               static_cast<double>(s.modeled_migration_ns) / 1e6});

  for (uint32_t c = 0; c < static_cast<uint32_t>(LatencyComponent::kCount);
       ++c) {
    const LatencyComponent component = static_cast<LatencyComponent>(c);
    m.push_back({std::string("attr.") + LatencyComponentName(component) +
                     "_ns",
                 "ns/op",
                 Ratio(static_cast<double>(a.component_ns(component)),
                       static_cast<double>(a.ops()))});
  }

  m.push_back({"cache.l1_tiering_miss_share", "fraction",
               r.TieringL1MissShare()});
  m.push_back({"cache.llc_app_misses", "count",
               static_cast<double>(r.llc_app_misses)});
  m.push_back({"cache.llc_tiering_misses", "count",
               static_cast<double>(r.llc_tiering_misses)});

  m.push_back({"sampling.samples_taken", "count",
               static_cast<double>(r.samples_taken)});
  m.push_back({"sampling.samples_dropped", "count",
               static_cast<double>(r.samples_dropped)});
  m.push_back({"sampling.drop_frac", "fraction",
               Ratio(static_cast<double>(r.samples_dropped),
                     static_cast<double>(r.samples_taken))});

  uint64_t demoted = 0;
  for (uint32_t reason = 0;
       reason < static_cast<uint32_t>(MigrationReason::kCount); ++reason) {
    demoted += audit.demoted_pages(static_cast<MigrationReason>(reason));
  }
  m.push_back({"obs.audit.demoted_pages", "count",
               static_cast<double>(demoted)});
  m.push_back({"obs.audit.premature_demotion_frac", "fraction",
               Ratio(static_cast<double>(audit.premature_demotions()),
                     static_cast<double>(demoted))});
  m.push_back({"obs.audit.late_promotions", "count",
               static_cast<double>(audit.late_promotions())});

  const FaultStats& f = r.fault;
  m.push_back({"fault.transitions", "count",
               static_cast<double>(f.transitions)});
  m.push_back({"fault.stalled_accesses", "count",
               static_cast<double>(f.stalled_accesses)});
  m.push_back({"fault.failed_access_frac", "fraction",
               Ratio(static_cast<double>(f.stalled_accesses), accesses)});
  m.push_back({"fault.evacuated_pages", "count",
               static_cast<double>(f.evacuated_pages)});
  m.push_back({"fault.spilled_pages", "count",
               static_cast<double>(f.spilled_pages)});
  m.push_back({"fault.evac_batches", "count",
               static_cast<double>(
                   audit.batches(MigrationReason::kFaultEvacuation))});
  m.push_back({"fault.evac_retries", "count",
               static_cast<double>(f.evac_retries)});

  m.push_back({"multitenant.stats_tenant_visits", "count",
               static_cast<double>(r.stats_tenant_visits)});
  return m;
}

std::string FormatValue(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

void PrintMetric(const Metric& m) {
  std::cout << "  " << m.name << " = " << FormatValue(m.value) << " "
            << m.unit << "\n";
}

/** The one-line JSON result (the last line of stdout). */
void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << FormatValue(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void PrintProvenance(const WorkloadDef& def, uint64_t seed, bool traced) {
  std::cout << "perfbench: workload " << def.name << ", seed " << seed
            << ", " << (traced ? "traced" : "untraced") << "\n"
            << "  compiler " << PERFBENCH_COMPILER << ", build type "
            << PERFBENCH_BUILD_TYPE << "\n"
            << "  cell: workload " << def.workload << ", policy "
            << (IsFleetSpec(def.workload)
                    ? std::string("FairShare(") + def.policy +
                          ", marginal, endpoint_aware)"
                    : std::string(def.policy))
            << ", fast fraction " << def.fast_fraction << ", "
            << def.accesses << " accesses per rep, warm-up "
            << def.warmup_accesses << "\n"
            << "  topology "
            << FormatTopologySpec(def.topology[0] == '\0'
                                      ? DefaultTopology()
                                      : ParseTopologySpec(def.topology))
            << "\n  faults "
            << (def.faults[0] == '\0'
                    ? std::string("none")
                    : FormatFaultSpec(ParseFaultSpec(def.faults)))
            << "\n  fleet "
            << (IsFleetSpec(def.workload)
                    ? FormatFleetSpec(ParseFleetSpec(def.workload))
                    : std::string("none"))
            << "\n  " << kUnvalidated << "\n";
}

/**
 * One cold set-up sample: constructions with fresh seeds derived from
 * `seed` (the graph factory caches a generated graph per seed, so only a
 * new seed pays for generation again), repeated until they span at
 * least 20 ms, averaged so millisecond set-ups are not measured as
 * clock jitter. `*build` numbers the constructions across samples.
 */
SetupTimes SetupSample(const WorkloadDef& def, uint64_t seed,
                       uint64_t* build) {
  constexpr double kSampleS = 0.02;
  SetupTimes sum;
  uint64_t builds = 0;
  while (sum.Total() < kSampleS) {
    const SetupTimes t =
        BuildCell(def, DeriveSeed(seed, 1000 + ++*build), Mode::kPlain,
                  ModelingBudget(def))
            ->setup;
    sum.workload_s += t.workload_s;
    sum.policy_s += t.policy_s;
    sum.sim_s += t.sim_s;
    ++builds;
  }
  const double n = static_cast<double>(builds);
  return {sum.workload_s / n, sum.policy_s / n, sum.sim_s / n};
}

double FastestOf(const std::vector<SetupTimes>& samples,
                 double (*field)(const SetupTimes&)) {
  double fastest = field(samples.front());
  for (const SetupTimes& s : samples) fastest = std::min(fastest, field(s));
  return fastest;
}

/**
 * Peak resident set of this process image in MiB (VmHWM), or 0 when
 * /proc/self/status has no VmHWM line. getrusage's ru_maxrss is no
 * substitute: it survives execve, so it reports the launching
 * interpreter's footprint when that was larger.
 */
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

int Usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n  workloads:";
  for (const WorkloadDef& def : kWorkloads) std::cerr << " " << def.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 25.0;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload_name = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        traced = std::stoi(value) != 0;
      } else {
        return Usage();
      }
    } catch (const std::exception&) {
      return Usage();
    }
  }
  const WorkloadDef* def = FindWorkload(workload_name);
  if (def == nullptr || !(seconds > 0.0)) return Usage();
  SetLogLevel(LogLevel::kError);

  PrintProvenance(*def, seed, traced);
  Checks checks;
  uint64_t watchdog_checks = 0;

  // Phase 0: one untimed plain rep of the first instance, the host
  // warm-up (the first rep in a process runs about 20 % slow). Peak RSS
  // is read right after it, before any rep attaches the benchmark's own
  // instrumentation and before any set-up sample leaves a graph cached.
  // It is read after this fixed amount of work because the fleet cell's
  // RSS keeps growing with every rep (27 MiB after two, 44 MiB after
  // thirteen), so a read at the end would count the reps the host's
  // speed allowed.
  uint64_t warmup_digest = 0;
  SetupTimes first_setup;  // The process's first, coldest construction.
  {
    std::unique_ptr<Cell> cell =
        BuildCell(*def, seed, Mode::kPlain, ModelingBudget(*def));
    first_setup = cell->setup;
    const Rep rep = RunRep(*cell);
    warmup_digest = Digest(rep.result);
    CheckRep(*def, *cell, rep, warmup_digest, "warm-up rep", &checks,
             &watchdog_checks);
  }
  const double peak_rss_mb = PeakRssMb();
  checks.Expect(peak_rss_mb > 0.0, "no VmHWM line in /proc/self/status");

  // Phase 1: one untimed modeling rep per workload instance. Each digest
  // is the reference every later rep of that instance must reproduce. A
  // traced invocation needs one instance: its layer metrics have no
  // bound to hold across seeds.
  const uint32_t instances = traced ? 1 : def->instances;
  std::vector<uint64_t> seeds;
  std::vector<uint64_t> references;
  std::vector<Rep> modeling_reps;
  perfbench::OpLatencies latencies;
  for (uint32_t k = 0; k < instances; ++k) {
    seeds.push_back(k == 0 ? seed : DeriveSeed(seed, k));
    std::unique_ptr<Cell> cell =
        BuildCell(*def, seeds[k], Mode::kModeling, ModelingBudget(*def));
    const Rep rep = RunRep(*cell);
    references.push_back(Digest(rep.result));
    CheckRep(*def, *cell, rep, references[k],
             "modeling rep " + std::to_string(k), &checks, &watchdog_checks);
    latencies.Merge(cell->latencies);
    modeling_reps.push_back(rep);
    std::cout << "  instance " << k << ": seed " << seeds[k] << ", digest "
              << Hex(references[k]) << " (" << rep.result.ops << " ops, "
              << rep.result.accesses << " accesses, "
              << rep.result.duration_ns << " virtual ns, warm-up ends at "
              << rep.result.warmup_end_ns << ")\n";
  }
  checks.Expect(warmup_digest == references[0],
                "warm-up rep: digest " + Hex(warmup_digest) +
                    " != reference " + Hex(references[0]));

  // Phase 2: timed reps of the first instance until the window is full.
  // Instances run at different speeds (their fastest reps spread about
  // 3 %), so timing one keeps the fastest rep from depending on which
  // instance met a quiet stretch of the host. Untraced invocations time
  // plain reps of the timed budget, and the first of them gives the
  // reference the others must reproduce. Traced invocations alternate
  // plain and traced reps of the modeling budget, so the overhead is
  // measured under the same host conditions and every rep must reproduce
  // the modeling digest.
  const Budget timed_budget =
      traced ? ModelingBudget(*def) : TimedBudget(*def);
  uint64_t timed_reference = references[0];
  std::vector<double> plain_maccs;
  std::vector<double> traced_maccs;
  std::vector<std::vector<Metric>> layer_reps;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double timed_s = 0.0;
  const size_t min_reps = traced ? 4 : 3;
  // Set-up samples are taken between timed reps: one after a rep while
  // sampling has cost under a tenth of the timed time, or while fewer
  // than kMinSetupSamples spread evenly over the window have been taken
  // (a bfs sample generates a graph for about a second). Neighbour load
  // comes in stretches of seconds, so the samples spread through the
  // window, and the fastest of them is the one least disturbed (see
  // NOTES.md for the measurements).
  constexpr size_t kMinSetupSamples = 7;
  constexpr double kSetupShare = 0.1;
  std::vector<SetupTimes> setups;
  uint64_t setup_builds = 0;
  double setup_spent_s = 0.0;
  const auto take_setup_sample = [&] {
    const Clock::time_point t = Clock::now();
    setups.push_back(SetupSample(*def, seed, &setup_builds));
    setup_spent_s += SecondsSince(t);
  };
  for (size_t rep_index = 0;
       rep_index < min_reps || timed_s < seconds; ++rep_index) {
    const bool traced_rep = traced && rep_index % 2 == 1;
    std::unique_ptr<Cell> cell =
        BuildCell(*def, seed, traced_rep ? Mode::kTraced : Mode::kPlain,
                  timed_budget);
    const Rep rep = RunRep(*cell);
    timed_s += rep.run_s;
    if (!traced && rep_index == 0) timed_reference = Digest(rep.result);
    const size_t failures_before = checks.failures.size();
    CheckRep(*def, *cell, rep, timed_reference,
             std::string(traced_rep ? "traced" : "plain") + " rep " +
                 std::to_string(rep_index),
             &checks, &watchdog_checks);
    attempted += rep.result.accesses;
    if (checks.failures.size() != failures_before) {
      failed += rep.result.accesses;
    }
    if (traced_rep) {
      traced_maccs.push_back(rep.Maccs());
      layer_reps.push_back(LayerMetrics(*cell, rep));
    } else {
      plain_maccs.push_back(rep.Maccs());
    }
    cell.reset();
    if (setup_spent_s < kSetupShare * timed_s ||
        static_cast<double>(setups.size()) <
            kMinSetupSamples * std::min(1.0, timed_s / seconds)) {
      take_setup_sample();
    }
  }
  while (setups.size() < kMinSetupSamples) take_setup_sample();

  std::cout << "  reps: " << plain_maccs.size() << " plain"
            << (traced ? ", " + std::to_string(traced_maccs.size()) +
                             " traced"
                       : "")
            << ", " << timed_s << " s timed; plain Macc/s min "
            << *std::min_element(plain_maccs.begin(), plain_maccs.end())
            << " median " << Median(plain_maccs) << " max " << Best(plain_maccs)
            << "; first set-up " << first_setup.Total() << " s; "
            << setups.size() << " set-up samples, " << setup_builds
            << " constructions\n";
  // Neighbour load on a shared host slows stretches of seconds by up to
  // 1.7x, and the host flips between the slow and the fast state. The
  // fastest rep is one that ran in a fast stretch, which short reps catch
  // even when it is brief (NOTES.md has the measurements).
  const double plain = Best(plain_maccs);
  std::vector<Metric> metrics;
  if (!traced) {
    metrics.push_back({"sim_maccs", "Macc/s", plain});
    metrics.push_back({"setup_s", "s",
                       FastestOf(setups, [](const SetupTimes& s) {
                         return s.Total();
                       })});
    metrics.push_back({"peak_rss_mb", "MiB", peak_rss_mb});
    for (const Metric& m : ModeledMetrics(modeling_reps, latencies)) {
      metrics.push_back(m);
    }
    uint64_t stalled = 0;
    uint64_t accesses = 0;
    for (const Rep& rep : modeling_reps) {
      stalled += rep.result.fault.stalled_accesses;
      accesses += rep.result.accesses;
    }
    std::cout << "  op_p50_ns and op_p99_ns over "
              << latencies.PostWarmupOps() << " post-warm-up ops of "
              << instances << " instance(s)\n"
              << "  fault_free_access_frac = 1 - " << stalled
              << " stalled / " << accesses << " accesses\n";
  } else {
    // Wall metrics take the median over traced reps; counts and modeled
    // values are identical in every rep.
    for (size_t i = 0; i < layer_reps.front().size(); ++i) {
      std::vector<double> values;
      for (const auto& rep_metrics : layer_reps) {
        values.push_back(rep_metrics[i].value);
      }
      metrics.push_back({layer_reps.front()[i].name,
                         layer_reps.front()[i].unit, Median(values)});
    }
    metrics.push_back({"workloads.build_s", "s",
                       FastestOf(setups, [](const SetupTimes& s) {
                         return s.workload_s;
                       })});
    metrics.push_back({"core.sim_init_s", "s",
                       FastestOf(setups, [](const SetupTimes& s) {
                         return s.sim_s;
                       })});
    metrics.push_back({"obs.trace_overhead_frac", "fraction",
                       1.0 - Ratio(Best(traced_maccs), plain)});
    metrics.push_back({"obs.watchdog_checks", "count",
                       static_cast<double>(watchdog_checks)});
    const auto value = [&metrics](const std::string& name) {
      for (const Metric& m : metrics) {
        if (m.name == name) return m.value;
      }
      return 0.0;
    };
    std::cout << "  bases: mem.migration.failed_* "
              << value("mem.migration.failed_promotions") << " + "
              << value("mem.migration.failed_demotions") << " of "
              << value("mem.migration.pages_requested")
              << " pages requested; fault.evac_retries "
              << value("fault.evac_retries") << " over "
              << value("fault.evac_batches")
              << " evacuation batches; sampling.drop_frac "
              << value("sampling.samples_dropped") << " of "
              << value("sampling.samples_taken")
              << " samples taken; fault.failed_access_frac "
              << value("fault.stalled_accesses") << " of "
              << modeling_reps.front().result.accesses << " accesses\n"
              << "  host Macc/s: plain " << plain << ", traced "
              << Best(traced_maccs) << "\n";
  }
  for (const Metric& m : metrics) PrintMetric(m);
  for (const std::string& failure : checks.failures) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }
  const bool correct = checks.failures.empty();
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
