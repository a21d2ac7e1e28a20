#ifndef HYBRIDTIER_CORE_SIMULATION_H_
#define HYBRIDTIER_CORE_SIMULATION_H_

/**
 * @file
 * The end-to-end simulation harness.
 *
 * Drives a Workload's access stream through the cache hierarchy, the
 * tiered memory + timing model, and the PEBS-analogue sampler, while a
 * TieringPolicy observes the streams and migrates pages. Virtual time
 * advances by each access's modeled latency; an operation's latency is
 * the sum of its accesses (plus a fixed software overhead), which is the
 * metric the paper reports.
 *
 * The harness is deterministic: same config + workload seed => identical
 * results.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "common/percentile.h"
#include "common/units.h"
#include "fault/fault_runtime.h"
#include "fault/watchdog.h"
#include "mem/migration.h"
#include "mem/page.h"
#include "mem/perf_model.h"
#include "mem/tiered_memory.h"
#include "multitenant/tenant.h"
#include "obs/telemetry.h"
#include "policies/policy.h"
#include "sampling/sampler.h"
#include "workloads/tenant_tag.h"
#include "workloads/workload.h"

namespace hybridtier {

class TenantQuotaStatsSource;

/** Virtual-time period of policy maintenance (`TieringPolicy::Tick`). */
constexpr TimeNs kTickIntervalNs = 1 * kMillisecond;

/**
 * The settable knobs of one simulation run. Model constants that no run
 * varies — the per-op software overhead, the PEBS sample period and
 * buffer depth, the tick interval, the cache geometry
 * (`HierarchyConfig{}`) and the timing model's latencies (perf_model.h)
 * — are named constants next to the code that reads them, not fields.
 */
struct SimulationConfig {
  PageMode mode = PageMode::kRegular;   //!< Tracking/migration granularity.
  /** Fast-tier capacity as a fraction of the footprint; the paper's
   *  "1:N" configuration maps to 1.0 / N. */
  double fast_tier_fraction = 1.0 / 8;
  AllocationPolicy allocation = AllocationPolicy::kFastFirst;
  uint64_t max_accesses = 20000000;     //!< Stop after this many accesses.
  TimeNs max_time_ns = 0;               //!< 0 = unlimited.
  uint64_t warmup_accesses = 0;         //!< Reset measurement stats after.
  TimeNs stats_interval_ns = 20 * kMillisecond; //!< Timeline sampling.
  /**
   * Per-tenant metric probes are registered only for the K heaviest
   * tenants (ties broken by admission order); the rest roll up into a
   * single "tenant/other/" aggregate so `--metrics-out` stays readable
   * at fleet scale. 0 = no cap (a probe set per tenant, the historical
   * behavior). Only affects telemetry, never results or timelines.
   */
  uint32_t tenant_metrics_top_k = 16;
  /**
   * Slow-tier device topology spec (see mem/topology.h), e.g.
   * "cxl:(1,(2,3)),lat=124:180:180,bw=34:17:17,link=20". Empty (the
   * default) means `DefaultTopology()`: the paper's single device.
   */
  std::string topology;
  /**
   * Fault-injection schedule spec (see fault/fault_spec.h), e.g.
   * "faults:ep2@5s=down,ep1@2s-8s=degrade3x". Empty (the default)
   * constructs no fault runtime at all and keeps every run bit-identical
   * to the pre-fault code — the golden determinism tests gate on it.
   * A non-empty schedule switches the timing model to its bounded queue
   * (`PerfModel::BoundQueue`): an unbounded backlog integral across an
   * outage would model infinite recovery.
   */
  std::string faults;
  /**
   * Runs the invariant watchdog (fault/watchdog.h) at every stats
   * interval and at end of run; a violated invariant aborts the run
   * with the failed check's report. Pure observation — an enabled
   * watchdog never changes results, only whether a corrupt run is
   * allowed to finish.
   */
  bool watchdog = false;
  /** Failover behavior knobs (only read when `faults` is non-empty). */
  FaultRuntimeConfig fault_runtime;
  uint64_t seed = 1;                    //!< Sampler jitter seed.
  /**
   * Optional telemetry sinks (metrics registry, trace emitter, stage
   * profiler, latency attribution, decision audit), all non-owning and
   * null by default. Metric and trace content is keyed to virtual time
   * and stays bit-identical across runs, live/replay generation and
   * sweep `--jobs` values; the stage profiler is the one wall-clock
   * exception (bench reporting only). No sink ever changes a modeled
   * quantity.
   */
  Telemetry telemetry;
};

/**
 * Per-tenant slice of a multi-tenant run. Produced when the workload
 * implements `TenantTagSource` (e.g. `MuxWorkload`); attribution is by
 * the tenant that generated each operation.
 */
struct TenantResult {
  std::string name;
  double weight = 1.0;               //!< Fair-share weight.
  uint64_t ops = 0;
  uint64_t accesses = 0;
  uint64_t fast_mem_accesses = 0;  //!< Demand fills served by fast tier.
  uint64_t slow_mem_accesses = 0;
  uint64_t fast_resident_units = 0;  //!< End-of-run fast-tier occupancy.
  uint64_t footprint_units = 0;      //!< Tenant region size in units.
  double throughput_mops = 0.0;      //!< Tenant ops per virtual us.
  /** Post-warmup op latency percentiles (exact, grouped-data) and mean. */
  double median_latency_ns = 0.0;
  double p99_latency_ns = 0.0;
  double mean_latency_ns = 0.0;

  // Quota-controller view (zero unless the policy manages per-tenant
  // quotas, i.e. implements TenantQuotaStatsSource).
  uint64_t quota_units = 0;        //!< End-of-run fast-tier quota.
  uint64_t shadow_samples = 0;     //!< Samples fed to the ghost estimate.
  double marginal_utility = 0.0;   //!< Hits/window of the next fast unit.
  /** This tenant's budgeted sampling period at end of run. */
  uint64_t sample_period = 0;

  // Per-tenant adaptation timelines, sampled every stats_interval_ns.
  TimeSeries occupancy_timeline;  //!< Fast units / fast capacity.
  /** Median latency of this tenant's ops in each interval; 0 = none. */
  TimeSeries latency_timeline;

  /** Fraction of this tenant's demand fills served by the fast tier. */
  double FastAccessFraction() const {
    const uint64_t total = fast_mem_accesses + slow_mem_accesses;
    return total == 0 ? 0.0
                      : static_cast<double>(fast_mem_accesses) /
                            static_cast<double>(total);
  }
};

/** Everything a run produces. */
struct SimulationResult {
  // Volume.
  uint64_t ops = 0;
  uint64_t accesses = 0;
  TimeNs duration_ns = 0;
  TimeNs warmup_end_ns = 0;  //!< Virtual time when warmup ended.

  /** Post-warmup runtime (== duration_ns when no warmup configured). */
  TimeNs SteadyDurationNs() const { return duration_ns - warmup_end_ns; }

  // Headline performance.
  double throughput_mops = 0.0;    //!< Operations per virtual us.
  /** Post-warmup op latency percentiles (exact, grouped-data) and mean. */
  double median_latency_ns = 0.0;
  double p99_latency_ns = 0.0;
  double mean_latency_ns = 0.0;

  // Timelines (sampled every stats_interval_ns). The latency series read
  // the ops that started in each point's interval, however long they
  // ran; 0 = none did (an idle gap, or the points a long op spans).
  TimeSeries latency_timeline;          //!< Per-interval median op latency.
  /** Per-interval p99 op latency — the failover bench's recovery series. */
  TimeSeries p99_timeline;
  TimeSeries tiering_l1_share_timeline; //!< Per-interval tiering L1 share.
  TimeSeries tiering_llc_share_timeline;
  TimeSeries fast_used_timeline;        //!< Fast-tier occupancy fraction.

  // Memory system.
  uint64_t fast_mem_accesses = 0;  //!< Demand fills served by fast tier.
  uint64_t slow_mem_accesses = 0;
  uint64_t hint_faults = 0;
  MigrationStats migration;
  /** Fault-layer counters (all zero when no fault spec was given). */
  FaultStats fault;

  // Cache attribution (post warmup).
  uint64_t l1_app_misses = 0;
  uint64_t l1_tiering_misses = 0;
  uint64_t llc_app_misses = 0;
  uint64_t llc_tiering_misses = 0;

  // Tiering metadata.
  size_t metadata_bytes = 0;
  uint64_t samples_taken = 0;
  uint64_t samples_dropped = 0;

  /**
   * Tenants visited by per-interval timeline accounting over the whole
   * run: present tenants plus departed ones still draining. The
   * O(active) guard test asserts this scales with the tenants actually
   * present, not the fleet size.
   */
  uint64_t stats_tenant_visits = 0;

  // Multi-tenant attribution (empty unless the workload is a
  // TenantTagSource).
  std::vector<TenantResult> tenants;
  /**
   * Jain fairness index over per-tenant fast-tier occupancy: how
   * equitably the shared capacity is divided (fill rates are workload-
   * intrinsic; occupancy is what a tiering policy actually allocates).
   * 1.0 for single-tenant runs.
   */
  double jain_fairness = 1.0;
  /**
   * Weight-normalized Jain fairness over occupancy / weight, scoring a
   * weighted split ("a:4,b:1") as fair when occupancies track weights.
   * Computed over the tenants present at end of run (departed tenants
   * hold nothing and would otherwise pin the index low forever).
   */
  double weighted_jain_fairness = 1.0;
  /**
   * The weighted index sampled every stats_interval_ns over the tenants
   * present at each instant — the churn-adaptation series a bench plots
   * to measure quota reconvergence after an arrival or departure.
   */
  TimeSeries weighted_fairness_timeline;

  /** Fraction of demand fills served by the fast tier. */
  double FastAccessFraction() const {
    const uint64_t total = fast_mem_accesses + slow_mem_accesses;
    return total == 0 ? 0.0
                      : static_cast<double>(fast_mem_accesses) /
                            static_cast<double>(total);
  }

  /** Tiering share of all L1 misses. */
  double TieringL1MissShare() const {
    const uint64_t total = l1_app_misses + l1_tiering_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(l1_tiering_misses) /
                            static_cast<double>(total);
  }

  /** Tiering share of all LLC misses. */
  double TieringLlcMissShare() const {
    const uint64_t total = llc_app_misses + llc_tiering_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(llc_tiering_misses) /
                            static_cast<double>(total);
  }
};

/** One wired-up simulation run. */
class Simulation {
 public:
  /**
   * @param config run parameters.
   * @param workload access generator (not owned; consumed statefully).
   * @param policy  tiering policy (not owned; bound to this run).
   */
  Simulation(const SimulationConfig& config, Workload* workload,
             TieringPolicy* policy);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /** Executes the run to its budget and returns the results. */
  SimulationResult Run();

  /** Tiered memory view (valid during and after Run). */
  const TieredMemory& memory() const { return *memory_; }

  /** Timing-model view: per-endpoint traffic and backlog counters. */
  const PerfModel& perf_model() const { return *perf_; }

  /** Fast-tier capacity in tracking units for this run. */
  uint64_t fast_capacity_units() const { return fast_capacity_units_; }

  /** Footprint in tracking units. */
  uint64_t footprint_units() const { return footprint_units_; }

 private:
  /** Per-tenant accumulators while the run is in flight. */
  struct TenantState {
    uint64_t ops = 0;
    uint64_t accesses = 0;
    uint64_t fast_mem_accesses = 0;
    uint64_t slow_mem_accesses = 0;
    LatencyHistogram latencies;           //!< Post-warmup op latencies.
    LatencyHistogram interval_latencies;  //!< Started since last point.
    TimeSeries occupancy_timeline;  //!< Fast units / fast capacity.
    TimeSeries latency_timeline;    //!< Per-interval median op latency.
  };

  /**
   * Pops residency-schedule edges up to `at`: arrivals join `present_`,
   * departures move to `draining_` (their occupancy is still reported
   * until the policy finishes releasing the region). O(1) when no edge
   * is due, so per-interval accounting never scans the whole fleet.
   */
  void AdvancePresence(TimeNs at);

  /**
   * Captures one timeline point stamped at scheduled sample time `at`;
   * its latency values cover the ops that started in [at - interval,
   * at), recorded since the previous point.
   */
  void RecordTimelinePoint(TimeNs at);

  /** Fills result_.tenants / jain_fairness from the tenant states. */
  void FinalizeTenantResults();

  /**
   * Executes one non-empty op end to end: the access loop (touch, cache
   * probes, timing, sampling) as a tight inlined loop, policy dispatch
   * per `access_interest_`, the sample drain, due maintenance ticks,
   * migration-stall charging, and the op's latency accounting.
   *
   * Instantiated on a compile-time profiling flag so the common
   * (unprofiled) instantiation contains no wall-clock reads at all;
   * the profiled one runs only for the stage profiler's sampled ops.
   * The loop holds only the model; every diagnosis feed sits behind
   * one `observed_` branch per access and one per op.
   */
  template <bool kProfiled>
  void RunOpImpl(const OpTrace& op, TenantState* tenant);

  /**
   * Diagnosis seam for one access, called after its hint-fault charge
   * and before policy dispatch (the audit labeler sees the same event
   * order as the model). Splits `latency` into attribution components,
   * feeds the audit labeler's slow fills, and observes the endpoint
   * queue-delay histogram. Pure observation.
   */
  void ObserveAccess(uint32_t tenant, PageId unit, const TouchResult& touch,
                     HitLevel level, TimeNs latency);

  /**
   * Diagnosis seam at op end: the op overhead and migration-stall
   * components, the attribution op close, and the op-latency
   * histogram. Attribution and metrics are read only between ops.
   */
  void ObserveOp(uint32_t tenant, TimeNs migration_stall,
                 TimeNs op_latency);

  /** Registers metric probes and trace tracks from config_.telemetry. */
  void SetupTelemetry();

  /** Emits period_adapt instants for tenants whose budgeted-sampler
   *  period changed since the last stats interval. */
  void EmitSamplerAdaptEvents(TimeNs at);

  /**
   * Replays metadata lines buffered in `metadata_counter_` into the
   * shared hierarchy, in report order, and clears the buffer. Called at
   * every boundary between policy execution and the next cache-state
   * observer (app access or stats read), so the modeled LLC sees the
   * same access sequence the legacy immediate-replay sink produced.
   */
  void FlushMetadataTraffic();

  SimulationConfig config_;
  Workload* workload_;
  TieringPolicy* policy_;
  TenantTagSource* tenant_source_ = nullptr;  //!< Null = single tenant.
  std::vector<TenantState> tenant_states_;

  uint64_t footprint_units_ = 0;
  uint64_t fast_capacity_units_ = 0;

  std::unique_ptr<TieredMemory> memory_;
  std::unique_ptr<PerfModel> perf_;
  std::unique_ptr<CacheHierarchy> hierarchy_;
  std::unique_ptr<MigrationEngine> migration_;
  /** The PEBS analogue, one sample source per tenant. */
  std::unique_ptr<AccessSampler> sampler_;
  /** Null unless config.faults is non-empty (the common case). */
  std::unique_ptr<FaultRuntime> fault_runtime_;
  /** Null unless config.watchdog (pure observation when present). */
  std::unique_ptr<InvariantWatchdog> watchdog_;
  MetadataTrafficCounter metadata_counter_;

  // Run state.
  TimeNs now_ = 0;
  uint64_t ops_ = 0;
  uint64_t accesses_ = 0;
  SimulationResult result_;
  LatencyHistogram latencies_;           //!< Post-warmup op latencies.
  LatencyHistogram interval_latencies_;  //!< Started since last point.
  /** The policy's declared access interest, resolved once after Bind:
   *  kNone policies are never called per access, kBatched ones get one
   *  OnAccessBatch per op, kInline ones one OnAccess per access. */
  AccessInterest access_interest_ = AccessInterest::kInline;
  std::vector<TouchEvent> access_events_;   //!< Per-op batch buffer.
  std::vector<SampleRecord> sample_buffer_; //!< Per-op drain buffer.
  TimeNs next_tick_ = 0;
  TimeNs next_stats_ = 0;

  // O(active) per-tenant accounting: the residency schedule of the
  // workload's tenant windows, the tenants currently present (sorted by
  // id, so floating-point reductions keep the historical id-order
  // evaluation), and departed tenants still draining.
  ResidencySchedule presence_;
  std::vector<uint32_t> present_;   //!< Present tenant ids, ascending.
  std::vector<uint32_t> draining_;  //!< Departed, region not yet empty.
  std::vector<double> scratch_shares_;   //!< Per-interval, present-sized.
  std::vector<double> scratch_weights_;

  // Migration-stall accounting (TLB shootdowns hit the app cores).
  uint64_t last_migration_batches_ = 0;
  uint64_t last_migration_pages_ = 0;

  // Interval bookkeeping for miss-share timelines.
  uint64_t last_l1_app_misses_ = 0;
  uint64_t last_l1_tiering_misses_ = 0;
  uint64_t last_llc_app_misses_ = 0;
  uint64_t last_llc_tiering_misses_ = 0;

  // Telemetry (all null/empty when disabled; see SetupTelemetry).
  MetricRegistry* metrics_ = nullptr;
  TraceEmitter* trace_ = nullptr;
  StageProfiler* stages_ = nullptr;
  LatencyAttribution* attr_ = nullptr;
  DecisionAudit* audit_ = nullptr;
  /** Attribution, audit or metrics attached: the one hot-loop guard in
   *  front of ObserveAccess/ObserveOp. */
  bool observed_ = false;
  HistogramMetric* op_latency_hist_ = nullptr;  //!< Owned by metrics_.
  /** Per-endpoint slow-fill queue-delay histograms (owned by metrics_;
   *  empty when metrics are off). */
  std::vector<HistogramMetric*> endpoint_queue_hist_;
  /** Quota-stats view of policy_, resolved once (also used by
   *  FinalizeTenantResults). */
  const TenantQuotaStatsSource* quota_stats_ = nullptr;
  TraceEmitter::TrackId sampler_track_ = 0;
  std::vector<uint64_t> last_periods_;  //!< Per-tenant, for adapt events.
};

/** Convenience wrapper: construct, run, return. */
SimulationResult RunSimulation(const SimulationConfig& config,
                               Workload* workload, TieringPolicy* policy);

}  // namespace hybridtier

#endif  // HYBRIDTIER_CORE_SIMULATION_H_
