/**
 * @file
 * Telemetry subsystem tests (src/obs/): metric registry semantics,
 * trace-event JSON structure, stage-profiler accounting, and — the part
 * CI actually leans on — the determinism contract: telemetry keyed to
 * simulated time must serialize byte-identically across runs,
 * generation modes (live vs replay), and sweep thread counts, and
 * enabling it must not perturb the simulation itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/hybridtier_policy.h"
#include "core/policy_factory.h"
#include "core/simulation.h"
#include "exec/sweep.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/mux_workload.h"
#include "obs/attribution.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/stage_profiler.h"
#include "obs/trace.h"
#include "workloads/factory.h"
#include "workloads/trace.h"

namespace hybridtier {
namespace {

// ------------------------------------------------------------ Metrics --

TEST(Metrics, CounterGaugeProbeSeries) {
  MetricRegistry registry;
  Counter* counter = registry.AddCounter("a/count");
  Gauge* gauge = registry.AddGauge("a/level");
  double probed = 1.5;
  registry.AddProbe("a/probe", [&probed] { return probed; });
  EXPECT_EQ(registry.series_count(), 3u);

  counter->Inc();
  counter->Inc(2);
  gauge->Set(7.0);
  registry.Snapshot(1000);
  probed = 2.5;
  gauge->Set(-1.0);
  registry.Snapshot(2000);
  registry.Snapshot(2000);  // Duplicate timestamp is ignored.
  EXPECT_EQ(registry.snapshot_count(), 2u);

  std::ostringstream csv;
  registry.WriteCsv(csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("time_ns,a/count,a/level,a/probe"),
            std::string::npos);
  EXPECT_NE(text.find("1000,3,7,1.5"), std::string::npos);
  EXPECT_NE(text.find("2000,3,-1,2.5"), std::string::npos);
}

TEST(Metrics, ReRegistrationReturnsTheSameHandle) {
  MetricRegistry registry;
  Counter* first = registry.AddCounter("dup");
  Counter* second = registry.AddCounter("dup");
  EXPECT_EQ(first, second);
  EXPECT_EQ(registry.series_count(), 1u);
  HistogramMetric* h1 = registry.AddHistogram("hist");
  HistogramMetric* h2 = registry.AddHistogram("hist");
  EXPECT_EQ(h1, h2);
}

TEST(Metrics, FinalSectionUsesLastSnapshotNotLiveProbes) {
  // Probes may capture objects destroyed before serialization; the
  // writer must read the recorded series, never call the probe again.
  MetricRegistry registry;
  int live_reads = 0;
  registry.AddProbe("p", [&live_reads] {
    ++live_reads;
    return 42.0;
  });
  registry.Snapshot(10);
  const int reads_at_snapshot = live_reads;
  std::ostringstream out;
  registry.WriteJson(out);
  EXPECT_EQ(live_reads, reads_at_snapshot);
  EXPECT_NE(out.str().find("\"p\": 42"), std::string::npos);
}

TEST(Metrics, HistogramPowerOfTwoBuckets) {
  EXPECT_EQ(HistogramMetric::BucketOf(0), 0u);
  EXPECT_EQ(HistogramMetric::BucketOf(1), 0u);
  EXPECT_EQ(HistogramMetric::BucketOf(2), 1u);
  EXPECT_EQ(HistogramMetric::BucketOf(3), 2u);
  EXPECT_EQ(HistogramMetric::BucketOf(4), 2u);
  EXPECT_EQ(HistogramMetric::BucketOf(5), 3u);
  EXPECT_EQ(HistogramMetric::BucketOf(1024), 10u);
  EXPECT_EQ(HistogramMetric::BucketOf(1025), 11u);
  // BucketFloor(i) is the smallest value BucketOf maps to bucket i.
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(HistogramMetric::BucketOf(HistogramMetric::BucketFloor(i)),
              i)
        << "bucket " << i;
  }

  HistogramMetric hist;
  hist.Observe(1);
  hist.Observe(100);
  hist.Observe(100);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.sum(), 201u);
  EXPECT_EQ(hist.bucket(0), 1u);
  EXPECT_EQ(hist.bucket(HistogramMetric::BucketOf(100)), 2u);
  EXPECT_EQ(hist.MaxBucket(), HistogramMetric::BucketOf(100));
}

// -------------------------------------------------------------- Trace --

TEST(Trace, JsonStructureAndTimestampFormatting) {
  TraceEmitter emitter(3, "cell");
  const TraceEmitter::TrackId track = emitter.Track("tenant-a");
  EXPECT_EQ(emitter.Track("tenant-a"), track);  // Idempotent lookup.
  emitter.Instant(track, "arrival", 1, {{"w", 2.0}});
  emitter.Span(track, "drain", 1000, 4500, {{"released", 12.0}});
  emitter.Span(track, "empty", 500, 400);  // end < start clamps to 0.

  std::ostringstream out;
  emitter.WriteJson(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  // Process/track metadata records.
  EXPECT_NE(text.find("\"process_name\",\"args\":{\"name\":\"cell\"}"),
            std::string::npos);
  EXPECT_NE(text.find("\"thread_name\",\"args\":{\"name\":\"tenant-a\"}"),
            std::string::npos);
  // ts is micros with fixed 3-digit ns remainder: 1 ns -> 0.001.
  EXPECT_NE(text.find("\"ts\":0.001"), std::string::npos);
  // Span: 1000 ns -> ts 1.000, 3500 ns duration -> dur 3.500.
  EXPECT_NE(text.find("\"ts\":1.000,\"dur\":3.500"), std::string::npos);
  EXPECT_NE(text.find("\"dur\":0.000"), std::string::npos);
  EXPECT_NE(text.find("\"released\":12"), std::string::npos);
  EXPECT_NE(text.find("\"pid\":3"), std::string::npos);
}

TEST(Trace, MaxEventsCapDropsDeterministically) {
  TraceEmitter emitter;
  const TraceEmitter::TrackId track = emitter.Track("t");
  emitter.set_max_events(2);
  emitter.Instant(track, "one", 1);
  emitter.Instant(track, "two", 2);
  emitter.Instant(track, "three", 3);
  EXPECT_EQ(emitter.event_count(), 2u);
  EXPECT_EQ(emitter.dropped_events(), 1u);
  std::ostringstream out;
  emitter.WriteJson(out);
  EXPECT_EQ(out.str().find("three"), std::string::npos);
}

TEST(Trace, InternedNamesAreStable) {
  TraceEmitter emitter;
  const char* first = emitter.Intern("tenant/alpha");
  const std::string copy = first;
  // Interning more strings must not invalidate earlier pointers.
  for (int i = 0; i < 100; ++i) {
    std::string name = "x";
    name += std::to_string(i);
    emitter.Intern(name);
  }
  EXPECT_EQ(copy, first);
}

TEST(Trace, MergedEmittersKeepCellOrder) {
  TraceEmitter a(1, "cell-0");
  TraceEmitter b(2, "cell-1");
  a.Instant(a.Track("t"), "ev_a", 5);
  b.Instant(b.Track("t"), "ev_b", 5);
  const TraceEmitter* emitters[] = {&a, &b};
  std::ostringstream out;
  WriteTraceJson(out, emitters);
  const std::string text = out.str();
  const size_t pos_a = text.find("ev_a");
  const size_t pos_b = text.find("ev_b");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  EXPECT_LT(pos_a, pos_b);
}

// ------------------------------------------------------ StageProfiler --

TEST(StageProfilerTest, SamplesFirstOpThenEveryNth) {
  StageProfiler profiler(/*sample_every=*/4);
  std::vector<bool> sampled;
  for (int i = 0; i < 9; ++i) sampled.push_back(profiler.BeginOp());
  const std::vector<bool> expected = {true,  false, false, false, true,
                                      false, false, false, true};
  EXPECT_EQ(sampled, expected);
}

TEST(StageProfilerTest, RecordsAndMerges) {
  StageProfiler a;
  a.Record(Stage::kCache, 100);
  a.Record(Stage::kPolicy, 50);
  a.RecordOp(200, 10);
  StageProfiler b;
  b.Record(Stage::kCache, 300);
  b.RecordOp(400, 30);
  a.Merge(b);
  EXPECT_EQ(a.totals(Stage::kCache).wall_ns, 400u);
  EXPECT_EQ(a.totals(Stage::kCache).events, 2u);
  EXPECT_EQ(a.sampled_ops(), 2u);
  EXPECT_EQ(a.sampled_accesses(), 40u);
  EXPECT_DOUBLE_EQ(a.NsPerAccess(Stage::kCache), 10.0);
  // Unattributed remainder: 600 total - 450 attributed.
  EXPECT_EQ(a.OtherNs(), 150u);
  const std::string report = a.Report();
  EXPECT_NE(report.find("cache"), std::string::npos);
  EXPECT_NE(report.find("other"), std::string::npos);
}

TEST(StageProfilerTest, LapsPartitionTheOpWallTime) {
  StageProfiler profiler(/*sample_every=*/2);
  for (int op = 0; op < 4; ++op) {
    if (!profiler.BeginOp()) continue;
    profiler.Lap(Stage::kGeneration);
    profiler.Lap(Stage::kCache);
    profiler.Lap(Stage::kAccounting);
    profiler.EndOp(/*accesses=*/8);
  }
  EXPECT_EQ(profiler.sampled_ops(), 2u);
  EXPECT_EQ(profiler.sampled_accesses(), 16u);
  EXPECT_EQ(profiler.totals(Stage::kCache).events, 2u);
  EXPECT_EQ(profiler.totals(Stage::kPolicy).events, 0u);
  // Every lap and the closing remainder are one contiguous op span.
  uint64_t laps = 0;
  for (const Stage stage :
       {Stage::kGeneration, Stage::kCache, Stage::kAccounting}) {
    laps += profiler.totals(stage).wall_ns;
  }
  EXPECT_EQ(profiler.sampled_op_wall_ns(), laps + profiler.OtherNs());
}

// ---------------------------------------------- Simulation integration --

struct TelemetryCapture {
  std::string trace_json;
  std::string metrics_json;
};

/** Runs a multi-tenant churn cell with full telemetry attached. */
TelemetryCapture RunTelemetryChurnCell() {
  std::vector<TenantSpec> specs =
      ParseTenantList("zipf,cdn:2@0-5e7,zipf@3e7");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 11);
  auto fair = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                mux->directory());
  MetricRegistry metrics;
  TraceEmitter trace(1, "test-cell");
  SimulationConfig config;
  config.max_accesses = 30000000;
  config.max_time_ns = 90 * kMillisecond;
  config.seed = 11;
  config.telemetry.metrics = &metrics;
  config.telemetry.trace = &trace;

  RunSimulation(config, mux.get(), fair.get());

  TelemetryCapture capture;
  std::ostringstream trace_out;
  trace.WriteJson(trace_out);
  capture.trace_json = trace_out.str();
  std::ostringstream metrics_out;
  metrics.WriteJson(metrics_out);
  capture.metrics_json = metrics_out.str();
  return capture;
}

TEST(ObsDeterminism, FairShareChurnTraceAndMetricsAreRunToRunIdentical) {
  // The only byte-level gate on a fair-share cell's trace and metrics;
  // the live/replay and --jobs gates below run single-tenant HybridTier.
  const TelemetryCapture first = RunTelemetryChurnCell();
  const TelemetryCapture second = RunTelemetryChurnCell();
  EXPECT_EQ(first.trace_json, second.trace_json);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  // The churn cell actually exercises the interesting tracks.
  EXPECT_NE(first.trace_json.find("promote_batch"), std::string::npos);
  EXPECT_NE(first.trace_json.find("arrival"), std::string::npos);
  EXPECT_NE(first.trace_json.find("quota/controller"), std::string::npos);
}

TEST(ObsDeterminism, TraceAndMetricsIdenticalLiveVsReplay) {
  SimulationConfig config;
  config.max_accesses = 300000;
  config.seed = 29;

  const auto run = [&config](Workload* workload) {
    MetricRegistry metrics;
    TraceEmitter trace(1, "cell");
    auto policy = MakePolicy("HybridTier");
    SimulationConfig cell_config = config;
    cell_config.telemetry.metrics = &metrics;
    cell_config.telemetry.trace = &trace;
    RunSimulation(cell_config, workload, policy.get());
    std::ostringstream trace_out;
    trace.WriteJson(trace_out);
    std::ostringstream metrics_out;
    metrics.WriteJson(metrics_out);
    return std::pair<std::string, std::string>(trace_out.str(),
                                               metrics_out.str());
  };

  auto live_workload = MakeWorkload("zipf", 0.25, 29);
  const auto live = run(live_workload.get());

  auto recorded_workload = MakeWorkload("zipf", 0.25, 29);
  auto trace = std::make_shared<const RecordedTrace>(
      RecordTrace(*recorded_workload, config.max_accesses));
  ReplayWorkload replay(trace);
  const auto replayed = run(&replay);

  EXPECT_EQ(live.first, replayed.first);
  EXPECT_EQ(live.second, replayed.second);
}

TEST(ObsDeterminism, TelemetryDoesNotPerturbTheSimulation) {
  const auto run = [](bool with_telemetry) {
    MetricRegistry metrics;
    TraceEmitter trace;
    StageProfiler stages;
    auto workload = MakeWorkload("zipf", 0.25, 17);
    auto policy = MakePolicy("HybridTier");
    SimulationConfig config;
    config.max_accesses = 300000;
    config.seed = 17;
    if (with_telemetry) {
      config.telemetry.metrics = &metrics;
      config.telemetry.trace = &trace;
      config.telemetry.stages = &stages;
    }
    return RunSimulation(config, workload.get(), policy.get());
  };
  const SimulationResult plain = run(false);
  const SimulationResult instrumented = run(true);
  EXPECT_EQ(plain.ops, instrumented.ops);
  EXPECT_EQ(plain.accesses, instrumented.accesses);
  EXPECT_EQ(plain.duration_ns, instrumented.duration_ns);
  EXPECT_EQ(plain.fast_mem_accesses, instrumented.fast_mem_accesses);
  EXPECT_EQ(plain.migration.promoted_pages,
            instrumented.migration.promoted_pages);
  EXPECT_EQ(plain.migration.demoted_pages,
            instrumented.migration.demoted_pages);
  EXPECT_EQ(plain.median_latency_ns, instrumented.median_latency_ns);
  EXPECT_EQ(plain.p99_latency_ns, instrumented.p99_latency_ns);
}

TEST(ObsDeterminism, SweepMergedTelemetryIsJobsInvariant) {
  // The ht_run --ratio pattern: preallocated per-cell emitters indexed
  // by flat cell index, merged in index order after the run.
  const auto run_sweep = [](unsigned jobs) {
    SweepGrid grid;
    grid.AddAxis("seed", {"3", "5", "7", "9"});
    std::vector<std::unique_ptr<TraceEmitter>> traces(grid.cell_count());
    std::vector<std::unique_ptr<MetricRegistry>> metrics(
        grid.cell_count());
    SweepOptions options;
    options.jobs = jobs;
    options.report_wall_time = false;
    SweepRunner runner(options);
    runner.Run(grid, [&](const SweepCell& cell) -> int {
      traces[cell.index()] = std::make_unique<TraceEmitter>(
          static_cast<uint32_t>(cell.index() + 1),
          "seed=" + cell.Get("seed"));
      metrics[cell.index()] = std::make_unique<MetricRegistry>();
      auto workload = MakeWorkload(
          "zipf", 0.1, std::stoull(cell.Get("seed")));
      auto policy = MakePolicy("HybridTier");
      SimulationConfig config;
      config.max_accesses = 100000;
      config.seed = std::stoull(cell.Get("seed"));
      config.telemetry.trace = traces[cell.index()].get();
      config.telemetry.metrics = metrics[cell.index()].get();
      RunSimulation(config, workload.get(), policy.get());
      return 0;
    });
    std::vector<const TraceEmitter*> emitters;
    for (const auto& trace : traces) emitters.push_back(trace.get());
    std::ostringstream trace_out;
    WriteTraceJson(trace_out, emitters);
    std::ostringstream metrics_out;
    for (const auto& registry : metrics) {
      registry->WriteJson(metrics_out);
    }
    return std::pair<std::string, std::string>(trace_out.str(),
                                               metrics_out.str());
  };
  const auto serial = run_sweep(1);
  const auto parallel = run_sweep(4);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
}

TEST(ObsIntegration, SimulationRegistersTheMetricCatalog) {
  MetricRegistry metrics;
  auto workload = MakeWorkload("zipf", 0.1, 7);
  auto policy = MakePolicy("Memtis");
  SimulationConfig config;
  config.max_accesses = 300000;  // Long enough for interval snapshots.
  config.seed = 7;
  config.telemetry.metrics = &metrics;
  const SimulationResult result =
      RunSimulation(config, workload.get(), policy.get());

  std::ostringstream out;
  metrics.WriteJson(out);
  const std::string text = out.str();
  for (const char* name :
       {"sim/ops", "sim/accesses", "mem/fast_used_units",
        "migration/promoted_pages", "migration/demoted_pages",
        "cache/llc_app_misses", "cache/llc_tiering_misses",
        "sampler/samples_taken", "policy/metadata_bytes",
        "sim/op_latency_ns", "mem/endpoint0/bytes",
        "mem/endpoint0/accesses", "mem/endpoint0/resident_units",
        "mem/endpoint0/queue_delay_ns"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  // The final section mirrors the result struct for pushed counters.
  std::ostringstream expected;
  expected << "\"sim/accesses\": " << result.accesses;
  EXPECT_NE(text.find(expected.str()), std::string::npos);
  EXPECT_GE(metrics.snapshot_count(), 2u);
}

// -------------------------------------------------------- Attribution --

/** Asymmetric 3-endpoint slow tier used by the diagnosis tests. */
constexpr const char* kAsymTopology =
    "cxl:(1,(2,3)),lat=124:250:250,bw=34:8:8,link=10,gran=64";

TEST(Attribution, ComponentNamesAreStableAndDistinct) {
  std::vector<std::string> names;
  for (uint32_t c = 0; c < static_cast<uint32_t>(LatencyComponent::kCount);
       ++c) {
    names.push_back(LatencyComponentName(static_cast<LatencyComponent>(c)));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
  EXPECT_EQ(std::string(LatencyComponentName(LatencyComponent::kSlowQueue)),
            "slow_queue");
}

// The tentpole contract: Σ components == Σ op latency, to the
// nanosecond, with EXPECT_EQ — globally, per endpoint, and at every
// metric snapshot (cumulative identity at each snapshot implies the
// per-interval identity, since an interval is a difference of
// cumulative sums; all values stay far below 2^53, so the double-typed
// metric series are exact).
TEST(Attribution, DecompositionIdentityExactOnAsymmetricTopology) {
  LatencyAttribution attr;
  MetricRegistry metrics;
  auto workload = MakeWorkload("zipf", 0.1, 13);
  auto policy = MakePolicy("HybridTier");
  SimulationConfig config;
  config.max_accesses = 400000;
  config.seed = 13;
  config.topology = kAsymTopology;
  config.telemetry.attribution = &attr;
  config.telemetry.metrics = &metrics;
  RunSimulation(config, workload.get(), policy.get());

  ASSERT_GT(attr.ops(), 0u);
  ASSERT_GT(attr.op_latency_ns(), 0u);
  EXPECT_EQ(attr.ComponentSumNs(), attr.op_latency_ns());
  EXPECT_EQ(attr.TenantComponentSumNs(0), attr.tenant_op_latency_ns(0));

  // Per-endpoint slow-tier splits partition the slow components.
  ASSERT_EQ(attr.endpoint_count(), 3u);
  uint64_t idle_sum = 0;
  uint64_t queue_sum = 0;
  for (uint32_t e = 0; e < attr.endpoint_count(); ++e) {
    idle_sum += attr.endpoint_slow_idle_ns(e);
    queue_sum += attr.endpoint_slow_queue_ns(e);
  }
  EXPECT_EQ(idle_sum, attr.component_ns(LatencyComponent::kSlowIdle));
  EXPECT_EQ(queue_sum, attr.component_ns(LatencyComponent::kSlowQueue));
  // The asymmetric cell actually exercises the slow path.
  EXPECT_GT(attr.component_ns(LatencyComponent::kSlowIdle), 0u);

  // Snapshot-level identity on the registered metric series.
  const std::vector<double>* total =
      metrics.Series("attr/total_op_latency_ns");
  ASSERT_NE(total, nullptr);
  ASSERT_GE(metrics.snapshot_count(), 2u);
  for (size_t i = 0; i < metrics.snapshot_count(); ++i) {
    double component_sum = 0.0;
    for (uint32_t c = 0;
         c < static_cast<uint32_t>(LatencyComponent::kCount); ++c) {
      const std::string name =
          std::string("attr/") +
          LatencyComponentName(static_cast<LatencyComponent>(c)) + "_ns";
      const std::vector<double>* series = metrics.Series(name);
      ASSERT_NE(series, nullptr) << name;
      component_sum += (*series)[i];
    }
    EXPECT_EQ(component_sum, (*total)[i]) << "snapshot " << i;
  }
  // The cumulative identity holding at consecutive snapshots implies
  // the per-interval identity; spell one interval out anyway.
  const size_t last = metrics.snapshot_count() - 1;
  double interval_components = 0.0;
  for (uint32_t c = 0; c < static_cast<uint32_t>(LatencyComponent::kCount);
       ++c) {
    const std::string name =
        std::string("attr/") +
        LatencyComponentName(static_cast<LatencyComponent>(c)) + "_ns";
    const std::vector<double>& series = *metrics.Series(name);
    interval_components += series[last] - series[0];
  }
  EXPECT_EQ(interval_components, (*total)[last] - (*total)[0]);
}

TEST(Attribution, PerTenantIdentityExactUnderFairShare) {
  std::vector<TenantSpec> specs = ParseTenantList("zipf,cdn:2,zipf:3");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 19);
  auto fair = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                mux->directory());
  LatencyAttribution attr;
  SimulationConfig config;
  config.max_accesses = 400000;
  config.seed = 19;
  config.telemetry.attribution = &attr;
  RunSimulation(config, mux.get(), fair.get());

  ASSERT_EQ(attr.tenant_count(), 3u);
  uint64_t tenant_latency_sum = 0;
  for (uint32_t t = 0; t < attr.tenant_count(); ++t) {
    EXPECT_EQ(attr.TenantComponentSumNs(t), attr.tenant_op_latency_ns(t))
        << "tenant " << t;
    EXPECT_GT(attr.tenant_op_latency_ns(t), 0u) << "tenant " << t;
    tenant_latency_sum += attr.tenant_op_latency_ns(t);
  }
  EXPECT_EQ(tenant_latency_sum, attr.op_latency_ns());
  EXPECT_EQ(attr.ComponentSumNs(), attr.op_latency_ns());
}

// ------------------------------------------------------ DecisionAudit --

TEST(DecisionAuditTest, PrematureDemotionCountedOncePerEpisode) {
  DecisionAuditConfig config;
  config.premature_window_ns = 1000;
  DecisionAudit audit(config);
  audit.Configure(16);

  audit.OnDemoted(5, 100);
  audit.OnSlowFill(5, 1099);  // Inside the window: premature.
  EXPECT_EQ(audit.premature_demotions(), 1u);
  audit.OnSlowFill(5, 1100);  // Stamp cleared: no double count.
  EXPECT_EQ(audit.premature_demotions(), 1u);

  audit.OnDemoted(5, 2000);
  audit.OnSlowFill(5, 3000);  // Exactly at the window edge: not premature.
  EXPECT_EQ(audit.premature_demotions(), 1u);

  audit.OnDemoted(7, 5000);
  audit.OnPromoted(7, 5500);  // Promotion clears the stamp.
  audit.OnSlowFill(7, 5600);
  EXPECT_EQ(audit.premature_demotions(), 1u);
}

TEST(DecisionAuditTest, LatePromotionLatchesUntilPromoted) {
  DecisionAuditConfig config;
  config.late_promotion_intervals = 2;
  config.hot_touch_min = 2;
  DecisionAudit audit(config);
  audit.Configure(8);

  // Interval 1: unit 3 hot (2 touches), unit 4 cold (1 touch).
  audit.OnSlowFill(3, 10);
  audit.OnSlowFill(3, 20);
  audit.OnSlowFill(4, 30);
  audit.AdvanceInterval(1000);
  EXPECT_EQ(audit.late_promotions(), 0u);

  // Interval 2: unit 3 hot again -> streak 2 -> late.
  audit.OnSlowFill(3, 1010);
  audit.OnSlowFill(3, 1020);
  audit.AdvanceInterval(2000);
  EXPECT_EQ(audit.late_promotions(), 1u);

  // Interval 3: still hot, but latched — no re-count.
  audit.OnSlowFill(3, 2010);
  audit.OnSlowFill(3, 2020);
  audit.AdvanceInterval(3000);
  EXPECT_EQ(audit.late_promotions(), 1u);

  // Promotion clears the latch; a fresh 2-interval streak counts again.
  audit.OnPromoted(3, 3500);
  audit.OnDemoted(3, 3600);
  audit.OnSlowFill(3, 20000);
  audit.OnSlowFill(3, 20010);
  audit.AdvanceInterval(21000);
  audit.OnSlowFill(3, 21010);
  audit.OnSlowFill(3, 21020);
  audit.AdvanceInterval(22000);
  EXPECT_EQ(audit.late_promotions(), 2u);
}

TEST(DecisionAuditTest, ColdIntervalResetsTheHotStreak) {
  DecisionAuditConfig config;
  config.late_promotion_intervals = 2;
  config.hot_touch_min = 1;
  DecisionAudit audit(config);
  audit.Configure(4);

  audit.OnSlowFill(0, 10);
  audit.AdvanceInterval(1000);   // Hot interval 1.
  audit.AdvanceInterval(2000);   // Untouched interval: streak broken.
  audit.OnSlowFill(0, 2010);
  audit.AdvanceInterval(3000);   // Hot again, but streak restarts at 1.
  EXPECT_EQ(audit.late_promotions(), 0u);
  audit.OnSlowFill(0, 3010);
  audit.AdvanceInterval(4000);   // Back-to-back hot: streak 2 -> late.
  EXPECT_EQ(audit.late_promotions(), 1u);
}

TEST(DecisionAuditTest, RingIsBoundedOldestFirstAndCountsDrops) {
  DecisionAuditConfig config;
  config.ring_capacity = 4;
  DecisionAudit audit(config);
  audit.Configure(1);

  for (uint32_t i = 0; i < 6; ++i) {
    audit.RecordBatch(/*promotion=*/i % 2 == 0,
                      MigrationReason::kHotnessRank,
                      /*now=*/100 * (i + 1), /*pages_moved=*/i + 1,
                      /*pages_requested=*/i + 2);
  }
  EXPECT_EQ(audit.total_batches(), 6u);
  EXPECT_EQ(audit.dropped_records(), 2u);
  const std::vector<AuditRecord> ring = audit.RingSnapshot();
  ASSERT_EQ(ring.size(), 4u);
  // Oldest surviving record first; the first two were overwritten.
  EXPECT_EQ(ring.front().time_ns, 300u);
  EXPECT_EQ(ring.back().time_ns, 600u);
  for (size_t i = 1; i < ring.size(); ++i) {
    EXPECT_LT(ring[i - 1].time_ns, ring[i].time_ns);
  }
  EXPECT_EQ(ring.back().pages_moved, 6u);
  EXPECT_EQ(ring.back().pages_requested, 7u);
}

TEST(DecisionAuditTest, PerReasonCountersSplitPromotionsAndDemotions) {
  DecisionAudit audit;
  audit.Configure(1);
  audit.RecordBatch(true, MigrationReason::kHotnessRank, 10, 32, 32);
  audit.RecordBatch(true, MigrationReason::kQuotaFill, 20, 8, 16);
  audit.RecordBatch(false, MigrationReason::kCapacityDemand, 30, 32, 32);
  audit.RecordBatch(false, MigrationReason::kWatermark, 40, 5, 5);
  audit.RecordQuotaTruncation(9);
  audit.RecordCooling();
  audit.RecordEndpointReorder();

  EXPECT_EQ(audit.batches(MigrationReason::kHotnessRank), 1u);
  EXPECT_EQ(audit.promoted_pages(MigrationReason::kHotnessRank), 32u);
  EXPECT_EQ(audit.demoted_pages(MigrationReason::kHotnessRank), 0u);
  EXPECT_EQ(audit.promoted_pages(MigrationReason::kQuotaFill), 8u);
  EXPECT_EQ(audit.demoted_pages(MigrationReason::kCapacityDemand), 32u);
  EXPECT_EQ(audit.demoted_pages(MigrationReason::kWatermark), 5u);
  EXPECT_EQ(audit.quota_truncated_pages(), 9u);
  EXPECT_EQ(audit.cooling_epochs(), 1u);
  EXPECT_EQ(audit.endpoint_reorders(), 1u);
  EXPECT_EQ(audit.batches(MigrationReason::kHintFault), 0u);
  const std::string report = audit.Report();
  EXPECT_NE(report.find("hotness_rank"), std::string::npos);
  EXPECT_NE(report.find("quota_fill"), std::string::npos);
}

TEST(DecisionAuditIntegration, EveryEngineBatchCarriesAReason) {
  for (const std::string name :
       {"HybridTier", "TPP", "AutoNUMA", "ARC", "TwoQ", "Memtis"}) {
    SCOPED_TRACE(name);
    DecisionAudit audit;
    MetricRegistry metrics;
    auto workload = MakeWorkload("zipf", 0.1, 23);
    std::unique_ptr<TieringPolicy> policy;
    if (name == "HybridTier") {
      // Default cooling (600k samples at a 61-access PEBS period) never
      // fires inside a unit-test-sized run; shrink the period so the
      // cooling reason code is exercised too.
      HybridTierConfig policy_config;
      policy_config.freq_cooling_samples = 2000;
      policy = std::make_unique<HybridTierPolicy>(policy_config);
    } else {
      policy = MakePolicy(name);
    }
    SimulationConfig config;
    config.max_accesses = 400000;
    config.seed = 23;
    config.allocation = AllocationPolicyFor(name);
    config.telemetry.audit = &audit;
    config.telemetry.metrics = &metrics;
    const SimulationResult result =
        RunSimulation(config, workload.get(), policy.get());

    ASSERT_GT(audit.total_batches(), 0u);
    // The exported per-reason page counters partition the engine's own
    // statistics: no batch goes uncounted.
    double promoted = 0;
    double demoted = 0;
    for (const std::string& metric : metrics.ScalarNames()) {
      if (metric.rfind("audit/reason/", 0) != 0) continue;
      const double final_value = metrics.Series(metric)->back();
      if (metric.ends_with("/promoted_pages")) promoted += final_value;
      if (metric.ends_with("/demoted_pages")) demoted += final_value;
    }
    EXPECT_GT(result.migration.promoted_pages, 0u);
    EXPECT_EQ(promoted, static_cast<double>(result.migration.promoted_pages));
    EXPECT_EQ(demoted, static_cast<double>(result.migration.demoted_pages));
    if (name == "HybridTier") {
      EXPECT_GT(audit.batches(MigrationReason::kHotnessRank), 0u);
      EXPECT_GT(audit.cooling_epochs(), 0u);
    }
  }
}

TEST(ObsDeterminism, DiagnosisSinksDoNotPerturbTheSimulation) {
  // Two inputs: the default single-endpoint cell, and a three-endpoint
  // cell that loses endpoint 1 mid-run, so the diagnosis seam's
  // fault-stall and per-endpoint queue-histogram paths run too.
  struct Input {
    const char* topology;
    const char* faults;
  };
  for (const Input input :
       {Input{"", ""}, Input{"cxl:(1,2,3)", "faults:ep1@2ms=down"}}) {
    SCOPED_TRACE(input.faults);
    LatencyAttribution attr;
    const auto run = [&](bool with_diagnosis) {
      DecisionAudit audit;
      MetricRegistry metrics;
      StageProfiler stages(/*sample_every=*/1);
      auto workload = MakeWorkload("zipf", 0.25, 31);
      auto policy = MakePolicy("HybridTier");
      SimulationConfig config;
      config.max_accesses = 300000;
      config.seed = 31;
      config.topology = input.topology;
      config.faults = input.faults;
      if (with_diagnosis) {
        config.telemetry.attribution = &attr;
        config.telemetry.audit = &audit;
        config.telemetry.metrics = &metrics;
        config.telemetry.stages = &stages;
      }
      return RunSimulation(config, workload.get(), policy.get());
    };
    const SimulationResult plain = run(false);
    const SimulationResult diagnosed = run(true);
    EXPECT_EQ(plain.ops, diagnosed.ops);
    EXPECT_EQ(plain.duration_ns, diagnosed.duration_ns);
    EXPECT_EQ(plain.median_latency_ns, diagnosed.median_latency_ns);
    EXPECT_EQ(plain.p99_latency_ns, diagnosed.p99_latency_ns);
    EXPECT_EQ(plain.migration.promoted_pages,
              diagnosed.migration.promoted_pages);
    EXPECT_EQ(plain.migration.demoted_pages,
              diagnosed.migration.demoted_pages);
    EXPECT_EQ(plain.fault.stalled_accesses,
              diagnosed.fault.stalled_accesses);
    EXPECT_EQ(attr.ComponentSumNs(), attr.op_latency_ns());
    if (*input.faults != '\0') {
      EXPECT_GT(attr.component_ns(LatencyComponent::kFaultStall), 0u);
    }
  }
}

// ------------------------------------- Fleet x topology metric catalog --

TEST(ObsIntegration, TraceDropCounterSurfacesInTheRegistry) {
  MetricRegistry metrics;
  TraceEmitter trace(1, "cell");
  trace.set_max_events(4);  // Force capped drops early in the run.
  auto workload = MakeWorkload("zipf", 0.1, 43);
  auto policy = MakePolicy("HybridTier");
  SimulationConfig config;
  config.max_accesses = 300000;
  config.seed = 43;
  config.telemetry.metrics = &metrics;
  config.telemetry.trace = &trace;
  RunSimulation(config, workload.get(), policy.get());

  ASSERT_GT(trace.dropped_events(), 0u);
  const std::vector<double>* series =
      metrics.Series("obs/trace/dropped_events");
  ASSERT_NE(series, nullptr);
  ASSERT_FALSE(series->empty());
  EXPECT_EQ(series->back(),
            static_cast<double>(trace.dropped_events()));
}

/** Runs a small fleet cell on the asymmetric topology with the full
 *  diagnosis stack attached. */
struct FleetDiagnosisCell {
  MetricRegistry metrics;
  LatencyAttribution attr;
  DecisionAudit audit;
  SimulationResult result;
  uint32_t tenant_count = 0;
};

std::unique_ptr<FleetDiagnosisCell> RunFleetDiagnosisCell(
    uint32_t top_k) {
  auto cell = std::make_unique<FleetDiagnosisCell>();
  std::vector<TenantSpec> specs = ParseTenantList(
      "fleet:8,zipf=0.9,fp=256,fpskew=0.3,churn=poisson,duty=0.5,"
      "period=2e7,horizon=1e8,seed=7");
  auto mux = MakeMuxWorkload(specs, 7);
  cell->tenant_count = static_cast<uint32_t>(specs.size());
  auto fair = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                mux->directory());
  SimulationConfig config;
  config.max_accesses = 400000;
  config.seed = 7;
  config.topology = kAsymTopology;
  config.tenant_metrics_top_k = top_k;
  config.telemetry.metrics = &cell->metrics;
  config.telemetry.attribution = &cell->attr;
  config.telemetry.audit = &cell->audit;
  cell->result = RunSimulation(config, mux.get(), fair.get());
  return cell;
}

TEST(ObsIntegration, FleetTopologyCellRegistersTheDiagnosisCatalog) {
  const auto cell = RunFleetDiagnosisCell(/*top_k=*/4);
  const std::vector<std::string> names = cell->metrics.ScalarNames();
  const auto has = [&names](const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };

  // Attribution catalog: one series per component, totals, and
  // per-endpoint slow splits for all three topology endpoints.
  for (uint32_t c = 0; c < static_cast<uint32_t>(LatencyComponent::kCount);
       ++c) {
    const std::string name =
        std::string("attr/") +
        LatencyComponentName(static_cast<LatencyComponent>(c)) + "_ns";
    EXPECT_TRUE(has(name)) << name;
  }
  EXPECT_TRUE(has("attr/total_op_latency_ns"));
  for (const char* name :
       {"attr/endpoint0/slow_idle_ns", "attr/endpoint0/slow_queue_ns",
        "attr/endpoint1/slow_idle_ns", "attr/endpoint1/slow_queue_ns",
        "attr/endpoint2/slow_idle_ns", "attr/endpoint2/slow_queue_ns"}) {
    EXPECT_TRUE(has(name)) << name;
  }

  // Audit catalog: scalar counters plus one triple per reason.
  for (const char* name :
       {"audit/total_batches", "audit/premature_demotions",
        "audit/late_promotions", "audit/quota_truncated_pages",
        "audit/cooling_epochs", "audit/endpoint_reorders",
        "audit/dropped_records"}) {
    EXPECT_TRUE(has(name)) << name;
  }
  for (uint32_t r = 0; r < static_cast<uint32_t>(MigrationReason::kCount);
       ++r) {
    const std::string prefix =
        std::string("audit/reason/") +
        MigrationReasonName(static_cast<MigrationReason>(r)) + "/";
    EXPECT_TRUE(has(prefix + "batches")) << prefix;
    EXPECT_TRUE(has(prefix + "promoted_pages")) << prefix;
    EXPECT_TRUE(has(prefix + "demoted_pages")) << prefix;
  }

  // Per-endpoint device telemetry for every endpoint of the topology,
  // including the queue-delay histograms.
  for (int e = 0; e < 3; ++e) {
    const std::string prefix = "mem/endpoint" + std::to_string(e) + "/";
    EXPECT_TRUE(has(prefix + "bytes")) << prefix;
    EXPECT_TRUE(has(prefix + "accesses")) << prefix;
    EXPECT_TRUE(has(prefix + "resident_units")) << prefix;
    EXPECT_NE(cell->metrics.FindHistogram(prefix + "queue_delay_ns"),
              nullptr)
        << prefix;
  }
  // The run actually drove the slow tier through the fair-share stack.
  EXPECT_GT(cell->attr.component_ns(LatencyComponent::kSlowIdle), 0u);
  EXPECT_EQ(cell->attr.ComponentSumNs(), cell->attr.op_latency_ns());
  EXPECT_GT(cell->audit.total_batches(), 0u);
}

TEST(ObsIntegration, TenantMetricsAreCappedToTopKWithRollup) {
  const auto capped = RunFleetDiagnosisCell(/*top_k=*/4);
  const std::vector<std::string> names = capped->metrics.ScalarNames();
  size_t tenant_access_series = 0;
  bool has_other_rollup = false;
  for (const std::string& name : names) {
    if (name.rfind("tenant/", 0) == 0 &&
        name.size() > std::string("/accesses").size() &&
        name.compare(name.size() - 9, 9, "/accesses") == 0) {
      ++tenant_access_series;
    }
    if (name == "tenant/other/count") has_other_rollup = true;
  }
  // 4 named tenants + the "other" aggregate.
  EXPECT_EQ(tenant_access_series, 5u);
  EXPECT_TRUE(has_other_rollup);

  // top_k = 0 means "no cap": every tenant gets its own series and the
  // rollup disappears.
  const auto uncapped = RunFleetDiagnosisCell(/*top_k=*/0);
  size_t uncapped_series = 0;
  for (const std::string& name : uncapped->metrics.ScalarNames()) {
    if (name.rfind("tenant/", 0) == 0 &&
        name.size() > std::string("/accesses").size() &&
        name.compare(name.size() - 9, 9, "/accesses") == 0) {
      ++uncapped_series;
    }
  }
  EXPECT_EQ(uncapped_series, uncapped->tenant_count);

  // The cap changes only the metric surface, never the simulation.
  EXPECT_EQ(capped->result.duration_ns, uncapped->result.duration_ns);
  EXPECT_EQ(capped->result.ops, uncapped->result.ops);
}

}  // namespace
}  // namespace hybridtier
