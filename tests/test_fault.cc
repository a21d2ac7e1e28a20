/**
 * @file
 * Unit tests for src/fault: fault-spec parse/format round-trips, the
 * per-endpoint health state machine, the fault runtime end-to-end
 * (evacuation, spill, retry/backoff), the bounded-queue auto-enable,
 * chaos-mode determinism, and the invariant watchdog.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/units.h"
#include "core/policy_factory.h"
#include "core/simulation.h"
#include "fault/fault_spec.h"
#include "fault/health.h"
#include "fault/watchdog.h"
#include "mem/tiered_memory.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/mux_workload.h"
#include "obs/attribution.h"
#include "workloads/factory.h"

namespace hybridtier {

/** Injects accounting corruption so the watchdog tests can prove the
 *  invariant checks catch a desynchronized mirror. */
class TieredMemoryTestPeer {
 public:
  static void CorruptUsed(TieredMemory* memory, Tier tier,
                          int64_t delta) {
    memory->used_[static_cast<size_t>(tier)] +=
        static_cast<uint64_t>(delta);
  }
  static void CorruptEndpointResident(TieredMemory* memory,
                                      uint32_t endpoint, int64_t delta) {
    memory->endpoint_resident_[endpoint] += static_cast<uint64_t>(delta);
  }
  static void CorruptEndpointFastResident(TieredMemory* memory,
                                          uint32_t endpoint,
                                          int64_t delta) {
    memory->endpoint_fast_resident_[endpoint] +=
        static_cast<uint64_t>(delta);
  }
  static void CorruptRegionResident(TieredMemory* memory, uint32_t region,
                                    Tier tier, int64_t delta) {
    memory->region_resident_[static_cast<size_t>(tier)][region] +=
        static_cast<uint64_t>(delta);
  }
};

namespace {

// ---------------------------------------------------------- FaultSpec --

TEST(FaultSpec, ParsesEventsSortedByStart) {
  const FaultSchedule schedule =
      ParseFaultSpec("faults:ep2@5s=down,ep1@2s-8s=degrade3x");
  ASSERT_EQ(schedule.events.size(), 2u);
  // Canonical order is by start time: the degrade comes first.
  EXPECT_EQ(schedule.events[0].endpoint, 1u);
  EXPECT_EQ(schedule.events[0].start_ns, 2 * kSecond);
  EXPECT_EQ(schedule.events[0].end_ns, 8 * kSecond);
  EXPECT_EQ(schedule.events[0].kind, FaultKind::kDegrade);
  EXPECT_DOUBLE_EQ(schedule.events[0].factor, 3.0);
  EXPECT_EQ(schedule.events[1].endpoint, 2u);
  EXPECT_EQ(schedule.events[1].start_ns, 5 * kSecond);
  EXPECT_EQ(schedule.events[1].end_ns, 0u);  // Never clears.
  EXPECT_EQ(schedule.events[1].kind, FaultKind::kDown);
}

TEST(FaultSpec, ParsesFlapParameters) {
  const FaultSchedule schedule =
      ParseFaultSpec("faults:ep0@1ms-3ms=flap(p=0.25,period=50us)");
  ASSERT_EQ(schedule.events.size(), 1u);
  const FaultEvent& event = schedule.events[0];
  EXPECT_EQ(event.kind, FaultKind::kFlap);
  EXPECT_EQ(event.start_ns, 1 * kMillisecond);
  EXPECT_EQ(event.end_ns, 3 * kMillisecond);
  EXPECT_DOUBLE_EQ(event.flap_p, 0.25);
  EXPECT_EQ(event.flap_period_ns, 50 * kMicrosecond);
}

TEST(FaultSpec, FormatParseRoundTrips) {
  const char* specs[] = {
      "faults:ep2@5s=down",
      "faults:ep1@2s-8s=degrade3x,ep0@500ms=down",
      "faults:ep0@1ms-3ms=flap(p=0.25,period=50us),ep1@0-2.5ms=down",
  };
  for (const char* spec : specs) {
    const std::string canonical = FormatFaultSpec(ParseFaultSpec(spec));
    // Parsing the canonical form reproduces it exactly.
    EXPECT_EQ(FormatFaultSpec(ParseFaultSpec(canonical)), canonical)
        << spec;
  }
}

TEST(FaultSpec, TimesAcceptExponents) {
  const std::string canonical =
      FormatFaultSpec(ParseFaultSpec("faults:ep0@1e9-2e9=down"));
  EXPECT_EQ(canonical, "faults:ep0@1000000000-2000000000=down");
  EXPECT_EQ(canonical,
            FormatFaultSpec(ParseFaultSpec("faults:ep0@1s-2000ms=down")));
  EXPECT_EQ(FormatFaultSpec(ParseFaultSpec(canonical)), canonical);
}

TEST(FaultSpec, ChaosExpansionIsSeeded) {
  const char* spec = "faults:chaos(seed=7,endpoints=3,horizon=200ms,events=6)";
  const FaultSchedule first = ParseFaultSpec(spec);
  EXPECT_EQ(first.events.size(), 6u);
  EXPECT_LT(first.MaxEndpoint(), 3u);
  // Same spec, same concrete schedule — chaos runs replay bit-identically.
  EXPECT_EQ(FormatFaultSpec(ParseFaultSpec(spec)), FormatFaultSpec(first));
  // A different seed draws a different schedule.
  const FaultSchedule other = ParseFaultSpec(
      "faults:chaos(seed=8,endpoints=3,horizon=200ms,events=6)");
  EXPECT_NE(FormatFaultSpec(other), FormatFaultSpec(first));
  // Expanded chaos schedules round-trip like hand-written ones.
  const std::string canonical = FormatFaultSpec(first);
  EXPECT_EQ(FormatFaultSpec(ParseFaultSpec(canonical)), canonical);
}

TEST(FaultSpec, FlapCoinIsPureAndBiased) {
  // Pure function of (endpoint, slot, p): repeated calls agree.
  for (uint64_t slot = 0; slot < 64; ++slot) {
    EXPECT_EQ(FlapSlotDown(1, slot, 0.3), FlapSlotDown(1, slot, 0.3));
  }
  // Degenerate probabilities pin the coin.
  int down_p1 = 0;
  for (uint64_t slot = 0; slot < 256; ++slot) {
    EXPECT_FALSE(FlapSlotDown(0, slot, 0.0));
    if (FlapSlotDown(0, slot, 1.0)) ++down_p1;
  }
  EXPECT_EQ(down_p1, 256);
  // A middling p lands strictly between the extremes.
  int down_half = 0;
  for (uint64_t slot = 0; slot < 256; ++slot) {
    if (FlapSlotDown(2, slot, 0.5)) ++down_half;
  }
  EXPECT_GT(down_half, 0);
  EXPECT_LT(down_half, 256);
}

TEST(FaultSpecDeathTest, RejectsMalformedSpecs) {
  EXPECT_DEATH(ParseFaultSpec("faults:"), "empty fault schedule");
  EXPECT_DEATH(ParseFaultSpec("nope:ep0@1s=down"),
               "must start with 'faults:'");
  EXPECT_DEATH(ParseFaultSpec("faults:ep@1s=down"),
               "bad token '@1s=down' at byte 9 .*expected endpoint index");
  EXPECT_DEATH(ParseFaultSpec("faults:ep0@1s=frazzle"),
               "bad token .*at byte 7 .*unknown fault kind");
  EXPECT_DEATH(ParseFaultSpec("faults:ep0@1s=degrade0.5x"),
               "degrade factor must be > 1");
  EXPECT_DEATH(ParseFaultSpec("faults:ep0@5s-2s=down"),
               "end time must be after start time");
  EXPECT_DEATH(ParseFaultSpec("faults:ep0@1s=flap(p=0.1,period=50ms)"),
               "flap events require an end time");
  EXPECT_DEATH(ParseFaultSpec("faults:ep0@1s=down,"),
               "trailing ','");
  EXPECT_DEATH(
      ParseFaultSpec("faults:chaos(seed=7,endpoints=0,horizon=1s,events=2)"),
      "chaos endpoints must be an integer");
}

// ------------------------------------------------------ HealthTracker --

struct EdgeLog {
  uint32_t endpoint;
  EndpointHealth from;
  EndpointHealth to;
  double factor;
};

std::vector<EdgeLog> AdvanceTo(HealthTracker& tracker, TimeNs now) {
  std::vector<EdgeLog> log;
  tracker.Advance(now, [&](uint32_t endpoint, EndpointHealth from,
                           EndpointHealth to, double factor) {
    log.push_back({endpoint, from, to, factor});
  });
  return log;
}

TEST(HealthTracker, DownThenRecoveringThenHealthy) {
  const FaultSchedule schedule =
      ParseFaultSpec("faults:ep0@100us-200us=down");
  HealthTracker tracker(schedule, 1, /*recovery_ns=*/50 * kMicrosecond,
                        /*recovery_factor=*/2.0);
  EXPECT_EQ(tracker.state(0), EndpointHealth::kHealthy);

  EXPECT_TRUE(AdvanceTo(tracker, 99 * kMicrosecond).empty());

  auto log = AdvanceTo(tracker, 100 * kMicrosecond);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].from, EndpointHealth::kHealthy);
  EXPECT_EQ(log[0].to, EndpointHealth::kDown);
  EXPECT_EQ(tracker.state(0), EndpointHealth::kDown);

  log = AdvanceTo(tracker, 200 * kMicrosecond);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].to, EndpointHealth::kRecovering);
  EXPECT_DOUBLE_EQ(log[0].factor, 2.0);
  EXPECT_DOUBLE_EQ(tracker.factor(0), 2.0);

  log = AdvanceTo(tracker, 250 * kMicrosecond);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].to, EndpointHealth::kHealthy);
  EXPECT_DOUBLE_EQ(tracker.factor(0), 1.0);
  EXPECT_TRUE(tracker.Settled());
}

TEST(HealthTracker, OpenEndedDownNeverClears) {
  HealthTracker tracker(ParseFaultSpec("faults:ep1@1ms=down"), 2,
                        10 * kMicrosecond, 2.0);
  AdvanceTo(tracker, 1 * kSecond);
  EXPECT_EQ(tracker.state(1), EndpointHealth::kDown);
  EXPECT_EQ(tracker.state(0), EndpointHealth::kHealthy);
  EXPECT_TRUE(tracker.Settled());
}

TEST(HealthTracker, DownOutranksOverlappingDegrade) {
  // Degrade spans the down interval on both sides.
  const FaultSchedule schedule = ParseFaultSpec(
      "faults:ep0@0-10ms=degrade4x,ep0@2ms-4ms=down");
  HealthTracker tracker(schedule, 1, /*recovery_ns=*/1 * kMillisecond,
                        2.0);
  AdvanceTo(tracker, 1 * kMillisecond);
  EXPECT_EQ(tracker.state(0), EndpointHealth::kDegraded);
  EXPECT_DOUBLE_EQ(tracker.factor(0), 4.0);
  AdvanceTo(tracker, 3 * kMillisecond);
  EXPECT_EQ(tracker.state(0), EndpointHealth::kDown);
  // Back inside the degrade window (degraded outranks recovering).
  AdvanceTo(tracker, 5 * kMillisecond);
  EXPECT_EQ(tracker.state(0), EndpointHealth::kDegraded);
  AdvanceTo(tracker, 20 * kMillisecond);
  EXPECT_EQ(tracker.state(0), EndpointHealth::kHealthy);
}

TEST(HealthTracker, FlapExpansionIsDeterministic) {
  const FaultSchedule schedule = ParseFaultSpec(
      "faults:ep0@0-5ms=flap(p=0.4,period=100us)");
  HealthTracker a(schedule, 1, 50 * kMicrosecond, 2.0);
  HealthTracker b(schedule, 1, 50 * kMicrosecond, 2.0);
  int down_samples = 0;
  for (TimeNs t = 0; t <= 6 * kMillisecond; t += 25 * kMicrosecond) {
    AdvanceTo(a, t);
    AdvanceTo(b, t);
    ASSERT_EQ(a.state(0), b.state(0)) << "diverged at t=" << t;
    if (a.state(0) == EndpointHealth::kDown) ++down_samples;
  }
  // p=0.4 over 50 slots: some slots flap down, not all of them.
  EXPECT_GT(down_samples, 0);
  EXPECT_LT(down_samples, 240);
}

// ------------------------------------------- Fault runtime end-to-end --

SimulationConfig FaultTestConfig() {
  SimulationConfig config;
  config.max_accesses = 2000000;
  config.max_time_ns = 20 * kMillisecond;
  config.stats_interval_ns = 1 * kMillisecond;
  config.seed = 13;
  config.topology = "cxl:(1,2,3),lat=124:180:180,bw=34:17:17";
  config.fault_runtime.evac_batch = 4096;
  config.fault_runtime.spill_batch = 4096;
  return config;
}

TEST(FaultRuntime, NoFaultSpecLeavesCountersZero) {
  auto workload = MakeWorkload("zipf", 0.1, 13);
  auto policy = MakePolicy("HybridTier");
  SimulationConfig config = FaultTestConfig();
  Simulation simulation(config, workload.get(), policy.get());
  const SimulationResult result = simulation.Run();
  EXPECT_EQ(result.fault.transitions, 0u);
  EXPECT_EQ(result.fault.stalled_accesses, 0u);
  EXPECT_EQ(result.fault.evacuated_pages, 0u);
  EXPECT_EQ(result.fault.spilled_pages, 0u);
}

TEST(FaultRuntime, DownEndpointDrainsAndAttributionStillSums) {
  LatencyAttribution attr;
  auto workload = MakeWorkload("zipf", 0.1, 13);
  auto policy = MakePolicy("HybridTier");
  SimulationConfig config = FaultTestConfig();
  // Room for the full drain: ep2's homed footprint (~1/3) must fit in
  // fast (HDM decode pins slow homes — see fault_runtime.h).
  config.fast_tier_fraction = 0.4;
  config.faults = "faults:ep2@2ms=down";
  config.watchdog = true;
  config.telemetry.attribution = &attr;

  Simulation simulation(config, workload.get(), policy.get());
  const SimulationResult result = simulation.Run();

  // The outage was seen and handled.
  EXPECT_EQ(result.fault.endpoints_downed, 1u);
  EXPECT_GT(result.fault.evacuated_pages, 0u);
  // Every resident page left the dead endpoint.
  EXPECT_EQ(simulation.memory().EndpointResident(2), 0u);

  // The decomposition still sums exactly, with the outage visible as
  // the fault-stall component (one constant stall per rejected access).
  ASSERT_GT(attr.ops(), 0u);
  EXPECT_EQ(attr.ComponentSumNs(), attr.op_latency_ns());
  EXPECT_EQ(attr.component_ns(LatencyComponent::kFaultStall),
            result.fault.stalled_accesses * kFaultStallNs);
}

TEST(FaultRuntime, EvacuationParksInBackoffWhenFastCannotHoldDrain) {
  auto workload = MakeWorkload("zipf", 0.1, 13);
  auto policy = MakePolicy("HybridTier");
  SimulationConfig config = FaultTestConfig();
  // 1:8 with 3 endpoints: ep2's homed share (~1/3) cannot fit in fast
  // (1/8), so after spill runs dry the evacuation must back off instead
  // of spinning, leaving stragglers that pay the fault stall.
  config.fast_tier_fraction = 1.0 / 8;
  config.faults = "faults:ep2@2ms=down";
  // Long enough for the doubling backoff to reach its cap.
  config.max_time_ns = 200 * kMillisecond;

  Simulation simulation(config, workload.get(), policy.get());
  const SimulationResult result = simulation.Run();

  // Exact counts: the retry count follows the backoff schedule (first
  // delay, doubling, cap), so it pins all three.
  EXPECT_EQ(result.fault.evac_retries, 9u);
  EXPECT_EQ(result.fault.evacuated_pages, 418u);
  EXPECT_EQ(result.fault.stalled_accesses, 62320u);
  EXPECT_EQ(result.duration_ns, 200004161u);
  EXPECT_GT(simulation.memory().EndpointResident(2), 0u);
}

// An endpoint that goes down and comes back: evacuation while down, then
// the recovering window, which serves the endpoint's traffic at a
// degraded rate before it turns healthy again. Exact values pin the
// recovery-window service factor along with the drain.
TEST(FaultRuntime, DownThenRecoverWindowMatchesGolden) {
  auto workload = MakeWorkload("zipf", 0.1, 13);
  auto policy = MakePolicy("HybridTier");
  SimulationConfig config = FaultTestConfig();
  config.fast_tier_fraction = 0.4;
  config.faults = "faults:ep2@2ms-6ms=down";
  config.watchdog = true;

  Simulation simulation(config, workload.get(), policy.get());
  const SimulationResult result = simulation.Run();

  EXPECT_EQ(result.fault.transitions, 3u);  // down, recovering, healthy.
  EXPECT_EQ(result.fault.endpoints_downed, 1u);
  EXPECT_EQ(result.fault.endpoints_recovered, 1u);
  EXPECT_EQ(result.accesses, 207760u);
  EXPECT_EQ(result.duration_ns, 20000225u);
  EXPECT_EQ(result.slow_mem_accesses, 64407u);
  EXPECT_EQ(result.fault.evacuated_pages, 1009u);
  EXPECT_EQ(result.fault.stalled_accesses, 0u);
  // Doubles must match bit-for-bit, not approximately.
  EXPECT_EQ(result.median_latency_ns, 356.32379518072287);
  EXPECT_EQ(result.p99_latency_ns, 704.33749999999998);
  EXPECT_EQ(result.mean_latency_ns, 385.06401617250674);
}

// A fault schedule selects the bounded queue model (an unbounded
// backlog integrates forever across an outage); fault-free runs keep
// the unbounded one.
TEST(FaultRuntime, DownScheduleForceEnablesBoundedQueue) {
  auto workload = MakeWorkload("zipf", 0.1, 13);
  auto policy = MakePolicy("HybridTier");
  SimulationConfig config = FaultTestConfig();
  {
    Simulation fault_free(config, workload.get(), policy.get());
    EXPECT_FALSE(fault_free.perf_model().queue_bounded());
  }
  workload = MakeWorkload("zipf", 0.1, 13);
  policy = MakePolicy("HybridTier");
  config.faults = "faults:ep1@5ms=down";
  Simulation simulation(config, workload.get(), policy.get());
  EXPECT_TRUE(simulation.perf_model().queue_bounded());
  const SimulationResult result = simulation.Run();
  EXPECT_EQ(result.fault.endpoints_downed, 1u);
}

TEST(FaultRuntime, ChaosScheduleIsDeterministicAcrossReruns) {
  const char* chaos =
      "faults:chaos(seed=7,endpoints=3,horizon=15ms,events=4)";
  SimulationResult results[2];
  uint64_t resident[2][3];
  for (int run = 0; run < 2; ++run) {
    auto workload = MakeWorkload("zipf", 0.1, 13);
    auto policy = MakePolicy("HybridTier");
    SimulationConfig config = FaultTestConfig();
    config.faults = chaos;
    config.watchdog = true;
    Simulation simulation(config, workload.get(), policy.get());
    results[run] = simulation.Run();
    for (uint32_t e = 0; e < 3; ++e) {
      resident[run][e] = simulation.memory().EndpointResident(e);
    }
  }
  EXPECT_EQ(results[0].accesses, results[1].accesses);
  EXPECT_EQ(results[0].duration_ns, results[1].duration_ns);
  EXPECT_EQ(results[0].median_latency_ns, results[1].median_latency_ns);
  EXPECT_EQ(results[0].p99_latency_ns, results[1].p99_latency_ns);
  EXPECT_EQ(results[0].fault.transitions, results[1].fault.transitions);
  EXPECT_EQ(results[0].fault.evacuated_pages,
            results[1].fault.evacuated_pages);
  EXPECT_EQ(results[0].fault.stalled_accesses,
            results[1].fault.stalled_accesses);
  EXPECT_EQ(results[0].migration.promoted_pages,
            results[1].migration.promoted_pages);
  for (uint32_t e = 0; e < 3; ++e) {
    EXPECT_EQ(resident[0][e], resident[1][e]) << "endpoint " << e;
  }
  // And the chaos run actually injected something.
  EXPECT_GT(results[0].fault.transitions, 0u);
}

// Regression: a Poisson-churning fleet loses an endpoint for good.
// Departing tenants hold fast units homed on it that the engine
// refuses to demote; the paced drain must park on them rather than
// step past and trip its accounting check, and the run must finish
// with the watchdog silent and replay identically.
TEST(FaultRuntime, ChurningFleetDrainSurvivesDownEndpoint) {
  auto run = [] {
    auto mux = MakeMuxWorkload(
        ParseTenantList("fleet:16,zipf=0.9,fp=256,fpskew=0.3,"
                        "churn=poisson,seed=7"),
        42);
    FairSharePolicy fair(MakePolicy("HybridTier"), mux->directory());
    SimulationConfig config;
    config.fast_tier_fraction = 0.4;
    config.max_accesses = 300000;
    config.seed = 42;
    config.topology = "cxl:(1,(2,3)),lat=124:250:250,bw=34:8:8,link=10";
    config.faults = "faults:ep2@5ms=down";
    config.watchdog = true;
    return RunSimulation(config, mux.get(), &fair);
  };
  const SimulationResult a = run();
  const SimulationResult b = run();
  EXPECT_EQ(a.fault.endpoints_downed, 1u);
  EXPECT_GT(a.fault.evacuated_pages, 0u);
  EXPECT_EQ(a.accesses, 300000u);
  EXPECT_EQ(a.duration_ns, b.duration_ns);
  EXPECT_EQ(a.migration.demoted_pages, b.migration.demoted_pages);
  EXPECT_EQ(a.weighted_jain_fairness, b.weighted_jain_fairness);
}

// -------------------------------------------------- InvariantWatchdog --

TEST(Watchdog, CleanMemoryPasses) {
  TieredMemory memory(/*total_pages=*/1024, /*fast_capacity=*/128,
                      /*slow_capacity=*/1024, AllocationPolicy::kFastFirst,
                      /*endpoint_count=*/2, /*interleave_units=*/4);
  for (PageId page = 0; page < 512; ++page) memory.Touch(page, 0);
  InvariantWatchdog watchdog(&memory);
  EXPECT_TRUE(watchdog.RunChecks(0));
  EXPECT_EQ(watchdog.violations(), 0u);
  EXPECT_EQ(watchdog.last_error(), "");
}

TEST(Watchdog, CatchesUsedCounterCorruption) {
  TieredMemory memory(1024, 128, 1024, AllocationPolicy::kFastFirst, 2, 4);
  for (PageId page = 0; page < 512; ++page) memory.Touch(page, 0);
  InvariantWatchdog watchdog(&memory);
  ASSERT_TRUE(watchdog.RunChecks(0));
  TieredMemoryTestPeer::CorruptUsed(&memory, Tier::kSlow, +3);
  EXPECT_FALSE(watchdog.RunChecks(1000));
  EXPECT_GT(watchdog.violations(), 0u);
  EXPECT_NE(watchdog.last_error().find("memory_accounting"),
            std::string::npos)
      << watchdog.last_error();
}

TEST(Watchdog, CatchesEndpointMirrorCorruption) {
  TieredMemory memory(1024, 128, 1024, AllocationPolicy::kFastFirst, 2, 4);
  for (PageId page = 0; page < 512; ++page) memory.Touch(page, 0);
  InvariantWatchdog watchdog(&memory);
  ASSERT_TRUE(watchdog.RunChecks(0));
  TieredMemoryTestPeer::CorruptEndpointResident(&memory, 1, -1);
  EXPECT_FALSE(watchdog.RunChecks(1000));

  // The fast-resident-by-home mirror is checked independently.
  TieredMemory memory2(1024, 128, 1024, AllocationPolicy::kFastFirst, 2, 4);
  for (PageId page = 0; page < 512; ++page) memory2.Touch(page, 0);
  InvariantWatchdog watchdog2(&memory2);
  ASSERT_TRUE(watchdog2.RunChecks(0));
  TieredMemoryTestPeer::CorruptEndpointFastResident(&memory2, 0, +2);
  EXPECT_FALSE(watchdog2.RunChecks(1000));
}

TEST(Watchdog, CatchesRegionTallyCorruption) {
  TieredMemory memory(1024, 128, 1024, AllocationPolicy::kFastFirst, 2, 4);
  memory.DefineRegions({PageRange{0, 512}, PageRange{512, 1024}});
  for (PageId page = 0; page < 700; ++page) memory.Touch(page, 0);
  InvariantWatchdog watchdog(&memory);
  ASSERT_TRUE(watchdog.RunChecks(0)) << watchdog.last_error();
  TieredMemoryTestPeer::CorruptRegionResident(&memory, 1, Tier::kSlow, +1);
  EXPECT_FALSE(watchdog.RunChecks(1000));
  EXPECT_NE(watchdog.last_error().find("region 1 slow"), std::string::npos)
      << watchdog.last_error();
}

TEST(Watchdog, CatchesAttributionIdentityViolation) {
  TieredMemory memory(64, 16, 64);
  LatencyAttribution attr;
  attr.Configure(/*endpoint_count=*/1, /*tenant_count=*/1);
  InvariantWatchdog watchdog(&memory, &attr);
  // Balanced books pass.
  attr.AddOpOverhead(0, 100);
  attr.CloseOp(0, 100);
  EXPECT_TRUE(watchdog.RunChecks(0));
  // An op closed with latency nothing was attributed to trips the
  // identity check.
  attr.CloseOp(0, 40);
  EXPECT_FALSE(watchdog.RunChecks(1000));
  EXPECT_NE(watchdog.last_error().find("attribution_identity"),
            std::string::npos)
      << watchdog.last_error();
}

TEST(Watchdog, RegisteredSourceIsConsulted) {
  struct FailingSource : InvariantSource {
    bool CheckInvariants(std::string* error) const override {
      *error = "synthetic failure";
      return false;
    }
  };
  TieredMemory memory(64, 16, 64);
  InvariantWatchdog watchdog(&memory);
  EXPECT_TRUE(watchdog.RunChecks(0));
  FailingSource source;
  watchdog.RegisterSource("synthetic", &source);
  EXPECT_FALSE(watchdog.RunChecks(1));
  EXPECT_NE(watchdog.last_error().find("synthetic failure"),
            std::string::npos);
}

}  // namespace
}  // namespace hybridtier
