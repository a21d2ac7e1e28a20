/**
 * @file
 * Unit tests for the multi-endpoint slow-tier topology: spec
 * parse/format round-trips and rejections, HDM endpoint decode,
 * per-endpoint channel queueing in the perf model, the bounded-queue
 * backlog clamp, endpoint accounting through TieredMemory, and the
 * single-endpoint layout's equivalence with a run that configures no
 * topology.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>

#include "common/rng.h"
#include "common/units.h"
#include "core/policy_factory.h"
#include "core/simulation.h"
#include "mem/perf_model.h"
#include "mem/tier.h"
#include "mem/tiered_memory.h"
#include "mem/topology.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/mux_workload.h"
#include "reference/hdm_decode.h"
#include "workloads/factory.h"

namespace hybridtier {
namespace {

// ------------------------------------------------------- spec parsing --

TEST(TopologySpec, DefaultIsTheSingleLegacyDevice) {
  const Topology topology = DefaultTopology();
  ASSERT_EQ(topology.endpoint_count(), 1u);
  EXPECT_EQ(topology.endpoints[0].idle_latency_ns, 124u);
  EXPECT_EQ(topology.endpoints[0].bandwidth_gbps, 34.0);
  EXPECT_TRUE(topology.switches.empty());
  EXPECT_EQ(topology.interleave_units, 1u);
  // `cxl:(1)` with default knobs parses to exactly this device.
  EXPECT_EQ(ParseTopologySpec("cxl:(1)"), topology);
}

TEST(TopologySpec, IsTopologySpecChecksThePrefix) {
  EXPECT_TRUE(IsTopologySpec("cxl:(1,2)"));
  EXPECT_FALSE(IsTopologySpec("fleet:10"));
  EXPECT_FALSE(IsTopologySpec("zipf,cdn:2"));
  EXPECT_FALSE(IsTopologySpec(""));
}

TEST(TopologySpec, ParsesTreeKnobsAndDefaults) {
  const Topology topology = ParseTopologySpec(
      "cxl:(1,(2,3)),lat=124:180:180,bw=34:17:17,link=20,gran=64");
  ASSERT_EQ(topology.endpoint_count(), 3u);
  EXPECT_EQ(topology.endpoints[0].idle_latency_ns, 124u);
  EXPECT_EQ(topology.endpoints[1].idle_latency_ns, 180u);
  EXPECT_EQ(topology.endpoints[2].bandwidth_gbps, 17.0);
  EXPECT_EQ(topology.endpoints[0].switch_id, -1);
  EXPECT_EQ(topology.endpoints[1].switch_id, 0);
  EXPECT_EQ(topology.endpoints[2].switch_id, 0);
  ASSERT_EQ(topology.switches.size(), 1u);
  EXPECT_EQ(topology.switches[0].link_gbps, 20.0);
  EXPECT_EQ(topology.interleave_units, 64u);

  // Omitted knobs take the documented defaults: paper-device lat/bw,
  // a non-saturating uplink (sum of member bandwidth), gran=1.
  const Topology defaults = ParseTopologySpec("cxl:((1,2),3)");
  ASSERT_EQ(defaults.endpoint_count(), 3u);
  EXPECT_EQ(defaults.endpoints[2].idle_latency_ns, 124u);
  EXPECT_EQ(defaults.endpoints[2].bandwidth_gbps, 34.0);
  ASSERT_EQ(defaults.switches.size(), 1u);
  EXPECT_EQ(defaults.switches[0].link_gbps, 68.0);
  EXPECT_EQ(defaults.interleave_units, 1u);
}

TEST(TopologySpec, FormatParseRoundTripsExactly) {
  for (const char* spec : {
           "cxl:(1)",
           "cxl:(1,2,3)",
           "cxl:(1,(2,3)),lat=124:180:180,bw=34:17:17,link=20",
           "cxl:((1,2),(3,4)),link=40:12,gran=512",
           "cxl:(2,1),lat=200:100",         // ids out of order.
           "cxl:((3,2),1),bw=34:17:8.5",    // switch listed first.
       }) {
    const Topology topology = ParseTopologySpec(spec);
    const std::string canonical = FormatTopologySpec(topology);
    EXPECT_TRUE(IsTopologySpec(canonical)) << canonical;
    EXPECT_EQ(ParseTopologySpec(canonical), topology) << canonical;
    // Format is a fixed point: canonical specs reformat to themselves.
    EXPECT_EQ(FormatTopologySpec(ParseTopologySpec(canonical)), canonical);
  }
}

TEST(TopologySpecDeathTest, RejectsMalformedSpecs) {
  // Parse errors quote the offending token and its byte offset within
  // the spec (see common/spec_reader.h); the patterns pin both.
  // Endpoint ids must be exactly 1..N, each once.
  EXPECT_DEATH(ParseTopologySpec("cxl:(1,1)"),
               "bad token '1' at byte 7 .*endpoint id repeats");
  EXPECT_DEATH(ParseTopologySpec("cxl:(1,3)"), "missing id 2");
  EXPECT_DEATH(ParseTopologySpec("cxl:(0,1)"),
               "bad token '0' at byte 5 .*endpoint id must be an integer");
  EXPECT_DEATH(ParseTopologySpec("cxl:()"),
               "at byte 4 .*parenthesized child list");
  EXPECT_DEATH(ParseTopologySpec("cxl:(1,(2,(3,4)))"),  // Nested switch.
               "at byte 10 .*nests inside a switch");
  EXPECT_DEATH(ParseTopologySpec("cxl:(1,(2,3)"),       // Unbalanced.
               "at byte 4 .*unbalanced parentheses");
  EXPECT_DEATH(ParseTopologySpec("cxl:(1,2),lat=124"),  // Count.
               "bad token '124' at byte 14 .*1 latencies for 2 endpoints");
  EXPECT_DEATH(ParseTopologySpec("cxl:(1),bw=0"), "");
  EXPECT_DEATH(ParseTopologySpec("cxl:(1),lat=-5"),
               "bad token '-5' at byte 12 .*latency must be >= 0");
  EXPECT_DEATH(ParseTopologySpec("cxl:(1),gran=0"),
               "at byte 13 .*gran must be a positive integer");
  EXPECT_DEATH(ParseTopologySpec("cxl:(1),gran=1.5"),
               "bad token '1.5' at byte 13 ");
  EXPECT_DEATH(ParseTopologySpec("cxl:(1),color=red"),  // Unknown key.
               "bad token 'color' at byte 8 .*unknown topology key");
  EXPECT_DEATH(ParseTopologySpec("cxl:(1,2),link=10"), "");  // No switch.
  EXPECT_DEATH(ParseTopologySpec("cxl:1,2"),            // No tree.
               "bad token '1' at byte 4 .*must start with a device tree");
  EXPECT_DEATH(ParseTopologySpec("cxl:(1),lat"),
               "bad token 'lat' at byte 8 .*expected key=value");
  EXPECT_DEATH(ParseTopologySpec("cxl:(1),lat=abc"),
               "bad token 'abc' at byte 12 .*not a number");
}

// --------------------------------------------------------- HDM decode --

TEST(Topology, EndpointOfInterleavesByGranularity) {
  // The topology's layout feeds TieredMemory, the one HDM decoder.
  const Topology topology = ParseTopologySpec("cxl:(1,2,3),gran=4");
  TieredMemory mem(100, 10, 100, AllocationPolicy::kSlowOnly,
                   topology.endpoint_count(), topology.interleave_units);
  EXPECT_EQ(mem.EndpointOf(0), 0u);
  EXPECT_EQ(mem.EndpointOf(3), 0u);
  EXPECT_EQ(mem.EndpointOf(4), 1u);
  EXPECT_EQ(mem.EndpointOf(11), 2u);
  EXPECT_EQ(mem.EndpointOf(12), 0u);  // Wraps around.
  // Single-endpoint layouts decode everything to endpoint 0.
  const Topology single = DefaultTopology();
  TieredMemory single_mem(20000, 10, 20000, AllocationPolicy::kSlowOnly,
                          single.endpoint_count(), single.interleave_units);
  EXPECT_EQ(single_mem.EndpointOf(12345), 0u);
}

TEST(Topology, EndpointOfMatchesDivisionReference) {
  // The multiply-based decode against `(page / gran) % endpoints`, over
  // stripe edges at both ends of the range the decoder is exact for, at
  // odd and power-of-two granularities, and through TieredMemory.
  Rng rng(5);
  for (const uint64_t gran : {1, 2, 3, 7, 512}) {
    for (uint32_t endpoints = 1; endpoints <= 8; ++endpoints) {
      SCOPED_TRACE("gran " + std::to_string(gran) + ", " +
                   std::to_string(endpoints) + " endpoints");
      const HdmDecoder hdm(endpoints, gran);
      const uint64_t period = gran * endpoints;
      const PageId last = hdm.max_exact_page();
      ASSERT_EQ(last, UINT64_MAX / period);
      const auto check = [&](PageId page) {
        ASSERT_EQ(hdm.EndpointOf(page),
                  reference::EndpointOf(page, endpoints, gran))
            << "page " << page;
      };
      for (PageId page = 0; page < 4 * period + 3; ++page) check(page);
      for (PageId page = last - std::min<PageId>(last, 4 * period + 3);
           page < last; ++page) {
        check(page);
      }
      check(last);
      for (int i = 0; i < 2000; ++i) {
        // Stripe edges spread over the whole exact range.
        const PageId stripe_start = rng.NextBounded(last / gran) * gran;
        for (const PageId page :
             {stripe_start, stripe_start + gran - 1, stripe_start - 1}) {
          if (page <= last) check(page);
        }
        check(rng.NextBounded(last) + 1);
      }
      TieredMemory mem(1000, 10, 1000, AllocationPolicy::kSlowOnly,
                       endpoints, gran);
      for (PageId page = 0; page < 1000; ++page) {
        ASSERT_EQ(mem.EndpointOf(page),
                  reference::EndpointOf(page, endpoints, gran));
      }
    }
  }
}

// -------------------------------------------- per-endpoint perf model --

PerfModel MakeTopoPerf(const std::string& spec,
                       PerfModelConfig config = PerfModelConfig{}) {
  return PerfModel(config, DefaultFastTier(1000), ParseTopologySpec(spec));
}

TEST(PerfModelTopology, EndpointsHaveIndependentQueues) {
  PerfModel perf = MakeTopoPerf("cxl:(1,2)");
  // Saturate endpoint 0's port channel with back-to-back accesses.
  for (int i = 0; i < 200; ++i) perf.MemoryAccess(Tier::kSlow, 0, 0);
  EXPECT_GT(perf.MemoryAccess(Tier::kSlow, 0, 1), 124u);
  // Endpoint 1 is untouched: same instant, zero queueing delay.
  EXPECT_EQ(perf.MemoryAccess(Tier::kSlow, 1, 1), 124u);
  EXPECT_GT(perf.EndpointBacklog(0, 1), 0u);
  EXPECT_EQ(perf.EndpointAccesses(0), 201u);
  EXPECT_EQ(perf.EndpointAccesses(1), 1u);
}

TEST(PerfModelTopology, BusyUntilAdvancesPerAccess) {
  PerfModel perf = MakeTopoPerf("cxl:(1,2)");
  // Each arrival at the same instant queues behind the previous one,
  // monotonically, until the delay cap.
  TimeNs previous = perf.MemoryAccess(Tier::kSlow, 0, 0);
  for (int i = 0; i < 5; ++i) {
    const TimeNs latency = perf.MemoryAccess(Tier::kSlow, 0, 0);
    EXPECT_GT(latency, previous);
    previous = latency;
  }
  // Once the channel drains past the arrival time, latency is idle again.
  EXPECT_EQ(perf.MemoryAccess(Tier::kSlow, 0, kSecond), 124u);
}

TEST(PerfModelTopology, SharedSwitchLinkCouplesItsMembers) {
  // Two far endpoints behind a 1 GB/s uplink: traffic to endpoint 0
  // delays endpoint 1 through the shared link, but a direct-attached
  // third endpoint is unaffected.
  PerfModel perf = MakeTopoPerf("cxl:((1,2),3),link=1");
  for (int i = 0; i < 200; ++i) perf.MemoryAccess(Tier::kSlow, 0, 0);
  EXPECT_GT(perf.MemoryAccess(Tier::kSlow, 1, 1), 124u);
  EXPECT_EQ(perf.MemoryAccess(Tier::kSlow, 2, 1), 124u);
}

TEST(PerfModelTopology, MigrationTrafficDelaysDemandAccesses) {
  PerfModel perf = MakeTopoPerf("cxl:(1,2)");
  // A large copy onto endpoint 0 queues demand accesses behind it;
  // endpoint 1 stays idle.
  perf.OccupyEndpoint(0, 64 * kMiB, 0);
  EXPECT_GT(perf.MemoryAccess(Tier::kSlow, 0, 1), 124u);
  EXPECT_EQ(perf.MemoryAccess(Tier::kSlow, 1, 1), 124u);
}

TEST(PerfModelTopology, MigrationCostSingleEndpointMatchesTwoTierFormula) {
  // One endpoint reproduces the two-tier cost: syscall + per-page
  // kernel work + the longer of the fast (100 GB/s) and slow (34 GB/s)
  // copy legs, 64 x 4 KiB = 262144 bytes each.
  PerfModel perf = MakeTopoPerf("cxl:(1)");
  const uint64_t pages[] = {64};
  const TimeNs expected = 4000 + 64 * 1200 + std::max<TimeNs>(
                                                 262144 / 100, 262144 / 34);
  EXPECT_EQ(perf.MigrationCost(pages, kPageSize, 0), expected);
  EXPECT_EQ(perf.BytesTransferred(Tier::kFast), 262144u);
  EXPECT_EQ(perf.EndpointBytes(0), 262144u);
}

TEST(PerfModelTopology, MigrationCostSplitEndsAtSlowestLeg) {
  // Endpoint 2 has 1/8 the bandwidth: a batch split evenly across both
  // finishes when the slow leg does, so it costs more than the same
  // total traffic on the fast endpoint alone.
  PerfModel perf = MakeTopoPerf("cxl:(1,2),bw=34:4.25");
  PerfModel balanced = MakeTopoPerf("cxl:(1,2),bw=34:34");
  const uint64_t both[] = {32, 32};
  EXPECT_GT(perf.MigrationCost(both, kPageSize, 0),
            balanced.MigrationCost(both, kPageSize, 0));
}

// ------------------------------------------------- bounded-queue clamp --

/**
 * Regression for the unbounded busy-horizon bug: the queue-delay cap
 * historically truncated only what each access *pays*, while the
 * channel's busy_until kept growing without bound under saturation —
 * backlog no access would ever observe, and which never drained. After
 * `BoundQueue()` the horizon is clamped at the cap before each new
 * transfer, so once the clock moves past cap + one service time the
 * channel must be idle again. (Only fault runs bound the queue — see
 * `PerfModel::BoundQueue` — and this test documents both sides.)
 */
TEST(PerfModelTopology, BoundedQueueShedsRunawayBacklog) {
  PerfModelConfig config;
  config.max_queue_delay_ns = 500;

  // Default behavior: 100k same-instant accesses push the horizon far
  // beyond the cap, so an access arriving well after cap+service still
  // queues — the saturation never ends.
  PerfModel unbounded(config, DefaultFastTier(1000), DefaultTopology());
  for (int i = 0; i < 100000; ++i) unbounded.MemoryAccess(Tier::kSlow, 0, 0);
  EXPECT_GT(unbounded.MemoryAccess(Tier::kSlow, 0, 1000000), 124u);

  // Bounded queue: the same burst's horizon is clamped at the cap, so
  // by now + cap + one service time the channel has fully drained.
  PerfModel bounded(config, DefaultFastTier(1000), DefaultTopology());
  bounded.BoundQueue();
  for (int i = 0; i < 100000; ++i) bounded.MemoryAccess(Tier::kSlow, 0, 0);
  EXPECT_EQ(bounded.MemoryAccess(Tier::kSlow, 0, 1000000), 124u);
  // And the cap still applies while saturated.
  PerfModel saturated(config, DefaultFastTier(1000), DefaultTopology());
  saturated.BoundQueue();
  for (int i = 0; i < 1000; ++i) saturated.MemoryAccess(Tier::kSlow, 0, 0);
  EXPECT_LE(saturated.MemoryAccess(Tier::kSlow, 0, 0), 124u + 500u);
}

// ------------------------------------------ endpoint residency tracking --

TEST(TieredMemoryTopology, TracksPerEndpointResidency) {
  // 2 endpoints, gran=1: even units home on endpoint 0, odd on 1.
  TieredMemory mem(100, 4, 100, AllocationPolicy::kSlowOnly,
                   /*endpoint_count=*/2, /*interleave_units=*/1);
  for (PageId page = 0; page < 10; ++page) mem.Touch(page, 0);
  EXPECT_EQ(mem.EndpointResident(0), 5u);
  EXPECT_EQ(mem.EndpointResident(1), 5u);
  EXPECT_EQ(mem.EndpointOf(6), 0u);
  EXPECT_EQ(mem.EndpointOf(7), 1u);

  // Promotion leaves the endpoint; demotion returns to the static home.
  ASSERT_TRUE(mem.Migrate(6, Tier::kFast));
  EXPECT_EQ(mem.EndpointResident(0), 4u);
  ASSERT_TRUE(mem.Migrate(6, Tier::kSlow));
  EXPECT_EQ(mem.EndpointResident(0), 5u);

  // Release frees the endpoint's count too.
  mem.Release(PageRange{7, 8});
  EXPECT_EQ(mem.EndpointResident(1), 4u);

  // Touch results carry the home endpoint for slow hits.
  EXPECT_EQ(mem.Touch(9, 0).endpoint, 1u);
  ASSERT_TRUE(mem.Migrate(9, Tier::kFast));
  EXPECT_EQ(mem.Touch(9, 0).endpoint, 0u);  // Fast hits report 0.
}

// ------------------------------ end-to-end single endpoint == default --

TEST(SimulationTopology, ExplicitSingleEndpointMatchesLegacyDefault) {
  // `cxl:(1)` with the paper-default knobs must reproduce a run with no
  // topology configured bit-for-bit: same durations, same counters.
  SimulationConfig legacy;
  legacy.max_accesses = 150000;
  legacy.seed = 11;
  SimulationConfig topo = legacy;
  topo.topology = "cxl:(1),lat=124,bw=34,gran=1";

  for (const char* policy_name : {"HybridTier", "Memtis"}) {
    auto workload_a = MakeWorkload("zipf", 0.05, 11);
    auto policy_a = MakePolicy(policy_name);
    const SimulationResult a =
        RunSimulation(legacy, workload_a.get(), policy_a.get());
    auto workload_b = MakeWorkload("zipf", 0.05, 11);
    auto policy_b = MakePolicy(policy_name);
    const SimulationResult b =
        RunSimulation(topo, workload_b.get(), policy_b.get());
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.duration_ns, b.duration_ns);
    EXPECT_EQ(a.fast_mem_accesses, b.fast_mem_accesses);
    EXPECT_EQ(a.slow_mem_accesses, b.slow_mem_accesses);
    EXPECT_EQ(a.migration.promoted_pages, b.migration.promoted_pages);
    EXPECT_EQ(a.migration.demoted_pages, b.migration.demoted_pages);
    EXPECT_EQ(a.median_latency_ns, b.median_latency_ns);
    EXPECT_EQ(a.p99_latency_ns, b.p99_latency_ns);
    EXPECT_EQ(a.throughput_mops, b.throughput_mops);
  }
}

TEST(SimulationTopology, MultiEndpointRunsAreDeterministic) {
  SimulationConfig config;
  config.max_accesses = 150000;
  config.seed = 11;
  config.topology = "cxl:(1,(2,3)),lat=124:180:180,bw=34:17:17,link=20";
  auto run = [&] {
    auto workload = MakeWorkload("zipf", 0.05, 11);
    auto policy = MakePolicy("HybridTier");
    return RunSimulation(config, workload.get(), policy.get());
  };
  const SimulationResult a = run();
  const SimulationResult b = run();
  EXPECT_EQ(a.duration_ns, b.duration_ns);
  EXPECT_EQ(a.slow_mem_accesses, b.slow_mem_accesses);
  EXPECT_EQ(a.median_latency_ns, b.median_latency_ns);
  EXPECT_EQ(a.p99_latency_ns, b.p99_latency_ns);
}

// ----------------------------------------- endpoint-aware fair share --

TEST(SimulationTopology, EndpointAwareSteersHotUnitsOffCostlyEndpoint) {
  // One endpoint degraded to a fraction of the others' bandwidth with
  // 4x the latency: the aware policy must serve fewer slow accesses
  // from it than the blind policy under the same stream.
  auto run = [&](bool aware) {
    auto mux = MakeMuxWorkload(ParseTenantList("zipf,zipf:2"), 11);
    FairShareConfig fair_config;
    fair_config.endpoint_aware = aware;
    auto policy = std::make_unique<FairSharePolicy>(
        MakePolicy("HybridTier"), mux->directory(), fair_config);
    SimulationConfig config;
    config.fast_tier_fraction = 1.0 / 8;
    config.max_accesses = 1000000;
    config.seed = 11;
    config.topology = "cxl:(1,2,3),lat=124:124:420,bw=34:34:4";
    Simulation simulation(config, mux.get(), policy.get());
    const SimulationResult result = simulation.Run();
    const PerfModel& perf = simulation.perf_model();
    uint64_t total = 0;
    for (uint32_t e = 0; e < perf.EndpointCount(); ++e) {
      total += perf.EndpointAccesses(e);
    }
    EXPECT_GT(total, 0u);
    (void)result;
    return static_cast<double>(perf.EndpointAccesses(2)) /
           static_cast<double>(total);
  };
  const double blind_share = run(false);
  const double aware_share = run(true);
  EXPECT_LT(aware_share, blind_share);
}

}  // namespace
}  // namespace hybridtier
