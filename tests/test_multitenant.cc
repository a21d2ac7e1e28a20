/**
 * @file
 * Unit tests for src/multitenant: tenant-list parsing, MuxWorkload
 * layout/tagging, FairSharePolicy quota enforcement, and per-tenant
 * stat attribution through the simulation harness.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "core/simulation.h"
#include "mem/migration.h"
#include "mem/perf_model.h"
#include "mem/tiered_memory.h"
#include "mem/topology.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/fleet.h"
#include "multitenant/mux_workload.h"
#include "multitenant/quota_controller.h"
#include "policies/policy.h"
#include "workloads/factory.h"

namespace hybridtier {
namespace {

// ---------------------------------------------------- ParseTenantList --

TEST(ParseTenantList, ParsesIdsAndWeights) {
  const std::vector<TenantSpec> specs =
      ParseTenantList("cdn,bfs-k:2,silo:0.5,zipf");
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].workload_id, "cdn");
  EXPECT_DOUBLE_EQ(specs[0].weight, 1.0);
  EXPECT_EQ(specs[1].workload_id, "bfs-k");
  EXPECT_DOUBLE_EQ(specs[1].weight, 2.0);
  EXPECT_EQ(specs[2].workload_id, "silo");
  EXPECT_DOUBLE_EQ(specs[2].weight, 0.5);
  EXPECT_EQ(specs[3].workload_id, "zipf");
}

TEST(ParseTenantList, SingleTenant) {
  const std::vector<TenantSpec> specs = ParseTenantList("zipf:3");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].workload_id, "zipf");
  EXPECT_DOUBLE_EQ(specs[0].weight, 3.0);
}

TEST(ParseTenantList, ParsesResidencyWindows) {
  const std::vector<TenantSpec> specs =
      ParseTenantList("cdn@0-2e9,bfs-k:2@5e8,zipf");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].workload_id, "cdn");
  ASSERT_EQ(specs[0].windows.size(), 1u);
  EXPECT_EQ(specs[0].windows[0].arrival_ns, 0u);
  EXPECT_EQ(specs[0].windows[0].departure_ns, 2000000000u);
  EXPECT_EQ(specs[1].workload_id, "bfs-k");
  EXPECT_DOUBLE_EQ(specs[1].weight, 2.0);
  ASSERT_EQ(specs[1].windows.size(), 1u);
  EXPECT_EQ(specs[1].windows[0].arrival_ns, 500000000u);
  EXPECT_EQ(specs[1].windows[0].departure_ns, 0u);  // Stays to the end.
  EXPECT_TRUE(specs[2].windows.empty());  // Resident for the whole run.
}

TEST(ParseTenantList, WindowAcceptsExponentSigns) {
  const std::vector<TenantSpec> specs = ParseTenantList("zipf@1e-3-2e9");
  ASSERT_EQ(specs.size(), 1u);
  ASSERT_EQ(specs[0].windows.size(), 1u);
  EXPECT_EQ(specs[0].windows[0].arrival_ns, 0u);  // 1e-3 truncates to 0.
  EXPECT_EQ(specs[0].windows[0].departure_ns, 2000000000u);
}

TEST(ParseTenantList, ParsesRecurringWindows) {
  // Two residency windows model diurnal co-location; '+' after an
  // exponent ("1e+8") must still read as a sign, not a separator.
  const std::vector<TenantSpec> specs =
      ParseTenantList("zipf@1e+8-2e8+5e8-6e8,cdn");
  ASSERT_EQ(specs.size(), 2u);
  ASSERT_EQ(specs[0].windows.size(), 2u);
  EXPECT_EQ(specs[0].windows[0].arrival_ns, 100000000u);
  EXPECT_EQ(specs[0].windows[0].departure_ns, 200000000u);
  EXPECT_EQ(specs[0].windows[1].arrival_ns, 500000000u);
  EXPECT_EQ(specs[0].windows[1].departure_ns, 600000000u);
  EXPECT_TRUE(specs[1].windows.empty());

  // The last of several windows may stay open.
  const std::vector<TenantSpec> open =
      ParseTenantList("zipf@0-1e8+3e8");
  ASSERT_EQ(open[0].windows.size(), 2u);
  EXPECT_EQ(open[0].windows[1].arrival_ns, 300000000u);
  EXPECT_EQ(open[0].windows[1].departure_ns, 0u);
}

// -------------------------------------------------------- MuxWorkload --

std::vector<TenantSpec> SmallSpecs() {
  std::vector<TenantSpec> specs = ParseTenantList("zipf,cdn:2,zipf");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  return specs;
}

TEST(MuxWorkload, RegionsAreDisjointAlignedAndCoverFootprint) {
  auto mux = MakeMuxWorkload(SmallSpecs(), 42);
  const TenantDirectory& directory = mux->directory();
  ASSERT_EQ(directory.size(), 3u);

  uint64_t expected_base = 0;
  for (const TenantRegion& region : directory.regions) {
    EXPECT_EQ(region.base_page % kPagesPerHugePage, 0u);
    EXPECT_EQ(region.span_pages % kPagesPerHugePage, 0u);
    EXPECT_EQ(region.base_page, expected_base);
    EXPECT_GE(region.span_pages, region.footprint_pages);
    expected_base += region.span_pages;
  }
  EXPECT_EQ(mux->footprint_pages(), expected_base);

  // Unit ranges tile the footprint exactly in both page modes.
  for (const PageMode mode : {PageMode::kRegular, PageMode::kHuge}) {
    const uint64_t per_unit =
        mode == PageMode::kHuge ? kPagesPerHugePage : 1;
    uint64_t next = 0;
    for (uint32_t t = 0; t < directory.size(); ++t) {
      const PageRange range = mux->tenant_units(t, mode);
      EXPECT_EQ(range.begin, next);
      EXPECT_GT(range.end, range.begin);
      next = range.end;
    }
    EXPECT_EQ(next, mux->footprint_pages() / per_unit);
  }
}

TEST(MuxWorkload, DuplicateWorkloadsGetDistinctNames) {
  auto mux = MakeMuxWorkload(SmallSpecs(), 42);
  std::set<std::string> names;
  for (uint32_t t = 0; t < mux->tenant_count(); ++t) {
    names.insert(mux->tenant_name(t));
  }
  EXPECT_EQ(names.size(), 3u);
}

TEST(MuxWorkload, TagsOpsAndRemapsIntoOwnRegion) {
  auto mux = MakeMuxWorkload(SmallSpecs(), 42);
  OpTrace op;
  std::set<uint32_t> seen;
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(mux->NextOp(0, &op));
    const uint32_t tenant = mux->last_tenant();
    seen.insert(tenant);
    const TenantRegion& region = mux->directory().regions[tenant];
    const uint64_t base = region.base_page * kPageSize;
    const uint64_t end = base + region.span_pages * kPageSize;
    for (const MemoryAccess& access : op.accesses) {
      ASSERT_GE(access.addr, base);
      ASSERT_LT(access.addr, end);
    }
  }
  // Round-robin serves every (endless) tenant.
  EXPECT_EQ(seen.size(), mux->tenant_count());
}

TEST(MuxWorkload, WindowsGateTheRotation) {
  std::vector<TenantSpec> specs = ParseTenantList("zipf,zipf@1e6-2e6");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 42);
  EXPECT_TRUE(mux->tenant_active_at(0, 0));
  EXPECT_FALSE(mux->tenant_active_at(1, 0));
  EXPECT_TRUE(mux->tenant_active_at(1, 1500000));
  EXPECT_FALSE(mux->tenant_active_at(1, 2000000));

  OpTrace op;
  // Before the arrival only tenant 0 is served.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(mux->NextOp(0, &op));
    EXPECT_EQ(mux->last_tenant(), 0u);
  }
  EXPECT_TRUE(mux->churn_events().empty());

  // Inside the window both run; the arrival is surfaced as an event.
  std::set<uint32_t> seen;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(mux->NextOp(1500000, &op));
    seen.insert(mux->last_tenant());
  }
  EXPECT_EQ(seen.size(), 2u);
  ASSERT_EQ(mux->churn_events().size(), 1u);
  EXPECT_TRUE(mux->churn_events()[0].arrival);
  EXPECT_EQ(mux->churn_events()[0].tenant, 1u);
  EXPECT_EQ(mux->churn_events()[0].time_ns, 1000000u);

  // Past the departure tenant 1 is gone again.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(mux->NextOp(3000000, &op));
    EXPECT_EQ(mux->last_tenant(), 0u);
  }
  ASSERT_EQ(mux->churn_events().size(), 2u);
  EXPECT_FALSE(mux->churn_events()[1].arrival);
  EXPECT_EQ(mux->churn_events()[1].time_ns, 2000000u);
}

TEST(MuxWorkload, RecurringWindowsReactivateTheTenant) {
  std::vector<TenantSpec> specs =
      ParseTenantList("zipf,zipf@1e6-2e6+4e6-5e6");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 42);

  // The windows gate activity: out, in, out, in again, out for good.
  EXPECT_FALSE(mux->tenant_active_at(1, 0));
  EXPECT_TRUE(mux->tenant_active_at(1, 1500000));
  EXPECT_FALSE(mux->tenant_active_at(1, 3000000));
  EXPECT_TRUE(mux->tenant_active_at(1, 4500000));
  EXPECT_FALSE(mux->tenant_active_at(1, 6000000));

  const auto serve = [&](TimeNs now, int ops) {
    OpTrace op;
    std::set<uint32_t> seen;
    for (int i = 0; i < ops; ++i) {
      EXPECT_TRUE(mux->NextOp(now, &op));
      seen.insert(mux->last_tenant());
    }
    return seen;
  };

  // First window: both tenants run. Between windows: only tenant 0.
  EXPECT_EQ(serve(1500000, 100).size(), 2u);
  EXPECT_EQ(serve(3000000, 100).size(), 1u);
  // Second window: the tenant re-enters the rotation, resuming its
  // suspended stream; afterwards it is gone for good.
  EXPECT_EQ(serve(4500000, 100).size(), 2u);
  EXPECT_EQ(serve(6000000, 100).size(), 1u);

  // Four edges, chronological: arrive, depart, re-arrive, depart.
  ASSERT_EQ(mux->churn_events().size(), 4u);
  const TimeNs times[] = {1000000, 2000000, 4000000, 5000000};
  const bool arrivals[] = {true, false, true, false};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(mux->churn_events()[i].tenant, 1u);
    EXPECT_EQ(mux->churn_events()[i].time_ns, times[i]);
    EXPECT_EQ(mux->churn_events()[i].arrival, arrivals[i]);
  }
}

TEST(MuxWorkload, IdleGapBridgesToNextRecurringWindow) {
  // A single tenant with two windows: between them the mux emits a pure
  // idle gap carrying the clock to the re-arrival, not end-of-stream.
  std::vector<TenantSpec> specs = ParseTenantList("zipf@0-1e6+5e6");
  specs[0].scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 42);
  OpTrace op;
  ASSERT_TRUE(mux->NextOp(0, &op));
  EXPECT_FALSE(op.accesses.empty());
  // Past the first departure, nobody is runnable until 5e6.
  ASSERT_TRUE(mux->NextOp(2000000, &op));
  EXPECT_TRUE(op.accesses.empty());
  EXPECT_EQ(op.think_time_ns, 3000000u);
  // At the second window real ops flow again.
  ASSERT_TRUE(mux->NextOp(5000000, &op));
  EXPECT_FALSE(op.accesses.empty());
}

TEST(MuxWorkload, IdleGapBridgesToFirstArrival) {
  std::vector<TenantSpec> specs = ParseTenantList("zipf@5e6");
  specs[0].scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 42);
  OpTrace op;
  // Nobody is runnable at t=0: the mux emits a pure idle gap reaching
  // the arrival instead of ending the run.
  ASSERT_TRUE(mux->NextOp(0, &op));
  EXPECT_TRUE(op.accesses.empty());
  EXPECT_EQ(op.think_time_ns, 5000000u);
  // At the arrival real ops flow.
  ASSERT_TRUE(mux->NextOp(5000000, &op));
  EXPECT_FALSE(op.accesses.empty());
  EXPECT_EQ(op.think_time_ns, 0u);
}

// ---------------------------------------------------- QuotaController --

/** A demand curve of `hot` units at value `hot_value` + a 1-value tail. */
std::vector<GhostDemandStep> Curve(uint64_t hot, uint32_t hot_value,
                                   uint64_t tail) {
  std::vector<GhostDemandStep> curve;
  if (hot > 0) curve.push_back({.value = hot_value, .units = hot});
  if (tail > 0) curve.push_back({.value = 1, .units = tail});
  return curve;
}

TEST(QuotaController, MarginalWaterFillRespectsFloorsCapsAndTotal) {
  const std::vector<std::vector<GhostDemandStep>> curves = {
      Curve(100, 10, 0), Curve(0, 0, 900)};
  const std::vector<double> weights = {1.0, 1.0};
  const std::vector<uint64_t> floors = {64, 64};
  const std::vector<uint64_t> caps = {1024, 1024};

  const std::vector<uint64_t> quotas =
      MarginalUtilityQuotas(curves, weights, floors, caps, 512);
  ASSERT_EQ(quotas.size(), 2u);
  EXPECT_EQ(quotas[0] + quotas[1], 512u);
  EXPECT_GE(quotas[0], 64u);
  EXPECT_GE(quotas[1], 64u);
  // The hot set (100 units at value 10) is fully funded before the
  // streaming tail (900 units at value 1) takes the rest.
  EXPECT_GE(quotas[0], 100u);
  EXPECT_LE(quotas[0], 1024u);
}

TEST(QuotaController, MarginalWaterFillStreamingCannotCrowdOutHotSet) {
  // The streamer offers 10x the demand *volume* (units touched once),
  // the hot tenant a compact reuse set. Density-style division by
  // volume would hand the streamer most of the tier; water-filling
  // funds the hot set first.
  const std::vector<std::vector<GhostDemandStep>> curves = {
      Curve(200, 8, 0), Curve(0, 0, 2000)};
  const std::vector<uint64_t> quotas = MarginalUtilityQuotas(
      curves, {1.0, 1.0}, {32, 32}, {4096, 4096}, 256);
  EXPECT_GE(quotas[0], 200u);  // Whole reuse set, floors included.
  EXPECT_EQ(quotas[0] + quotas[1], 256u);
}

TEST(QuotaController, MarginalWaterFillMonotoneInCapacity) {
  // More capacity never lowers any tenant's quota.
  const std::vector<std::vector<GhostDemandStep>> curves = {
      Curve(100, 12, 50), Curve(30, 3, 800), Curve(0, 0, 0)};
  const std::vector<double> weights = {1.0, 2.0, 0.5};
  const std::vector<uint64_t> floors = {16, 40, 8};
  const std::vector<uint64_t> caps = {512, 1024, 96};

  std::vector<uint64_t> previous(3, 0);
  for (uint64_t total = 0; total <= 1700; total += 7) {
    const std::vector<uint64_t> quotas =
        MarginalUtilityQuotas(curves, weights, floors, caps, total);
    uint64_t sum = 0;
    for (size_t i = 0; i < quotas.size(); ++i) {
      EXPECT_GE(quotas[i], previous[i])
          << "tenant " << i << " shrank when total grew to " << total;
      EXPECT_LE(quotas[i], caps[i]);
      sum += quotas[i];
    }
    EXPECT_EQ(sum, std::min<uint64_t>(total, 512 + 1024 + 96));
    previous = quotas;
  }
}

TEST(QuotaController, MarginalWaterFillDeterministic) {
  const std::vector<std::vector<GhostDemandStep>> curves = {
      Curve(64, 7, 128), Curve(64, 7, 128), Curve(10, 15, 0)};
  const std::vector<double> weights = {1.5, 1.5, 1.0};
  const std::vector<uint64_t> floors = {10, 10, 10};
  const std::vector<uint64_t> caps = {600, 600, 600};
  const std::vector<uint64_t> a =
      MarginalUtilityQuotas(curves, weights, floors, caps, 333);
  const std::vector<uint64_t> b =
      MarginalUtilityQuotas(curves, weights, floors, caps, 333);
  EXPECT_EQ(a, b);
  // Identical tenants tie-break by index, not arbitrarily.
  EXPECT_GE(a[0], a[1]);
}

TEST(QuotaController, MarginalWaterFillSkipsAbsentTenants) {
  const std::vector<std::vector<GhostDemandStep>> curves = {
      Curve(100, 10, 0), Curve(100, 10, 0)};
  const std::vector<uint64_t> quotas = MarginalUtilityQuotas(
      curves, {1.0, 0.0}, {64, 64}, {1024, 1024}, 512);
  EXPECT_EQ(quotas[1], 0u);  // Weight 0 marks an absent tenant.
  EXPECT_EQ(quotas[0], 512u);
}

// ---------------------------------------------------- FairSharePolicy --

/** Test policy that tries to promote every slow page each tick. */
class PromoteAllPolicy : public TieringPolicy {
 public:
  void Tick(TimeNs now) override {
    std::vector<PageId> pages;
    for (PageId unit = 0; unit < context().footprint_units; ++unit) {
      if (memory().IsResident(unit) &&
          memory().TierOf(unit) == Tier::kSlow) {
        pages.push_back(unit);
      }
    }
    if (!pages.empty()) {
      migration().Promote(pages, now, MigrationReason::kHotnessRank);
    }
  }
  size_t MetadataBytes() const override { return 0; }
  const char* name() const override { return "PromoteAll"; }
};

/** Two synthetic tenants (1024 pages each) with the given weights. */
TenantDirectory TwoTenantDirectoryWeighted(double weight_a,
                                           double weight_b) {
  TenantDirectory directory;
  directory.regions.push_back(TenantRegion{
      .name = "a", .weight = weight_a, .base_page = 0,
      .footprint_pages = 1024, .span_pages = 1024});
  directory.regions.push_back(TenantRegion{
      .name = "b", .weight = weight_b, .base_page = 1024,
      .footprint_pages = 1024, .span_pages = 1024});
  return directory;
}

/** Two synthetic tenants (1024 pages each) with a 3:1 weight split. */
TenantDirectory TwoTenantDirectory() {
  return TwoTenantDirectoryWeighted(3.0, 1.0);
}

/** `endpoints` default CXL devices, interleaved one unit apart. */
Topology EndpointTopology(uint32_t endpoints) {
  Topology topology;
  topology.endpoints.resize(endpoints);
  return topology;
}

/** Minimal bound context around a FairSharePolicy for unit tests. */
class FairShareHarness {
 public:
  explicit FairShareHarness(AllocationPolicy allocation,
                            FairShareConfig config = FairShareConfig{},
                            std::unique_ptr<TieringPolicy> base =
                                std::make_unique<PromoteAllPolicy>(),
                            TenantDirectory directory = TwoTenantDirectory(),
                            uint32_t endpoints = 1)
      : memory_(2048, 512, 2048, allocation, endpoints),
        perf_(PerfModelConfig{}, DefaultFastTier(512),
              EndpointTopology(endpoints)),
        engine_(&memory_, &perf_),
        policy_(std::move(base), directory, config) {
    // Count metadata touches without buffering lines for replay (the
    // drop-in equivalent of the old null sink).
    sink_.SetRecording(false);
    // As Simulation does: the tenant layout becomes the memory's
    // accounting regions before Bind.
    std::vector<PageRange> regions;
    for (const TenantRegion& region : directory.regions) {
      regions.push_back(region.UnitRange(PageMode::kRegular));
    }
    memory_.DefineRegions(regions);
    PolicyContext context;
    context.memory = &memory_;
    context.migration = &engine_;
    context.perf = &perf_;
    context.metadata_sink = &sink_;
    context.footprint_units = 2048;
    context.fast_capacity_units = 512;
    policy_.Bind(context);
  }

  void TouchAll() {
    for (PageId unit = 0; unit < 2048; ++unit) memory_.Touch(unit, 0);
  }

  uint64_t FastResident(uint32_t tenant) {
    uint64_t count = 0;
    memory_.ScanResident(tenant * 1024, 1024, Tier::kFast,
                         [&count](PageId) { ++count; });
    return count;
  }

  TieredMemory& memory() { return memory_; }
  FairSharePolicy& policy() { return policy_; }

  /** Marks `endpoint` down or healthy, as the fault runtime would. */
  void SetEndpointDown(uint32_t endpoint, bool down, TimeNs now) {
    perf_.SetEndpointDown(endpoint, down);
    policy_.OnEndpointHealth(
        endpoint, down ? EndpointHealth::kDown : EndpointHealth::kHealthy,
        now);
  }

 private:
  TieredMemory memory_;
  PerfModel perf_;
  MigrationEngine engine_;
  MetadataTrafficCounter sink_;
  FairSharePolicy policy_;
};

TEST(FairSharePolicy, StaticQuotasFollowWeights) {
  FairShareHarness harness(AllocationPolicy::kSlowOnly);
  // 3:1 weights over 512 fast units.
  EXPECT_EQ(harness.policy().quota_units(0), 384u);
  EXPECT_EQ(harness.policy().quota_units(1), 128u);
}

TEST(FairSharePolicy, GateCapsPromotionsAtQuota) {
  FairShareConfig config;
  config.rebalance = false;
  FairShareHarness harness(AllocationPolicy::kSlowOnly, config);
  harness.TouchAll();  // Everything allocates in the slow tier.

  // The base policy tries to promote all 2048 pages; the gate admits
  // only each tenant's quota.
  harness.policy().Tick(1 * kMillisecond);
  EXPECT_EQ(harness.FastResident(0), 384u);
  EXPECT_EQ(harness.FastResident(1), 128u);
  EXPECT_EQ(harness.policy().fast_units(0), 384u);
  EXPECT_EQ(harness.policy().fast_units(1), 128u);
  EXPECT_GT(harness.policy().gated_promotions(0), 0u);
  EXPECT_GT(harness.policy().gated_promotions(1), 0u);
}

TEST(FairSharePolicy, EnforcementDemotesOverQuotaTenant) {
  FairShareConfig config;
  config.rebalance = false;
  FairShareHarness harness(AllocationPolicy::kFastFirst, config);
  // Fast-first allocation: tenant a's first 512 pages take the whole
  // fast tier (the prefault picture).
  harness.TouchAll();
  ASSERT_EQ(harness.FastResident(0), 512u);
  ASSERT_EQ(harness.FastResident(1), 0u);

  // One tick: enforcement demotes a to quota, then the base policy
  // promotes b into the freed capacity (through the gate, up to quota).
  harness.policy().Tick(1 * kMillisecond);
  EXPECT_EQ(harness.FastResident(0), 384u);
  EXPECT_EQ(harness.FastResident(1), 128u);
  EXPECT_GT(harness.policy().enforced_demotions(0), 0u);
}

/** Test policy that issues batches containing duplicate page ids. */
class DupBatchPolicy : public TieringPolicy {
 public:
  void Tick(TimeNs now) override {
    if (done_) return;
    done_ = true;
    const std::vector<PageId> promote = {0, 0, 0, 5, 5, 1030, 1030};
    migration().Promote(promote, now, MigrationReason::kHotnessRank);
    const std::vector<PageId> demote = {0, 0};
    migration().Demote(demote, now, MigrationReason::kCapacityDemand);
  }
  size_t MetadataBytes() const override { return 0; }
  const char* name() const override { return "DupBatch"; }

 private:
  bool done_ = false;
};

TEST(FairSharePolicy, DuplicatePagesInBatchesDoNotCorruptAccounting) {
  FairShareConfig config;
  config.rebalance = false;
  FairShareHarness harness(AllocationPolicy::kSlowOnly, config,
                           std::make_unique<DupBatchPolicy>());
  harness.TouchAll();

  // Promote {0,0,0,5,5,1030,1030} then demote {0,0}: the tracked
  // occupancy must match the memory system exactly, not drift by the
  // duplicate entries.
  harness.policy().Tick(1 * kMillisecond);
  EXPECT_EQ(harness.policy().fast_units(0), harness.FastResident(0));
  EXPECT_EQ(harness.policy().fast_units(1), harness.FastResident(1));
  EXPECT_EQ(harness.FastResident(0), 1u);  // Page 5 stayed fast.
  EXPECT_EQ(harness.FastResident(1), 1u);  // Page 1030.
}

/**
 * Test policy that promotes one batch mixing non-resident pages (an
 * arriving tenant's region) with slow-resident ones.
 */
class MixedBatchPolicy : public TieringPolicy {
 public:
  void Tick(TimeNs now) override {
    if (done_) return;
    done_ = true;
    std::vector<PageId> batch;
    // 12 non-resident pages first, then 200 slow-resident ones — all
    // belonging to tenant a.
    for (PageId page = 500; page < 512; ++page) batch.push_back(page);
    for (PageId page = 0; page < 200; ++page) batch.push_back(page);
    migration().Promote(batch, now, MigrationReason::kHotnessRank);
  }
  size_t MetadataBytes() const override { return 0; }
  const char* name() const override { return "MixedBatch"; }

 private:
  bool done_ = false;
};

TEST(FairSharePolicy, GateChargesNonResidentPagesAgainstQuota) {
  FairShareConfig config;
  config.rebalance = false;
  // Weights 1:3 give tenant a a 128-unit quota over the 512 fast units.
  FairShareHarness harness(AllocationPolicy::kFastFirst, config,
                           std::make_unique<MixedBatchPolicy>(),
                           TwoTenantDirectoryWeighted(1.0, 3.0));
  ASSERT_EQ(harness.policy().quota_units(0), 128u);

  TieredMemory& mem = harness.memory();
  // Tenant b fills the fast tier, tenant a lands slow, and then 312 of
  // b's pages are demoted so the tier has free capacity — the state an
  // arrival meets: free fast pages, a's region partly non-resident.
  for (PageId page = 1024; page < 1536; ++page) mem.Touch(page, 0);
  for (PageId page = 0; page < 500; ++page) mem.Touch(page, 0);
  for (PageId page = 1224; page < 1536; ++page) {
    ASSERT_TRUE(mem.Migrate(page, Tier::kSlow));
  }
  ASSERT_EQ(mem.FreePages(Tier::kFast), 312u);

  // The base policy promotes a batch mixing 12 non-resident pages with
  // 200 slow-resident ones; every page the engine could land fast must
  // consume gate headroom.
  harness.policy().Tick(1 * kMillisecond);

  // The 12 admitted non-resident pages now get their first touch (the
  // arriving tenant starts running) and allocate fast-first.
  for (PageId page = 500; page < 512; ++page) {
    const TouchResult touch = mem.Touch(page, 2 * kMillisecond);
    ASSERT_TRUE(touch.first_touch);
    ASSERT_EQ(touch.tier, Tier::kFast);
    harness.policy().OnAccess(page, touch, 2 * kMillisecond);
  }

  // Without charging non-resident admissions, tenant a ends at
  // quota + 12. With the fix the batch reserved their headroom.
  EXPECT_LE(harness.policy().fast_units(0),
            harness.policy().quota_units(0));
  EXPECT_EQ(harness.policy().fast_units(0), harness.FastResident(0));
  EXPECT_EQ(harness.FastResident(0), 128u);
}

/**
 * Test policy that stages non-resident admissions in one batch and
 * fills the quota with slow-resident promotions in a *later* batch —
 * the cross-batch pattern a per-batch-only gate charge misses.
 */
class StagedBatchPolicy : public TieringPolicy {
 public:
  void Tick(TimeNs now) override {
    ++ticks_;
    std::vector<PageId> batch;
    if (ticks_ == 1 || ticks_ == 2) {
      // 12 non-resident pages of tenant a (an arriving region) —
      // promoted twice: the second batch must not double-charge the
      // still-untouched pages.
      for (PageId page = 500; page < 512; ++page) batch.push_back(page);
    } else if (ticks_ == 3) {
      // Then enough slow-resident pages to fill the whole quota.
      for (PageId page = 0; page < 200; ++page) batch.push_back(page);
    } else {
      return;
    }
    migration().Promote(batch, now, MigrationReason::kHotnessRank);
  }
  size_t MetadataBytes() const override { return 0; }
  const char* name() const override { return "StagedBatch"; }

 private:
  int ticks_ = 0;
};

TEST(FairSharePolicy, GateChargesNonResidentAdmissionsDurably) {
  FairShareConfig config;
  config.rebalance = false;
  // Weights 1:3 give tenant a a 128-unit quota over the 512 fast units.
  FairShareHarness harness(AllocationPolicy::kFastFirst, config,
                           std::make_unique<StagedBatchPolicy>(),
                           TwoTenantDirectoryWeighted(1.0, 3.0));
  ASSERT_EQ(harness.policy().quota_units(0), 128u);

  TieredMemory& mem = harness.memory();
  // Same arrival picture as the per-batch test: b fills the fast tier,
  // a lands slow, 312 fast units are freed, pages 500..511 untouched.
  for (PageId page = 1024; page < 1536; ++page) mem.Touch(page, 0);
  for (PageId page = 0; page < 500; ++page) mem.Touch(page, 0);
  for (PageId page = 1224; page < 1536; ++page) {
    ASSERT_TRUE(mem.Migrate(page, Tier::kSlow));
  }
  ASSERT_EQ(mem.FreePages(Tier::kFast), 312u);

  // Batch 1 (tick 1) stages the 12 non-resident admissions. A charge
  // that evaporates at the end of the batch lets a later batch fill
  // the entire quota, so the 12 landings push tenant a to quota + 12.
  harness.policy().Tick(1 * kMillisecond);
  EXPECT_EQ(harness.policy().pending_first_touch(0), 12u);

  // An unrelated first touch of tenant a (page 600 was never admitted)
  // must not release any staged charge.
  const TouchResult unrelated = mem.Touch(600, 1 * kMillisecond + 1);
  ASSERT_TRUE(unrelated.first_touch);
  harness.policy().OnAccess(600, unrelated, 1 * kMillisecond + 1);
  EXPECT_EQ(harness.policy().pending_first_touch(0), 12u);

  // Batch 2 re-promotes the same still-untouched pages: no
  // double-charge. Batch 3 promotes 200 slow-resident pages into the
  // remaining headroom.
  harness.policy().Tick(2 * kMillisecond);
  EXPECT_EQ(harness.policy().pending_first_touch(0), 12u);
  harness.policy().Tick(3 * kMillisecond);
  // 128 quota - 12 pending - 1 unrelated landing = 115 admitted.
  EXPECT_EQ(harness.policy().fast_units(0), 116u);

  // The staged first touches land (the arriving tenant starts running).
  for (PageId page = 500; page < 512; ++page) {
    const TouchResult touch = mem.Touch(page, 4 * kMillisecond);
    ASSERT_TRUE(touch.first_touch);
    ASSERT_EQ(touch.tier, Tier::kFast);
    harness.policy().OnAccess(page, touch, 4 * kMillisecond);
  }

  EXPECT_EQ(harness.policy().pending_first_touch(0), 0u);
  EXPECT_LE(harness.policy().fast_units(0),
            harness.policy().quota_units(0));
  EXPECT_EQ(harness.policy().fast_units(0), harness.FastResident(0));
  EXPECT_EQ(harness.FastResident(0), 128u);
}

// ------------------------------------------- coldest-first enforcement --

/**
 * Test policy whose hotness metadata marks tenant a's units 384..511
 * hot and re-promotes exactly that hot set every tick.
 */
class RepromoteHotSetPolicy : public TieringPolicy {
 public:
  void Tick(TimeNs now) override {
    std::vector<PageId> batch;
    for (PageId page = 384; page < 512; ++page) batch.push_back(page);
    migration().Promote(batch, now, MigrationReason::kHotnessRank);
  }
  uint32_t HotnessOf(PageId unit) const override {
    return unit >= 384 && unit < 512 ? 5 : 0;
  }
  size_t MetadataBytes() const override { return 0; }
  const char* name() const override { return "RepromoteHotSet"; }
};

TEST(FairSharePolicy, EnforcementDemotesColdestUnitsFirst) {
  FairShareConfig config;
  config.rebalance = false;
  FairShareHarness harness(AllocationPolicy::kFastFirst, config,
                           std::make_unique<RepromoteHotSetPolicy>());
  // Fast-first prefault: tenant a's units 0..511 hold the fast tier,
  // 128 over its 384-unit quota. The base policy says 384..511 are the
  // hot ones.
  harness.TouchAll();
  ASSERT_EQ(harness.FastResident(0), 512u);

  for (int tick = 1; tick <= 5; ++tick) {
    harness.policy().Tick(tick * kMillisecond);
  }

  // Enforcement demoted the *coldest* 128 units (0..127), not the top
  // of the region in address order — which is exactly the hot set here.
  // Demoting in address order evicts 384..511, the base policy tries to
  // bring them back every tick, and the tenant's hot set lives in the
  // slow tier while gated promotions pile up.
  for (PageId page = 384; page < 512; ++page) {
    EXPECT_EQ(harness.memory().TierOf(page), Tier::kFast)
        << "hot unit " << page << " was demoted";
  }
  for (PageId page = 0; page < 128; ++page) {
    EXPECT_EQ(harness.memory().TierOf(page), Tier::kSlow)
        << "cold unit " << page << " survived enforcement";
  }
  // One enforcement pass settles the placement: no repeat churn, no
  // gated re-promotions of an evicted hot set.
  EXPECT_EQ(harness.policy().enforced_demotions(0), 128u);
  EXPECT_EQ(harness.policy().gated_promotions(0), 0u);
  EXPECT_EQ(harness.policy().fast_units(0), harness.FastResident(0));
}

// ----------------------------------------------- marginal-utility mode --

/** Feeds one OnSample record per unit in [begin, end), `rounds` times. */
void FeedSamples(FairSharePolicy* policy, PageId begin, PageId end,
                 int rounds, Tier tier = Tier::kSlow) {
  for (int round = 0; round < rounds; ++round) {
    for (PageId unit = begin; unit < end; ++unit) {
      policy->OnSample(
          SampleRecord{.page = unit, .tier = tier, .time_ns = 0});
    }
  }
}

TEST(FairSharePolicy, MarginalModeFundsReuseSetOverStreamingVolume) {
  FairShareConfig config;  // Marginal mode is the default.
  ASSERT_EQ(config.quota_mode, QuotaMode::kMarginal);
  FairShareHarness harness(AllocationPolicy::kSlowOnly, config,
                           std::make_unique<PromoteAllPolicy>(),
                           TwoTenantDirectoryWeighted(1.0, 1.0));
  harness.TouchAll();

  // Tenant a: a compact reuse set — 100 units sampled 8x each. Tenant
  // b: streaming — 960 distinct units sampled once, more total volume.
  FeedSamples(&harness.policy(), 0, 100, 8);
  FeedSamples(&harness.policy(), 1024, 1984, 1);
  EXPECT_EQ(harness.policy().shadow_samples(0), 800u);
  EXPECT_EQ(harness.policy().shadow_samples(1), 960u);

  harness.policy().Tick(25 * kMillisecond);  // First rebalance.

  // The whole reuse set is funded above the floor before the streaming
  // tail sees a unit; the streamer absorbs the remainder (better there
  // than stranded) but cannot push the hot set below its demand.
  EXPECT_EQ(harness.policy().quota_units(0) +
                harness.policy().quota_units(1),
            512u);
  EXPECT_GE(harness.policy().quota_units(0), 100u);
  EXPECT_LE(harness.policy().quota_units(0), 160u);
}

TEST(FairSharePolicy, MarginalModeQuotasDeterministicAcrossReruns) {
  std::vector<uint64_t> quotas[2];
  for (int run = 0; run < 2; ++run) {
    FairShareConfig config;
    FairShareHarness harness(AllocationPolicy::kSlowOnly, config,
                             std::make_unique<PromoteAllPolicy>(),
                             TwoTenantDirectoryWeighted(2.0, 1.0));
    harness.TouchAll();
    FeedSamples(&harness.policy(), 0, 300, 3);
    FeedSamples(&harness.policy(), 1024, 1400, 2);
    harness.policy().Tick(25 * kMillisecond);
    FeedSamples(&harness.policy(), 0, 200, 5);
    harness.policy().Tick(50 * kMillisecond);
    quotas[run] = {harness.policy().quota_units(0),
                   harness.policy().quota_units(1)};
  }
  EXPECT_EQ(quotas[0], quotas[1]);
}

// ------------------------------------------------ paced release drain --

/** Base policy that never migrates: drains are the wrapper's alone. */
class IdlePolicy : public TieringPolicy {
 public:
  void Tick(TimeNs) override {}
  size_t MetadataBytes() const override { return 0; }
  const char* name() const override { return "Idle"; }
};

/** Tenant b: resident [0, depart), then again from `rearrive`. */
TenantDirectory RecurringDirectory(TimeNs depart, TimeNs rearrive) {
  TenantDirectory directory;
  directory.regions.push_back(TenantRegion{
      .name = "a", .weight = 1.0, .base_page = 0,
      .footprint_pages = 1024, .span_pages = 1024});
  directory.regions.push_back(TenantRegion{
      .name = "b", .weight = 1.0, .base_page = 1024,
      .footprint_pages = 1024, .span_pages = 1024,
      .windows = {{0, depart}, {rearrive, 0}}});
  return directory;
}

TEST(FairSharePolicy, DepartureDrainIsPacedAndReleasesWhenDrained) {
  FairShareConfig config;
  config.rebalance = false;
  config.fill_to_quota = false;
  config.release_batch = 64;
  FairShareHarness harness(
      AllocationPolicy::kSlowOnly, config, std::make_unique<IdlePolicy>(),
      RecurringDirectory(5 * kMillisecond, 20 * kMillisecond));
  harness.TouchAll();
  // 256 of b's pages sit in the fast tier when it departs.
  for (PageId page = 1024; page < 1280; ++page) {
    ASSERT_TRUE(harness.memory().Migrate(page, Tier::kFast));
  }

  harness.policy().Tick(1 * kMillisecond);
  ASSERT_EQ(harness.policy().fast_units(1), 256u);
  ASSERT_TRUE(harness.policy().tenant_active(1));

  // The departure tick zeroes b's quota immediately but demotes only
  // release_batch units; the drain continues across later ticks and the
  // region is released only once the share hits zero.
  harness.policy().Tick(5 * kMillisecond);
  EXPECT_TRUE(harness.policy().tenant_draining(1));
  EXPECT_EQ(harness.policy().quota_units(1), 0u);
  EXPECT_EQ(harness.policy().quota_units(0), 512u);
  EXPECT_EQ(harness.policy().fast_units(1), 192u);
  EXPECT_EQ(harness.policy().released_units(1), 0u);

  harness.policy().Tick(6 * kMillisecond);
  EXPECT_EQ(harness.policy().fast_units(1), 128u);
  harness.policy().Tick(7 * kMillisecond);
  EXPECT_EQ(harness.policy().fast_units(1), 64u);
  harness.policy().Tick(8 * kMillisecond);

  // Drained: the whole region (fast and slow residents) was freed.
  EXPECT_FALSE(harness.policy().tenant_draining(1));
  EXPECT_FALSE(harness.policy().tenant_active(1));
  EXPECT_EQ(harness.policy().fast_units(1), 0u);
  EXPECT_EQ(harness.policy().released_units(1), 1024u);
  EXPECT_EQ(harness.FastResident(1), 0u);
  EXPECT_FALSE(harness.memory().IsResident(1024));
  // The drain is reclaim, not quota enforcement.
  EXPECT_EQ(harness.policy().enforced_demotions(1), 0u);

  // Re-arrival at the second window: quota returns, the region is
  // reusable, and a first touch re-allocates from scratch.
  harness.policy().Tick(20 * kMillisecond);
  EXPECT_TRUE(harness.policy().tenant_active(1));
  EXPECT_EQ(harness.policy().quota_units(1), 256u);
  EXPECT_EQ(harness.policy().quota_units(0), 256u);
  const TouchResult touch =
      harness.memory().Touch(1024, 20 * kMillisecond + 1);
  EXPECT_TRUE(touch.first_touch);
  harness.policy().OnAccess(1024, touch, 20 * kMillisecond + 1);
}

TEST(FairSharePolicy, ReArrivalDuringDrainForcesTheFlushToFinishFirst) {
  // The inter-window gap (5ms -> 6ms) is shorter than the paced drain
  // (256 units at 64/tick): the re-arrival must force-finish the flush
  // and release the region before re-admitting the tenant, never run
  // it against a half-released region.
  FairShareConfig config;
  config.rebalance = false;
  config.fill_to_quota = false;
  config.release_batch = 64;
  FairShareHarness harness(
      AllocationPolicy::kSlowOnly, config, std::make_unique<IdlePolicy>(),
      RecurringDirectory(5 * kMillisecond, 6 * kMillisecond));
  harness.TouchAll();
  for (PageId page = 1024; page < 1280; ++page) {
    ASSERT_TRUE(harness.memory().Migrate(page, Tier::kFast));
  }
  harness.policy().Tick(1 * kMillisecond);

  harness.policy().Tick(5 * kMillisecond);
  ASSERT_TRUE(harness.policy().tenant_draining(1));
  ASSERT_EQ(harness.policy().fast_units(1), 192u);

  // The next window opens mid-drain: one tick finishes the flush,
  // releases the whole region, and re-admits the tenant with quota.
  harness.policy().Tick(6 * kMillisecond);
  EXPECT_FALSE(harness.policy().tenant_draining(1));
  EXPECT_TRUE(harness.policy().tenant_active(1));
  EXPECT_EQ(harness.policy().fast_units(1), 0u);
  EXPECT_EQ(harness.policy().released_units(1), 1024u);
  EXPECT_EQ(harness.policy().quota_units(1), 256u);
  EXPECT_FALSE(harness.memory().IsResident(1024));
}

TEST(FairSharePolicy, DrainParksOnDownEndpointUntilRecovery) {
  // Two endpoints, one-unit interleave: b's odd units are homed on
  // endpoint 1. While it is down the engine refuses their demotion, so
  // the drain cursor must stop on the first one instead of passing it.
  FairShareConfig config;
  config.rebalance = false;
  config.fill_to_quota = false;
  config.release_batch = 64;
  FairShareHarness harness(
      AllocationPolicy::kSlowOnly, config, std::make_unique<IdlePolicy>(),
      RecurringDirectory(5 * kMillisecond, 20 * kMillisecond),
      /*endpoints=*/2);
  harness.TouchAll();
  for (PageId page = 1024; page < 1280; ++page) {
    ASSERT_TRUE(harness.memory().Migrate(page, Tier::kFast));
  }
  harness.policy().Tick(1 * kMillisecond);
  // Departure: units 1024..1087 drain while both endpoints are healthy.
  harness.policy().Tick(5 * kMillisecond);
  ASSERT_EQ(harness.policy().fast_units(1), 192u);

  // Endpoint 1 dies and evacuation pulls unit 1025, just demoted onto
  // it, back into fast memory: behind the drain cursor.
  harness.SetEndpointDown(1, true, 6 * kMillisecond);
  ASSERT_TRUE(harness.memory().Migrate(1025, Tier::kFast));

  // Unit 1088 (endpoint 0) drains, then the scan parks on unit 1089 and
  // stays parked while the endpoint is down.
  harness.policy().Tick(6 * kMillisecond);
  EXPECT_EQ(harness.policy().fast_units(1), 192u);
  harness.policy().Tick(7 * kMillisecond);
  EXPECT_EQ(harness.policy().fast_units(1), 192u);
  EXPECT_TRUE(harness.policy().tenant_draining(1));

  // Recovery: the drain resumes at the parked unit, 64 per tick. The
  // pass that reaches the region end leaves unit 1025 behind, so the
  // next pass restarts at the region start and finds it.
  harness.SetEndpointDown(1, false, 8 * kMillisecond);
  harness.policy().Tick(8 * kMillisecond);
  EXPECT_EQ(harness.policy().fast_units(1), 128u);
  harness.policy().Tick(9 * kMillisecond);
  harness.policy().Tick(10 * kMillisecond);
  EXPECT_EQ(harness.policy().fast_units(1), 1u);
  harness.policy().Tick(11 * kMillisecond);
  EXPECT_FALSE(harness.policy().tenant_draining(1));
  EXPECT_EQ(harness.policy().fast_units(1), 0u);
  EXPECT_EQ(harness.policy().released_units(1), 1024u);
  EXPECT_EQ(harness.FastResident(1), 0u);
}

TEST(FairSharePolicy, DrainActsOnUnitsMovedOutsideThePolicy) {
  // A unit lands in fast memory behind the drain cursor without any
  // policy hook firing. Occupancy is the memory's own tally, so the
  // drain must count it and keep the region until it is written back.
  FairShareConfig config;
  config.rebalance = false;
  config.fill_to_quota = false;
  config.release_batch = 64;
  FairShareHarness harness(
      AllocationPolicy::kSlowOnly, config, std::make_unique<IdlePolicy>(),
      RecurringDirectory(5 * kMillisecond, 20 * kMillisecond));
  harness.TouchAll();
  for (PageId page = 1024; page < 1152; ++page) {
    ASSERT_TRUE(harness.memory().Migrate(page, Tier::kFast));
  }
  harness.policy().Tick(1 * kMillisecond);
  // Departure: units 1024..1087 drain, 64 remain.
  harness.policy().Tick(5 * kMillisecond);
  ASSERT_EQ(harness.policy().fast_units(1), 64u);

  // Unit 1024, just drained, moves back with no OnExternalMigration.
  ASSERT_TRUE(harness.memory().Migrate(1024, Tier::kFast));
  EXPECT_EQ(harness.policy().fast_units(1), 65u);

  // The next pass drains 1088..1151 and must still see unit 1024: the
  // region stays draining instead of being released under it.
  harness.policy().Tick(6 * kMillisecond);
  EXPECT_TRUE(harness.policy().tenant_draining(1));
  EXPECT_EQ(harness.policy().fast_units(1), 1u);
  EXPECT_EQ(harness.policy().released_units(1), 0u);

  // The pass reaches the region end and restarts at its beginning; the
  // next one writes unit 1024 back, then the region is released.
  harness.policy().Tick(7 * kMillisecond);
  EXPECT_TRUE(harness.policy().tenant_draining(1));
  harness.policy().Tick(8 * kMillisecond);
  EXPECT_FALSE(harness.policy().tenant_draining(1));
  EXPECT_EQ(harness.FastResident(1), 0u);
  EXPECT_EQ(harness.policy().released_units(1), 1024u);
}

TEST(FairSharePolicy, EnforcementActsOnUnitsMovedOutsideThePolicy) {
  // Tenant a sits at its 384-unit quota; one more of its units enters
  // fast memory outside the policy. The next enforcement pass demotes
  // exactly that excess.
  FairShareConfig config;
  config.rebalance = false;
  config.fill_to_quota = false;
  FairShareHarness harness(AllocationPolicy::kSlowOnly, config,
                           std::make_unique<IdlePolicy>());
  harness.TouchAll();
  for (PageId page = 0; page < 384; ++page) {
    ASSERT_TRUE(harness.memory().Migrate(page, Tier::kFast));
  }
  harness.policy().Tick(1 * kMillisecond);
  ASSERT_EQ(harness.policy().enforced_demotions(0), 0u);

  ASSERT_TRUE(harness.memory().Migrate(500, Tier::kFast));
  harness.policy().Tick(2 * kMillisecond);
  EXPECT_EQ(harness.policy().enforced_demotions(0), 1u);
  EXPECT_EQ(harness.FastResident(0), 384u);
}

TEST(FairSharePolicy, ReArrivalReleasesStrandedUnitsInPlace) {
  // The next window opens while the drain is parked on a down
  // endpoint: the flush demotes what it can and the release frees the
  // units homed on the dead device in place.
  FairShareConfig config;
  config.rebalance = false;
  config.fill_to_quota = false;
  config.release_batch = 64;
  FairShareHarness harness(
      AllocationPolicy::kSlowOnly, config, std::make_unique<IdlePolicy>(),
      RecurringDirectory(5 * kMillisecond, 6 * kMillisecond),
      /*endpoints=*/2);
  harness.TouchAll();
  for (PageId page = 1024; page < 1280; ++page) {
    ASSERT_TRUE(harness.memory().Migrate(page, Tier::kFast));
  }
  harness.policy().Tick(1 * kMillisecond);
  harness.SetEndpointDown(1, true, 2 * kMillisecond);
  harness.policy().Tick(5 * kMillisecond);
  ASSERT_EQ(harness.policy().fast_units(1), 255u);

  harness.policy().Tick(6 * kMillisecond);
  EXPECT_TRUE(harness.policy().tenant_active(1));
  EXPECT_EQ(harness.policy().fast_units(1), 0u);
  EXPECT_EQ(harness.policy().released_units(1), 1024u);
  EXPECT_EQ(harness.FastResident(1), 0u);
  EXPECT_EQ(harness.memory().EndpointHomedFastResident(1), 0u);
  std::string error;
  EXPECT_TRUE(harness.policy().CheckInvariants(&error)) << error;
}

TEST(MultiTenantSimulation, RecurringTenantReacquiresCapacity) {
  // End-to-end diurnal residency: a zipf tenant departs mid-run and
  // re-arrives at a later window under the fair-share wrapper.
  std::vector<TenantSpec> specs =
      ParseTenantList("zipf,zipf@0-3e7+6e7");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 7);
  const FairShareConfig fair_config;
  auto fair = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                mux->directory(),
                                                fair_config);
  SimulationConfig config;
  config.seed = 7;
  config.max_accesses = 40000000;
  config.max_time_ns = 100 * kMillisecond;
  config.stats_interval_ns = 5 * kMillisecond;  // Points inside the gap.
  Simulation simulation(config, mux.get(), fair.get());
  const SimulationResult result = simulation.Run();

  constexpr TimeNs kDeparture = 30000000;  // 3e7.
  constexpr TimeNs kReturn = 60000000;     // 6e7.
  ASSERT_GT(result.duration_ns, kReturn);

  // Two mid-run edges (the t=0 arrival is not an event): the departure
  // and the second-window return, in order.
  ASSERT_EQ(mux->churn_events().size(), 2u);
  EXPECT_FALSE(mux->churn_events()[0].arrival);
  EXPECT_EQ(mux->churn_events()[0].time_ns, kDeparture);
  EXPECT_TRUE(mux->churn_events()[1].arrival);
  EXPECT_EQ(mux->churn_events()[1].time_ns, kReturn);

  // The tenant's first-window share was released, and it ended the run
  // present again, holding capacity under a fresh quota.
  EXPECT_GT(fair->released_units(1), 0u);
  EXPECT_TRUE(fair->tenant_active(1));
  EXPECT_GT(fair->quota_units(1), 0u);
  EXPECT_GT(result.tenants[1].fast_resident_units, 0u);

  // Occupancy timeline: the tenant drained to an explicit zero point
  // after departing, and nothing stayed resident between the drain
  // deadline and the return. The series is sparse — once drained the
  // tenant leaves the accounting walk until its next arrival, so
  // absence of points in the gap also means nothing resident.
  const TimeSeries& occupancy = result.tenants[1].occupancy_timeline;
  const FairShareConfig defaults;
  const TimeNs drain_deadline =
      kDeparture + defaults.rebalance_interval_ns;
  bool drained_to_zero = false;
  for (size_t i = 0; i < occupancy.size(); ++i) {
    const TimeNs at = occupancy.times_ns[i];
    if (at < kDeparture || at >= kReturn) continue;
    if (at >= drain_deadline) {
      EXPECT_EQ(occupancy.values[i], 0.0)
          << "departed tenant resident at t=" << at;
    }
    if (occupancy.values[i] == 0.0) drained_to_zero = true;
  }
  EXPECT_TRUE(drained_to_zero);
}

// ------------------------------------------------- arrival warm-up dip --

/** Tenant a from t=0; tenant b arrives at `arrival_ns`. Equal weights. */
TenantDirectory ArrivalDirectory(TimeNs arrival_ns) {
  TenantDirectory directory;
  directory.regions.push_back(TenantRegion{
      .name = "a", .weight = 1.0, .base_page = 0,
      .footprint_pages = 1024, .span_pages = 1024});
  directory.regions.push_back(TenantRegion{
      .name = "b", .weight = 1.0, .base_page = 1024,
      .footprint_pages = 1024, .span_pages = 1024,
      .windows = {{arrival_ns, 0}}});
  return directory;
}

/** Drives the arrival schedule and returns tenant b's quota right
 *  after the rebalance that coincides with its arrival. */
uint64_t ArrivalQuota(const FairShareConfig& config) {
  FairShareHarness harness(AllocationPolicy::kSlowOnly, config,
                           std::make_unique<PromoteAllPolicy>(),
                           ArrivalDirectory(50 * kMillisecond));
  harness.TouchAll();
  // Incumbent demand: tenant a's samples cover 600 units, refreshed
  // each window so cooling never zeroes the estimate.
  FeedSamples(&harness.policy(), 0, 600, 2);
  harness.policy().Tick(25 * kMillisecond);
  FeedSamples(&harness.policy(), 0, 600, 2);
  harness.policy().Tick(50 * kMillisecond);  // b arrives + rebalance.
  return harness.policy().quota_units(1);
}

TEST(FairSharePolicy, ArrivalGraceSeedsQuotaFromStaticShare) {
  // With the grace (default config) the newcomer's first rebalance
  // guarantees its static share — no history required.
  const uint64_t with_grace = ArrivalQuota(FairShareConfig{});
  EXPECT_GE(with_grace, 230u);  // Static share is 256.

  // Without it (the pre-fix behavior) the incumbent's demand squeezes
  // the newcomer to the min_share floor: the post-arrival fairness dip.
  FairShareConfig no_grace;
  no_grace.arrival_grace = 0.0;
  const uint64_t without_grace = ArrivalQuota(no_grace);
  EXPECT_LE(without_grace, 70u);  // min_share floor is 64.
}

// --------------------------------------- simulation-level attribution --

SimulationConfig SmallSimConfig() {
  SimulationConfig config;
  config.max_accesses = 150000;
  config.seed = 7;
  return config;
}

TEST(MultiTenantSimulation, PerTenantStatsSumToGlobalTotals) {
  auto mux = MakeMuxWorkload(SmallSpecs(), 7);
  auto policy = MakePolicy("HybridTier");
  const SimulationResult result =
      RunSimulation(SmallSimConfig(), mux.get(), policy.get());

  ASSERT_EQ(result.tenants.size(), 3u);
  uint64_t ops = 0;
  uint64_t accesses = 0;
  uint64_t fast = 0;
  uint64_t slow = 0;
  for (const TenantResult& tenant : result.tenants) {
    ops += tenant.ops;
    accesses += tenant.accesses;
    fast += tenant.fast_mem_accesses;
    slow += tenant.slow_mem_accesses;
    EXPECT_GT(tenant.ops, 0u);
  }
  EXPECT_EQ(ops, result.ops);
  EXPECT_EQ(accesses, result.accesses);
  EXPECT_EQ(fast, result.fast_mem_accesses);
  EXPECT_EQ(slow, result.slow_mem_accesses);
  EXPECT_GT(result.jain_fairness, 0.0);
  EXPECT_LE(result.jain_fairness, 1.0);
}

TEST(MultiTenantSimulation, SingleTenantRunsHaveNoTenantResults) {
  auto workload = MakeWorkload("zipf", 0.05, 7);
  auto policy = MakePolicy("HybridTier");
  const SimulationResult result =
      RunSimulation(SmallSimConfig(), workload.get(), policy.get());
  EXPECT_TRUE(result.tenants.empty());
  EXPECT_DOUBLE_EQ(result.jain_fairness, 1.0);
}

TEST(MultiTenantSimulation, FairShareKeepsEveryTenantWithinQuota) {
  auto mux = MakeMuxWorkload(SmallSpecs(), 7);
  auto fair = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                mux->directory());
  SimulationConfig config = SmallSimConfig();
  config.max_accesses = 400000;
  // The wrapper's occupancy is the memory's region tallies; the
  // watchdog recounts them (and the quota bounds) every interval.
  config.watchdog = true;
  const SimulationResult result =
      RunSimulation(config, mux.get(), fair.get());

  const FairShareConfig defaults;
  for (uint32_t t = 0; t < mux->tenant_count(); ++t) {
    EXPECT_LE(result.tenants[t].fast_resident_units,
              fair->quota_units(t) + defaults.max_enforce_batch)
        << "tenant " << result.tenants[t].name << " exceeds its quota";
  }
}

// ------------------------------------------------------- tenant churn --

TEST(MultiTenantSimulation, DepartureReleasesFastShareWithinOneRebalance) {
  std::vector<TenantSpec> specs =
      ParseTenantList("zipf,zipf@0-6e7,cdn:2");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 7);
  const FairShareConfig fair_config;
  auto fair = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                mux->directory(),
                                                fair_config);
  SimulationConfig config = SmallSimConfig();
  config.max_accesses = 30000000;
  config.max_time_ns = 120 * kMillisecond;
  Simulation simulation(config, mux.get(), fair.get());
  const SimulationResult result = simulation.Run();

  constexpr TimeNs kDeparture = 60000000;  // 6e7 ns.
  ASSERT_GT(result.duration_ns, kDeparture);

  // The mux surfaced the departure and stopped serving the tenant.
  bool saw_departure = false;
  for (const TenantChurnEvent& event : mux->churn_events()) {
    if (!event.arrival && event.tenant == 1) {
      saw_departure = true;
      EXPECT_EQ(event.time_ns, kDeparture);
    }
  }
  EXPECT_TRUE(saw_departure);

  // The departed tenant's fast share was fully released and its quota
  // re-divided over the survivors.
  EXPECT_FALSE(fair->tenant_active(1));
  EXPECT_GT(fair->released_units(1), 0u);
  EXPECT_EQ(fair->quota_units(1), 0u);
  EXPECT_EQ(result.tenants[1].fast_resident_units, 0u);
  EXPECT_EQ(fair->quota_units(0) + fair->quota_units(2),
            simulation.fast_capacity_units());

  // Timeline view: the tenant held fast capacity before departing, and
  // its occupancy is zero from one rebalance interval after departure.
  const TimeSeries& occupancy = result.tenants[1].occupancy_timeline;
  ASSERT_GT(occupancy.size(), 0u);
  bool held_capacity_before = false;
  const TimeNs deadline =
      kDeparture + fair_config.rebalance_interval_ns;
  for (size_t i = 0; i < occupancy.size(); ++i) {
    if (occupancy.times_ns[i] < kDeparture && occupancy.values[i] > 0.0) {
      held_capacity_before = true;
    }
    if (occupancy.times_ns[i] >= deadline) {
      EXPECT_EQ(occupancy.values[i], 0.0)
          << "departed tenant still resident at t="
          << occupancy.times_ns[i];
    }
  }
  EXPECT_TRUE(held_capacity_before);
}

TEST(MultiTenantSimulation, ArrivalJoinsRotationAndEarnsQuota) {
  std::vector<TenantSpec> specs = ParseTenantList("zipf,zipf@4e7");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 7);
  auto fair = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                mux->directory());
  SimulationConfig config = SmallSimConfig();
  config.max_accesses = 30000000;
  config.max_time_ns = 100 * kMillisecond;
  Simulation simulation(config, mux.get(), fair.get());
  const SimulationResult result = simulation.Run();

  constexpr TimeNs kArrival = 40000000;  // 4e7 ns.
  ASSERT_GT(result.duration_ns, kArrival);
  EXPECT_GT(result.tenants[1].ops, 0u);
  EXPECT_TRUE(fair->tenant_active(1));
  EXPECT_GT(fair->quota_units(1), 0u);

  // Before the arrival the tenant's region does not exist: it was not
  // prefaulted and holds no fast capacity.
  const TimeSeries& occupancy = result.tenants[1].occupancy_timeline;
  ASSERT_GT(occupancy.size(), 0u);
  for (size_t i = 0; i < occupancy.size(); ++i) {
    if (occupancy.times_ns[i] < kArrival) {
      EXPECT_EQ(occupancy.values[i], 0.0);
    }
  }
  // After it, the tenant owns part of the tier.
  EXPECT_GT(result.tenants[1].fast_resident_units, 0u);
}

TEST(MultiTenantSimulation, TenantResultsCarryControllerAndSamplerStats) {
  auto mux = MakeMuxWorkload(SmallSpecs(), 7);
  auto fair = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                mux->directory());
  SimulationConfig config = SmallSimConfig();
  config.max_accesses = 400000;
  const SimulationResult result =
      RunSimulation(config, mux.get(), fair.get());

  uint64_t shadow_total = 0;
  for (uint32_t t = 0; t < mux->tenant_count(); ++t) {
    const TenantResult& tenant = result.tenants[t];
    EXPECT_EQ(tenant.quota_units, fair->quota_units(t));
    EXPECT_GT(tenant.quota_units, 0u);
    EXPECT_GE(tenant.sample_period, 1u);
    shadow_total += tenant.shadow_samples;
  }
  EXPECT_GT(shadow_total, 0u);  // The ghost estimate was actually fed.
}

TEST(MultiTenantSimulation, RegionOccupancyCountersMatchRescan) {
  // The incremental per-tenant resident counters must agree with a
  // ground-truth pagemap rescan even across churn (arrival, departure,
  // release) — the invariant that lets timeline points read occupancy
  // in O(tenants).
  std::vector<TenantSpec> specs =
      ParseTenantList("zipf,zipf@0-6e7,cdn:2@3e7");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 7);
  auto fair = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                mux->directory());
  SimulationConfig config = SmallSimConfig();
  config.max_accesses = 30000000;
  config.max_time_ns = 120 * kMillisecond;
  Simulation simulation(config, mux.get(), fair.get());
  simulation.Run();

  const TieredMemory& memory = simulation.memory();
  ASSERT_EQ(memory.region_count(), mux->tenant_count());
  for (uint32_t t = 0; t < mux->tenant_count(); ++t) {
    const PageRange range = mux->tenant_units(t, config.mode);
    for (const Tier tier : {Tier::kFast, Tier::kSlow}) {
      uint64_t rescan = 0;
      memory.ScanResident(range.begin, range.size(), tier,
                          [&rescan](PageId) { ++rescan; });
      EXPECT_EQ(memory.RegionResident(t, tier), rescan)
          << "tenant " << t << " tier " << static_cast<int>(tier);
    }
  }
}

TEST(MultiTenantSimulation, MarginalRunsAreDeterministicAcrossReruns) {
  std::vector<uint64_t> quotas[2];
  double fairness[2] = {0.0, 0.0};
  uint64_t ops[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    auto mux = MakeMuxWorkload(SmallSpecs(), 7);
    auto fair = std::make_unique<FairSharePolicy>(
        MakePolicy("HybridTier"), mux->directory());
    SimulationConfig config = SmallSimConfig();
    config.max_accesses = 400000;
    const SimulationResult result =
        RunSimulation(config, mux.get(), fair.get());
    for (uint32_t t = 0; t < mux->tenant_count(); ++t) {
      quotas[run].push_back(fair->quota_units(t));
    }
    fairness[run] = result.weighted_jain_fairness;
    ops[run] = result.ops;
  }
  EXPECT_EQ(quotas[0], quotas[1]);
  EXPECT_EQ(fairness[0], fairness[1]);
  EXPECT_EQ(ops[0], ops[1]);
}

TEST(MultiTenantSimulation, ArrivalGraceLiftsPostArrivalFairness) {
  // Churn regression on the fairness timeline: with the arrival grace
  // the weighted fairness right after a mid-run arrival must not dip
  // below what the graceless (pre-fix) controller produces.
  constexpr TimeNs kArrival = 40000000;  // 4e7 ns.
  const auto run_mean_after_arrival = [&](double grace) {
    std::vector<TenantSpec> specs = ParseTenantList("zipf,zipf@4e7");
    for (TenantSpec& spec : specs) spec.scale = 0.05;
    auto mux = MakeMuxWorkload(specs, 7);
    FairShareConfig fair_config;
    fair_config.arrival_grace = grace;
    auto fair = std::make_unique<FairSharePolicy>(
        MakePolicy("HybridTier"), mux->directory(), fair_config);
    SimulationConfig config = SmallSimConfig();
    config.max_accesses = 30000000;
    config.max_time_ns = 100 * kMillisecond;
    const SimulationResult result =
        RunSimulation(config, mux.get(), fair.get());
    const TimeSeries& fairness = result.weighted_fairness_timeline;
    double sum = 0.0;
    size_t count = 0;
    for (size_t i = 0; i < fairness.size(); ++i) {
      if (fairness.times_ns[i] >= kArrival &&
          fairness.times_ns[i] < kArrival + 3 * fair_config.rebalance_interval_ns) {
        sum += fairness.values[i];
        ++count;
      }
    }
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  };

  const double with_grace = run_mean_after_arrival(1.0);
  const double without_grace = run_mean_after_arrival(0.0);
  EXPECT_GE(with_grace, without_grace);
  EXPECT_GT(with_grace, 0.0);
}

// ---------------------------------------------------------- FleetSpec --

TEST(FleetSpec, FormatParseRoundTrips) {
  FleetSpec spec;
  spec.tenants = 137;
  spec.workload_id = "cdn";
  spec.weight_skew = 1.25;
  spec.footprint_pages = 4096;
  spec.footprint_skew = 0.5;
  spec.churn = "poisson";
  spec.duty = 0.125;
  spec.period_ns = 250000000;
  spec.horizon_ns = 2000000000;
  spec.seed = 99;
  EXPECT_TRUE(IsFleetSpec(FormatFleetSpec(spec)));
  EXPECT_EQ(ParseFleetSpec(FormatFleetSpec(spec)), spec);

  // A count-only spec round-trips through its defaults.
  const FleetSpec defaults = ParseFleetSpec("fleet:10");
  EXPECT_EQ(defaults.tenants, 10u);
  EXPECT_EQ(ParseFleetSpec(FormatFleetSpec(defaults)), defaults);

  // Ordinary tenant lists never look like fleet specs.
  EXPECT_FALSE(IsFleetSpec("zipf,cdn:2,silo@0-1e8"));
  EXPECT_FALSE(IsFleetSpec(""));
}

TEST(FleetSpec, ReadsTimeSuffixes) {
  const FleetSpec spec = ParseFleetSpec("fleet:10,period=2ms,horizon=1s");
  EXPECT_EQ(spec.period_ns, 2 * kMillisecond);
  EXPECT_EQ(spec.horizon_ns, kSecond);
  EXPECT_EQ(FormatFleetSpec(spec),
            "fleet:10,wl=zipf,zipf=0.9,fp=2048,fpskew=0,churn=none,"
            "duty=0.5,period=2000000,horizon=1000000000,seed=1");
  EXPECT_EQ(ParseFleetSpec(FormatFleetSpec(spec)), spec);
}

TEST(FleetSpecDeathTest, RejectsMalformedSpecs) {
  // Fleet errors share the spec-reader shape: token and byte offset.
  const auto exits_1 = ::testing::ExitedWithCode(1);
  EXPECT_EXIT(ParseFleetSpec("fleet:0"), exits_1,
              "bad token '0' at byte 6 .*tenant count must be an integer "
              "in \\[1, 1000000\\]");
  EXPECT_EXIT(ParseFleetSpec("fleet:10,"), exits_1,
              "bad token '' at byte 9 .*expected key=value");
  EXPECT_EXIT(ParseFleetSpec("fleet:10,color=red"), exits_1,
              "bad token 'color' at byte 9 .*unknown fleet key");
  EXPECT_EXIT(ParseFleetSpec("fleet:10,wl=bogus"), exits_1,
              "bad token 'bogus' at byte 12 .*unknown workload id");
  EXPECT_EXIT(ParseFleetSpec("fleet:10,churn=often"), exits_1,
              "bad token 'often' at byte 15 .*none\\|poisson\\|diurnal");
  EXPECT_EXIT(ParseFleetSpec("fleet:10,duty=1"), exits_1,
              "bad token '1' at byte 14 .*duty must be in \\(0,1\\)");
  EXPECT_EXIT(ParseFleetSpec("fleet:10,zipf=-0.5"), exits_1,
              "bad token '-0.5' at byte 14 .*skews must be >= 0");
  EXPECT_EXIT(ParseFleetSpec("fleet:10,period=0"), exits_1,
              "bad token '0' at byte 16 .*period must be positive");
  EXPECT_EXIT(ParseFleetSpec("fleet:10,period=2e9"), exits_1,
              "bad token '10' at byte 6 .*horizon >= period");
  EXPECT_EXIT(ParseFleetSpec("fleet:10;seed=1"), exits_1,
              "at byte 8 .*expected ','");
}

TEST(ParseTenantList, WindowsReadTimeSuffixes) {
  const std::vector<TenantSpec> specs = ParseTenantList("cdn@0-300ms");
  ASSERT_EQ(specs.size(), 1u);
  ASSERT_EQ(specs[0].windows.size(), 1u);
  EXPECT_EQ(specs[0].windows[0].arrival_ns, 0u);
  EXPECT_EQ(specs[0].windows[0].departure_ns, 300 * kMillisecond);
  // The same window spelled in ns parses to the same tenant.
  const std::vector<TenantSpec> raw = ParseTenantList("cdn@0-3e8");
  EXPECT_EQ(raw[0].windows[0].departure_ns, 300 * kMillisecond);
}

TEST(TenantListDeathTest, RejectsMalformedLists) {
  const auto exits_1 = ::testing::ExitedWithCode(1);
  EXPECT_EXIT(ParseTenantList("bogus"), exits_1,
              "bad token 'bogus' at byte 0 .*unknown workload id");
  EXPECT_EXIT(ParseTenantList("cdn,,zipf"), exits_1,
              "bad token '' at byte 4 .*unknown workload id");
  EXPECT_EXIT(ParseTenantList("cdn:0"), exits_1,
              "bad token '0' at byte 4 .*weight must be > 0");
  EXPECT_EXIT(ParseTenantList("cdn:abc"), exits_1,
              "bad token 'abc' at byte 4 .*not a number");
  EXPECT_EXIT(ParseTenantList("cdn:2x"), exits_1,
              "bad token 'x' at byte 5 .*expected ','");
  EXPECT_EXIT(ParseTenantList("zipf@"), exits_1,
              "bad token '' at byte 5 .*arrival time");
  EXPECT_EXIT(ParseTenantList("zipf@-5"), exits_1,
              "bad token '-5' at byte 5 .*must be >= 0");
  EXPECT_EXIT(ParseTenantList("zipf@5e8-1e8"), exits_1,
              "bad token '5e8-1e8' at byte 5 .*depart after it arrives");
  EXPECT_EXIT(ParseTenantList("zipf@0-1e8+3e8+5e8"), exits_1,
              "bad token '5e8' at byte 15 .*only the last");
  EXPECT_EXIT(ParseTenantList("zipf@0-2e8+1e8"), exits_1,
              "bad token '1e8' at byte 11 .*disjoint and in increasing");
}

TEST(ParseTenantList, FleetSpecExpandsToPopulation) {
  const std::string spec =
      "fleet:40,zipf=0.9,fp=1024,fpskew=0.3,churn=poisson,duty=0.25,"
      "period=1e8,horizon=1e9,seed=7";
  const std::vector<TenantSpec> specs = ParseTenantList(spec);
  ASSERT_EQ(specs.size(), 40u);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].workload_id, "zipf");
    EXPECT_EQ(specs[i].seed, 0u);  // Stream seeds come from the run seed.
    if (i > 0) {
      EXPECT_LT(specs[i].weight, specs[i - 1].weight);  // Zipf ranks.
      EXPECT_LE(specs[i].scale, specs[i - 1].scale);    // fpskew.
    }
    // Poisson windows are chronological, disjoint, and only the last
    // may be open-ended.
    ASSERT_FALSE(specs[i].windows.empty());
    for (size_t w = 0; w < specs[i].windows.size(); ++w) {
      const ResidencyWindow& window = specs[i].windows[w];
      if (window.departure_ns != 0) {
        EXPECT_GT(window.departure_ns, window.arrival_ns);
      } else {
        EXPECT_EQ(w + 1, specs[i].windows.size());
      }
      if (w > 0) {
        EXPECT_GT(window.arrival_ns, specs[i].windows[w - 1].departure_ns);
      }
    }
  }

  // Expansion is a pure function of the spec: a second parse yields the
  // identical fleet, churn schedule included.
  const std::vector<TenantSpec> again = ParseTenantList(spec);
  ASSERT_EQ(again.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(again[i].weight, specs[i].weight);
    EXPECT_EQ(again[i].scale, specs[i].scale);
    ASSERT_EQ(again[i].windows.size(), specs[i].windows.size());
    for (size_t w = 0; w < specs[i].windows.size(); ++w) {
      EXPECT_EQ(again[i].windows[w].arrival_ns,
                specs[i].windows[w].arrival_ns);
      EXPECT_EQ(again[i].windows[w].departure_ns,
                specs[i].windows[w].departure_ns);
    }
  }
}

TEST(ParseTenantList, FleetPoissonWindowsStayOrderedAtHugePeriods) {
  // Exponential dwell draws with a mean near 2^62 ns exceed the uint64
  // range often enough to hit every tenant; each draw must be capped
  // before its cast (UBSan float-cast-overflow) so windows stay sane.
  const std::vector<TenantSpec> specs = ParseTenantList(
      "fleet:100,churn=poisson,duty=0.5,period=9e18,horizon=9e18");
  ASSERT_EQ(specs.size(), 100u);
  for (const TenantSpec& spec : specs) {
    ASSERT_FALSE(spec.windows.empty());
    TimeNs previous_departure = 0;
    for (const ResidencyWindow& window : spec.windows) {
      EXPECT_GE(window.arrival_ns, previous_departure);
      if (window.departure_ns != 0) {
        EXPECT_GT(window.departure_ns, window.arrival_ns);
      }
      previous_departure = window.departure_ns;
    }
  }
}

TEST(ParseTenantList, FleetDiurnalPhasesTileThePeriod) {
  const std::vector<TenantSpec> specs = ParseTenantList(
      "fleet:10,churn=diurnal,duty=0.3,period=1e8,horizon=3e8");
  ASSERT_EQ(specs.size(), 10u);
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_FALSE(specs[i].windows.empty());
    // Rank r starts at phase (r-1)/N of the period and recurs exactly.
    EXPECT_EQ(specs[i].windows[0].arrival_ns, i * 10000000u);
    for (size_t w = 1; w < specs[i].windows.size(); ++w) {
      EXPECT_EQ(specs[i].windows[w].arrival_ns,
                specs[i].windows[w - 1].arrival_ns + 100000000u);
    }
  }
}

// The O(active) complexity guard: a 1000-tenant fleet at 10% duty must
// be book-kept in time proportional to the ~100 tenants actually
// present, not the fleet size. The work counters count tenant *visits*
// (not wall time), so the bound is robust to machine speed.
TEST(MultiTenantSimulation, FleetBookkeepingScalesWithActiveTenants) {
  constexpr uint32_t kFleet = 1000;
  // ~100 expected present; several sigmas of headroom, still far under
  // the fleet size a naive full-scan would visit.
  constexpr uint64_t kActiveCeiling = 400;
  auto mux = MakeMuxWorkload(
      ParseTenantList("fleet:1000,zipf=0.9,fp=64,churn=poisson,duty=0.1,"
                      "period=2e8,horizon=1e9,seed=3"),
      7);
  ASSERT_EQ(mux->tenant_count(), kFleet);
  FairShareConfig fair_config;
  auto fair = std::make_unique<FairSharePolicy>(
      MakePolicy("HybridTier"), mux->directory(), fair_config);
  SimulationConfig config;
  config.seed = 7;
  config.max_accesses = 1000000;
  config.max_time_ns = 200 * kMillisecond;
  const SimulationResult result =
      RunSimulation(config, mux.get(), fair.get());
  ASSERT_GT(result.accesses, 0u);
  EXPECT_GT(result.weighted_jain_fairness, 0.0);
  EXPECT_LE(result.weighted_jain_fairness, 1.0);

  EXPECT_LT(fair->active_tenants(), kActiveCeiling);

  // Timeline accounting: visits = present + (departed tenants still
  // draining their fast pages) per interval — both O(active).
  const uint64_t intervals = result.weighted_fairness_timeline.size();
  ASSERT_GT(intervals, 0u);
  EXPECT_LE(result.stats_tenant_visits, intervals * kActiveCeiling);

  // Policy maintenance walks only the active set. Rebalance runs every
  // rebalance interval; enforcement and quota fill run every policy
  // tick, so each gets its own pass count.
  const uint64_t rebalances =
      result.duration_ns / fair_config.rebalance_interval_ns + 2;
  const uint64_t ticks = result.duration_ns / config.tick_interval_ns + 2;
  EXPECT_LE(fair->rebalance_tenant_visits(), rebalances * kActiveCeiling);
  EXPECT_LE(fair->fill_tenant_visits(), ticks * kActiveCeiling);
  EXPECT_LE(fair->enforce_tenant_visits(), ticks * kActiveCeiling);

  // Churn is edge-driven: the policy crosses each arrival/departure
  // edge at most once, so edge visits are bounded by the schedule size.
  uint64_t total_edges = 0;
  for (uint32_t t = 0; t < mux->tenant_count(); ++t) {
    for (const auto& window : mux->tenant_windows(t)) {
      total_edges += window.second == 0 ? 1 : 2;
    }
  }
  EXPECT_LE(fair->churn_edge_visits(), total_edges);
}

TEST(MultiTenantSimulation, FleetRunsAreDeterministicAcrossReruns) {
  std::vector<uint64_t> quotas[2];
  std::vector<double> fairness_timeline[2];
  uint64_t ops[2] = {0, 0};
  uint64_t visits[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    auto mux = MakeMuxWorkload(
        ParseTenantList("fleet:1000,zipf=0.9,fp=64,churn=poisson,"
                        "duty=0.1,period=5e7,horizon=1e9,seed=3"),
        7);
    auto fair = std::make_unique<FairSharePolicy>(
        MakePolicy("HybridTier"), mux->directory());
    SimulationConfig config;
    config.seed = 7;
    config.max_accesses = 300000;
    config.max_time_ns = 150 * kMillisecond;
    const SimulationResult result =
        RunSimulation(config, mux.get(), fair.get());
    for (uint32_t t = 0; t < 32; ++t) {
      quotas[run].push_back(fair->quota_units(t));
    }
    fairness_timeline[run] = result.weighted_fairness_timeline.values;
    ops[run] = result.ops;
    visits[run] = result.stats_tenant_visits;
  }
  EXPECT_EQ(quotas[0], quotas[1]);
  EXPECT_EQ(fairness_timeline[0], fairness_timeline[1]);
  EXPECT_EQ(ops[0], ops[1]);
  EXPECT_EQ(visits[0], visits[1]);
}

TEST(MultiTenantSimulation, HugePageModeAttributesCleanly) {
  auto mux = MakeMuxWorkload(SmallSpecs(), 7);
  auto policy = MakePolicy("HybridTier");
  SimulationConfig config = SmallSimConfig();
  config.mode = PageMode::kHuge;
  const SimulationResult result =
      RunSimulation(config, mux.get(), policy.get());
  uint64_t ops = 0;
  for (const TenantResult& tenant : result.tenants) ops += tenant.ops;
  EXPECT_EQ(ops, result.ops);
}

}  // namespace
}  // namespace hybridtier
