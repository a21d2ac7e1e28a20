/**
 * @file
 * Unit tests for src/mem: page math, tiered memory placement/protection,
 * the performance model, and the migration engine.
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "mem/migration.h"
#include "mem/page.h"
#include "mem/perf_model.h"
#include "mem/tier.h"
#include "mem/tiered_memory.h"
#include "mem/topology.h"
#include "policies/policy.h"
#include "reference/resident_scan.h"

namespace hybridtier {
namespace {

// --------------------------------------------------------------- Page --

TEST(Page, AddressMath) {
  EXPECT_EQ(PageOfAddr(0), 0u);
  EXPECT_EQ(PageOfAddr(kPageSize - 1), 0u);
  EXPECT_EQ(PageOfAddr(kPageSize), 1u);
  EXPECT_EQ(AddrOfPage(3), 3 * kPageSize);
  EXPECT_EQ(HugePageOf(511), 0u);
  EXPECT_EQ(HugePageOf(512), 1u);
  EXPECT_EQ(FirstPageOfHuge(2), 1024u);
}

TEST(Page, TrackingUnits) {
  EXPECT_EQ(TrackingUnitOfAddr(kPageSize + 5, PageMode::kRegular), 1u);
  EXPECT_EQ(TrackingUnitOfAddr(kHugePageSize + 5, PageMode::kHuge), 1u);
  EXPECT_EQ(PageBytes(PageMode::kRegular), kPageSize);
  EXPECT_EQ(PageBytes(PageMode::kHuge), kHugePageSize);
}

TEST(Page, RangeContains) {
  const PageRange range{10, 20};
  EXPECT_EQ(range.size(), 10u);
  EXPECT_TRUE(range.Contains(10));
  EXPECT_TRUE(range.Contains(19));
  EXPECT_FALSE(range.Contains(20));
}

// ------------------------------------------------------- TieredMemory --

TEST(TieredMemory, FastFirstAllocation) {
  TieredMemory mem(100, 10, 100);
  for (PageId page = 0; page < 10; ++page) {
    const TouchResult touch = mem.Touch(page, 0);
    EXPECT_TRUE(touch.first_touch);
    EXPECT_EQ(touch.tier, Tier::kFast);
  }
  // Fast is full: the next allocation overflows to slow.
  EXPECT_EQ(mem.Touch(10, 0).tier, Tier::kSlow);
  EXPECT_EQ(mem.UsedPages(Tier::kFast), 10u);
  EXPECT_EQ(mem.UsedPages(Tier::kSlow), 1u);
  EXPECT_EQ(mem.FreePages(Tier::kFast), 0u);
}

TEST(TieredMemory, SlowOnlyAllocation) {
  TieredMemory mem(100, 10, 100, AllocationPolicy::kSlowOnly);
  EXPECT_EQ(mem.Touch(0, 0).tier, Tier::kSlow);
  EXPECT_EQ(mem.UsedPages(Tier::kFast), 0u);
}

TEST(TieredMemory, SecondTouchIsNotFirstTouch) {
  TieredMemory mem(10, 5, 10);
  mem.Touch(3, 0);
  const TouchResult touch = mem.Touch(3, 10);
  EXPECT_FALSE(touch.first_touch);
  EXPECT_FALSE(touch.hint_fault);
}

TEST(TieredMemory, MigrateMovesBetweenTiers) {
  TieredMemory mem(10, 5, 10);
  mem.Touch(0, 0);
  EXPECT_EQ(mem.TierOf(0), Tier::kFast);
  EXPECT_TRUE(mem.Migrate(0, Tier::kSlow));
  EXPECT_EQ(mem.TierOf(0), Tier::kSlow);
  EXPECT_EQ(mem.UsedPages(Tier::kFast), 0u);
  EXPECT_EQ(mem.UsedPages(Tier::kSlow), 1u);
  EXPECT_TRUE(mem.Migrate(0, Tier::kFast));
  EXPECT_EQ(mem.TierOf(0), Tier::kFast);
}

TEST(TieredMemory, MigrateRejectsNoopAndFull) {
  TieredMemory mem(10, 2, 10);
  mem.Touch(0, 0);
  EXPECT_FALSE(mem.Migrate(0, Tier::kFast));  // Already there.
  mem.Touch(1, 0);                            // Fast now full.
  mem.Touch(2, 0);                            // Goes to slow.
  EXPECT_FALSE(mem.Migrate(2, Tier::kFast));  // No free fast page.
  EXPECT_FALSE(mem.Migrate(5, Tier::kFast));  // Not resident.
}

TEST(TieredMemory, ProtectionAndHintFaults) {
  TieredMemory mem(10, 10, 10);
  mem.Touch(4, 0);
  EXPECT_EQ(mem.Protect(PageRange{0, 10}, 100), 1u);  // Only resident.
  EXPECT_TRUE(mem.IsProtected(4));
  const TouchResult touch = mem.Touch(4, 250);
  EXPECT_TRUE(touch.hint_fault);
  EXPECT_EQ(touch.fault_latency_ns, 150u);
  // Fault cleared the protection: next touch is normal.
  EXPECT_FALSE(mem.Touch(4, 300).hint_fault);
}

TEST(TieredMemory, ProtectNonResidentDoesNothing) {
  TieredMemory mem(10, 10, 10);
  EXPECT_EQ(mem.Protect(PageRange{0, 10}, 0), 0u);
  const TouchResult touch = mem.Touch(0, 10);
  EXPECT_TRUE(touch.first_touch);
  EXPECT_FALSE(touch.hint_fault);
}

TEST(TieredMemory, ReleaseFreesResidentRange) {
  TieredMemory mem(20, 5, 20);
  for (PageId page = 0; page < 10; ++page) mem.Touch(page, 0);
  ASSERT_EQ(mem.UsedPages(Tier::kFast), 5u);
  ASSERT_EQ(mem.UsedPages(Tier::kSlow), 5u);

  // Release a range straddling fast residents {3,4}, slow residents
  // {5..9}, and a never-touched tail; only the resident pages count.
  EXPECT_EQ(mem.Release(PageRange{3, 15}), 7u);
  EXPECT_EQ(mem.UsedPages(Tier::kFast), 3u);
  EXPECT_EQ(mem.UsedPages(Tier::kSlow), 0u);
  EXPECT_FALSE(mem.IsResident(3));
  EXPECT_FALSE(mem.IsResident(9));
  EXPECT_TRUE(mem.IsResident(2));

  // A released page re-allocates like a fresh one (fast-first).
  const TouchResult touch = mem.Touch(3, 10);
  EXPECT_TRUE(touch.first_touch);
  EXPECT_EQ(touch.tier, Tier::kFast);
}

TEST(TieredMemory, ReleaseClearsProtection) {
  TieredMemory mem(10, 10, 10);
  mem.Touch(0, 0);
  mem.Protect(PageRange{0, 1}, 5);
  ASSERT_TRUE(mem.IsProtected(0));
  EXPECT_EQ(mem.Release(PageRange{0, 1}), 1u);
  EXPECT_FALSE(mem.IsProtected(0));
  EXPECT_FALSE(mem.Touch(0, 10).hint_fault);
}

TEST(TieredMemory, ScanResidentFiltersTier) {
  TieredMemory mem(20, 5, 20);
  for (PageId page = 0; page < 10; ++page) mem.Touch(page, 0);
  std::vector<PageId> fast_pages, slow_pages;
  mem.ScanResident(0, 20, Tier::kFast,
                   [&](PageId p) { fast_pages.push_back(p); });
  mem.ScanResident(0, 20, Tier::kSlow,
                   [&](PageId p) { slow_pages.push_back(p); });
  EXPECT_EQ(fast_pages.size(), 5u);
  EXPECT_EQ(slow_pages.size(), 5u);
  EXPECT_EQ(fast_pages.front(), 0u);
  EXPECT_EQ(slow_pages.front(), 5u);
}

TEST(TieredMemory, ScanChunkBounds) {
  TieredMemory mem(20, 20, 20);
  for (PageId page = 0; page < 20; ++page) mem.Touch(page, 0);
  std::vector<PageId> seen;
  const uint64_t visited =
      mem.ScanResident(15, 100, Tier::kFast,
                       [&](PageId p) { seen.push_back(p); });
  EXPECT_EQ(visited, 5u);  // Clipped at the footprint end.
  EXPECT_EQ(seen.size(), 5u);
}

TEST(TieredMemory, ScanResidentMatchesByteLoopReference) {
  // Random flag bytes (untouched, fast, slow, each maybe protected) over
  // address spaces that end off an 8-unit boundary, scanned from random
  // unaligned starts with lengths that stop inside a group or run past
  // the end, for both tiers; the word scan must visit exactly the
  // reference's units in the reference's order and report its count.
  Rng rng(41);
  for (int space = 0; space < 60; ++space) {
    const uint64_t total = 1 + rng.NextBounded(300);
    TieredMemory mem(total, total, total, AllocationPolicy::kSlowOnly);
    for (PageId page = 0; page < total; ++page) {
      const uint64_t state = rng.NextBounded(4);
      if (state == 0) continue;  // Never touched.
      mem.Touch(page, 0);
      if (state == 1) mem.Migrate(page, Tier::kFast);
    }
    mem.Protect(PageRange{rng.NextBounded(total), total}, 7);
    SCOPED_TRACE("space of " + std::to_string(total) + " units");
    for (int scan = 0; scan < 40; ++scan) {
      const PageId start = rng.NextBounded(total + 10);
      const uint64_t count = rng.NextBounded(total + 20);
      for (const Tier tier : {Tier::kFast, Tier::kSlow}) {
        const reference::ScanResult want =
            reference::ScanResident(mem, start, count, tier);
        std::vector<PageId> seen;
        const uint64_t walked = mem.ScanResident(
            start, count, tier, [&](PageId p) { seen.push_back(p); });
        ASSERT_EQ(seen, want.visited) << "start " << start << ", count "
                                      << count;
        ASSERT_EQ(walked, want.walked) << "start " << start;
        // The group form reports the same units, one 8-unit group at a
        // time, each group once and in ascending order.
        std::vector<PageId> grouped;
        PageId last_group = 0;
        const uint64_t group_walked = mem.ScanResidentGroups(
            start, count, tier, [&](PageId group, uint64_t lanes) {
              ASSERT_EQ(group % 8, 0u);
              ASSERT_NE(lanes, 0u);
              ASSERT_EQ(lanes & ~0x0101010101010101ULL, 0u);
              ASSERT_TRUE(grouped.empty() || group > last_group);
              last_group = group;
              for (; lanes != 0; lanes &= lanes - 1) {
                grouped.push_back(group + std::countr_zero(lanes) / 8);
              }
            });
        ASSERT_EQ(grouped, want.visited) << "start " << start;
        ASSERT_EQ(group_walked, want.walked);
      }
    }
  }
}

TEST(MetadataTrafficCounter, TouchRepeatedEqualsRepeatedTouches) {
  // Runs of touches, some continuing the previous line, some of length
  // zero, with recording on and off.
  Rng rng(3);
  for (const bool recording : {true, false}) {
    MetadataTrafficCounter batched;
    MetadataTrafficCounter single;
    batched.SetRecording(recording);
    single.SetRecording(recording);
    for (int run = 0; run < 500; ++run) {
      const uint64_t line = rng.NextBounded(4) * kCacheLineSize +
                            rng.NextBounded(kCacheLineSize);
      const uint64_t n = rng.NextBounded(5);
      batched.TouchRepeated(line, n);
      for (uint64_t i = 0; i < n; ++i) single.Touch(line);
      if (run % 97 == 0) {
        batched.Clear();
        single.Clear();
      }
      ASSERT_EQ(batched.touches(), single.touches());
      ASSERT_EQ(batched.lines(), single.lines());
      ASSERT_EQ(batched.repeats(), single.repeats());
    }
  }
}

// ---------------------------------------------------------- PerfModel --

PerfModel MakePerf(uint32_t threads = 1) {
  PerfModelConfig config;
  config.threads = threads;
  return PerfModel(config, DefaultFastTier(1000), DefaultTopology());
}

/** Cost of one batch of `pages` pages on the single default endpoint. */
TimeNs MigrationCost(PerfModel& perf, uint64_t pages, uint64_t page_bytes,
                     TimeNs now) {
  const uint64_t per_endpoint[] = {pages};
  return perf.MigrationCost(per_endpoint, page_bytes, now);
}

TEST(PerfModel, IdleLatenciesMatchPaper) {
  PerfModel perf = MakePerf();
  // Paper §5.1: emulated CXL idle latency 124 ns; local DRAM ~80 ns.
  EXPECT_EQ(perf.EndpointIdleLatency(0), 124u);
  EXPECT_EQ(perf.FastIdleLatency(), 80u);
  EXPECT_EQ(perf.MemoryAccess(Tier::kSlow, 0, 1000000), 124u);
}

TEST(PerfModel, SlowTierSlowerThanFast) {
  PerfModel perf = MakePerf();
  EXPECT_GT(perf.MemoryAccess(Tier::kSlow, 0, 0),
            perf.MemoryAccess(Tier::kFast, 0, kSecond));
}

TEST(PerfModel, QueueingDelayUnderBurst) {
  PerfModel perf = MakePerf(/*threads=*/16);
  // Back-to-back accesses at the same instant queue behind each other.
  const TimeNs first = perf.MemoryAccess(Tier::kSlow, 0, 0);
  const TimeNs second = perf.MemoryAccess(Tier::kSlow, 0, 0);
  EXPECT_GT(second, first);
}

TEST(PerfModel, QueueDelayCapped) {
  PerfModelConfig config;
  config.threads = 16;
  config.max_queue_delay_ns = 500;
  PerfModel perf(config, DefaultFastTier(1000), DefaultTopology());
  for (int i = 0; i < 1000; ++i) perf.MemoryAccess(Tier::kSlow, 0, 0);
  EXPECT_LE(perf.MemoryAccess(Tier::kSlow, 0, 0), 124u + 500u);
}

TEST(PerfModel, MigrationCostScalesWithPages) {
  PerfModel perf = MakePerf();
  const TimeNs one = MigrationCost(perf, 1, kPageSize, 0);
  const TimeNs hundred = MigrationCost(perf, 100, kPageSize, kSecond);
  EXPECT_GT(hundred, one * 20);
  EXPECT_EQ(MigrationCost(perf, 0, kPageSize, 0), 0u);
}

TEST(PerfModel, HugePageMigrationCostlier) {
  PerfModel perf = MakePerf();
  const TimeNs regular = MigrationCost(perf, 1, kPageSize, 0);
  const TimeNs huge = MigrationCost(perf, 1, kHugePageSize, kSecond);
  EXPECT_GT(huge, regular);
}

TEST(PerfModel, MigrationOccupiesChannels) {
  PerfModel perf = MakePerf();
  MigrationCost(perf, 10000, kPageSize, 0);  // ~39 MiB copy.
  // A demand access right after the copy sees queueing delay.
  EXPECT_GT(perf.MemoryAccess(Tier::kSlow, 0, 1), 124u);
  EXPECT_GE(perf.BytesTransferred(Tier::kFast), 10000u * kPageSize);
}

// ---------------------------------------------------- MigrationEngine --

TEST(MigrationEngine, PromoteAndDemoteBatches) {
  TieredMemory mem(100, 10, 100, AllocationPolicy::kSlowOnly);
  PerfModel perf = MakePerf();
  MigrationEngine engine(&mem, &perf);
  for (PageId page = 0; page < 20; ++page) mem.Touch(page, 0);

  const std::vector<PageId> batch = {0, 1, 2, 3, 4};
  const TimeNs cost =
      engine.Promote(batch, 0, MigrationReason::kHotnessRank);
  EXPECT_GT(cost, 0u);
  EXPECT_EQ(engine.stats().promoted_pages, 5u);
  EXPECT_EQ(engine.stats().promotion_batches, 1u);
  EXPECT_EQ(mem.UsedPages(Tier::kFast), 5u);

  const std::vector<PageId> down = {0, 1};
  engine.Demote(down, 100, MigrationReason::kCapacityDemand);
  EXPECT_EQ(engine.stats().demoted_pages, 2u);
  EXPECT_EQ(mem.UsedPages(Tier::kFast), 3u);
}

TEST(MigrationEngine, FailedPromotionsCounted) {
  TieredMemory mem(100, 2, 100, AllocationPolicy::kSlowOnly);
  PerfModel perf = MakePerf();
  MigrationEngine engine(&mem, &perf);
  for (PageId page = 0; page < 5; ++page) mem.Touch(page, 0);
  const std::vector<PageId> batch = {0, 1, 2, 3};
  engine.Promote(batch, 0, MigrationReason::kHotnessRank);
  EXPECT_EQ(engine.stats().promoted_pages, 2u);
  EXPECT_EQ(engine.stats().failed_promotions, 2u);
}

TEST(MigrationEngine, NonResidentPagesSkipped) {
  TieredMemory mem(100, 10, 100);
  PerfModel perf = MakePerf();
  MigrationEngine engine(&mem, &perf);
  const std::vector<PageId> batch = {50};
  EXPECT_EQ(engine.Promote(batch, 0, MigrationReason::kHotnessRank), 0u);
  EXPECT_EQ(engine.stats().promoted_pages, 0u);
}

TEST(MigrationEngine, EmptyBatchFree) {
  TieredMemory mem(10, 5, 10);
  PerfModel perf = MakePerf();
  MigrationEngine engine(&mem, &perf);
  EXPECT_EQ(engine.Promote({}, 0, MigrationReason::kHotnessRank), 0u);
  EXPECT_EQ(engine.stats().promotion_batches, 0u);
}

TEST(MigrationEngine, TracksMigrationTime) {
  TieredMemory mem(100, 50, 100, AllocationPolicy::kSlowOnly);
  PerfModel perf = MakePerf();
  MigrationEngine engine(&mem, &perf);
  for (PageId page = 0; page < 20; ++page) mem.Touch(page, 0);
  std::vector<PageId> batch;
  for (PageId page = 0; page < 20; ++page) batch.push_back(page);
  engine.Promote(batch, 0, MigrationReason::kHotnessRank);
  EXPECT_EQ(engine.stats().migration_time_ns,
            engine.stats().migration_time_ns);
  EXPECT_GT(engine.stats().migration_time_ns, 20u * 1200u);
}

TEST(MigrationEngine, RefusesDemotionHomedOnDownEndpoint) {
  // Two endpoints, one-unit interleave: odd units are homed on
  // endpoint 1. Health lives on the timing model alone.
  Topology topology;
  topology.endpoints.resize(2);
  PerfModel perf(PerfModelConfig{}, DefaultFastTier(16), topology);
  TieredMemory mem(32, 16, 32, AllocationPolicy::kFastFirst,
                   /*endpoint_count=*/2);
  MigrationEngine engine(&mem, &perf);
  for (PageId page = 0; page < 8; ++page) mem.Touch(page, 0);
  EXPECT_FALSE(perf.AnyEndpointDown());

  perf.SetEndpointDown(1, true);
  EXPECT_TRUE(perf.AnyEndpointDown());
  perf.SetEndpointDown(1, true);  // Idempotent: still one down.
  perf.SetEndpointDown(0, true);
  perf.SetEndpointDown(0, false);
  EXPECT_TRUE(perf.AnyEndpointDown());

  // Unit 1 is homed on the down endpoint: refused and counted; unit 2
  // (endpoint 0) still moves.
  const std::vector<PageId> batch = {1, 2};
  engine.Demote(batch, 0, MigrationReason::kCapacityDemand);
  EXPECT_EQ(engine.stats().failed_demotions, 1u);
  EXPECT_EQ(engine.stats().demoted_pages, 1u);
  EXPECT_EQ(mem.TierOf(1), Tier::kFast);
  EXPECT_EQ(mem.TierOf(2), Tier::kSlow);

  // Promotions off the down endpoint still work (evacuation reads it).
  mem.Touch(9, 0);
  ASSERT_TRUE(mem.Migrate(9, Tier::kSlow));
  const std::vector<PageId> evacuate = {9};
  engine.Promote(evacuate, 0, MigrationReason::kFaultEvacuation);
  EXPECT_EQ(mem.TierOf(9), Tier::kFast);

  // Recovery: the same demotion is accepted again.
  perf.SetEndpointDown(1, false);
  EXPECT_FALSE(perf.AnyEndpointDown());
  const std::vector<PageId> retry = {1};
  engine.Demote(retry, 0, MigrationReason::kCapacityDemand);
  EXPECT_EQ(engine.stats().failed_demotions, 1u);
  EXPECT_EQ(engine.stats().demoted_pages, 2u);
  EXPECT_EQ(mem.TierOf(1), Tier::kSlow);
}

// ---------------------------------------------- per-region accounting --

/** Ground truth: rescan `mem` for resident pages of `tier` in range. */
uint64_t RescanResident(const TieredMemory& mem, PageRange range,
                        Tier tier) {
  uint64_t count = 0;
  mem.ScanResident(range.begin, range.size(), tier,
                   [&count](PageId) { ++count; });
  return count;
}

TEST(TieredMemory, RegionCountersMatchRescanThroughLifecycle) {
  TieredMemory mem(256, 64, 256, AllocationPolicy::kFastFirst);
  const std::vector<PageRange> regions = {PageRange{0, 128},
                                          PageRange{128, 256}};
  mem.DefineRegions(regions);
  ASSERT_EQ(mem.region_count(), 2u);

  const auto expect_match = [&](const char* stage) {
    for (uint32_t r = 0; r < regions.size(); ++r) {
      for (const Tier tier : {Tier::kFast, Tier::kSlow}) {
        EXPECT_EQ(mem.RegionResident(r, tier),
                  RescanResident(mem, regions[r], tier))
            << stage << ": region " << r << " tier "
            << static_cast<int>(tier);
      }
    }
  };

  expect_match("empty");

  // First touches: region 0 soaks up the fast tier, region 1 overflows
  // to slow.
  for (PageId page = 0; page < 200; ++page) mem.Touch(page, 0);
  expect_match("after touch");
  EXPECT_EQ(mem.RegionResident(0, Tier::kFast), 64u);

  // Migrations in both directions.
  for (PageId page = 0; page < 32; ++page) {
    ASSERT_TRUE(mem.Migrate(page, Tier::kSlow));
  }
  for (PageId page = 128; page < 144; ++page) {
    ASSERT_TRUE(mem.Migrate(page, Tier::kFast));
  }
  expect_match("after migrate");

  // Release one region entirely (tenant departure).
  EXPECT_EQ(mem.Release(regions[1]), 72u);
  expect_match("after release");
  EXPECT_EQ(mem.RegionResident(1, Tier::kFast), 0u);
  EXPECT_EQ(mem.RegionResident(1, Tier::kSlow), 0u);

  // Re-touch after release re-allocates and re-counts.
  for (PageId page = 128; page < 140; ++page) mem.Touch(page, 1);
  expect_match("after re-touch");
}

TEST(TieredMemory, DefineRegionsSeedsCountersFromExistingState) {
  TieredMemory mem(100, 30, 100, AllocationPolicy::kFastFirst);
  for (PageId page = 0; page < 80; ++page) mem.Touch(page, 0);
  // Layout installed *after* pages were placed: counters must be seeded
  // from the current state, not start at zero.
  mem.DefineRegions({PageRange{0, 50}, PageRange{50, 100}});
  EXPECT_EQ(mem.RegionResident(0, Tier::kFast), 30u);
  EXPECT_EQ(mem.RegionResident(0, Tier::kSlow), 20u);
  EXPECT_EQ(mem.RegionResident(1, Tier::kFast), 0u);
  EXPECT_EQ(mem.RegionResident(1, Tier::kSlow), 30u);
}

TEST(TieredMemory, RegionOfReadsTheLayout) {
  TieredMemory mem(100, 30, 100);
  mem.DefineRegions({PageRange{10, 50}, PageRange{50, 90}});
  EXPECT_EQ(mem.region_count(), 2u);
  EXPECT_EQ(mem.RegionOf(9), TieredMemory::kNoRegion);
  EXPECT_EQ(mem.RegionOf(10), 0u);
  EXPECT_EQ(mem.RegionOf(49), 0u);
  EXPECT_EQ(mem.RegionOf(50), 1u);
  EXPECT_EQ(mem.RegionOf(89), 1u);
  EXPECT_EQ(mem.RegionOf(90), TieredMemory::kNoRegion);
}

}  // namespace
}  // namespace hybridtier
