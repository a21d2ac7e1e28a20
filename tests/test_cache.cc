/**
 * @file
 * Unit tests for src/cache: set-associative cache model and the
 * two-level hierarchy with per-owner attribution.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache_sim.h"
#include "cache/hierarchy.h"
#include "common/rng.h"
#include "common/units.h"
#include "policies/policy.h"
#include "reference/lru_cache.h"

namespace hybridtier {
namespace {

CacheConfig SmallCache(uint64_t size_bytes = 4096, uint32_t ways = 4) {
  return CacheConfig{.size_bytes = size_bytes,
                     .ways = ways,
                     .line_size = 64};
}

// -------------------------------------------------------------- Cache --

TEST(Cache, GeometryComputed) {
  Cache cache(SmallCache(4096, 4));
  // 4096 B / 64 B lines = 64 lines / 4 ways = 16 sets.
  EXPECT_EQ(cache.num_sets(), 16u);
}

TEST(Cache, ColdMissThenHit) {
  Cache cache(SmallCache());
  EXPECT_FALSE(cache.AccessLine(100, AccessOwner::kApp));
  EXPECT_TRUE(cache.AccessLine(100, AccessOwner::kApp));
  EXPECT_EQ(cache.stats().misses[0], 1u);
  EXPECT_EQ(cache.stats().hits[0], 1u);
}

TEST(Cache, LruEviction) {
  Cache cache(SmallCache(4096, 4));  // 16 sets, 4 ways.
  // Five lines mapping to set 0: addresses differing by num_sets.
  const uint64_t set0[] = {0, 16, 32, 48, 64};
  for (const uint64_t line : set0) {
    EXPECT_FALSE(cache.AccessLine(line, AccessOwner::kApp));
  }
  // Line 0 was LRU and must have been evicted by line 64.
  EXPECT_FALSE(cache.AccessLine(0, AccessOwner::kApp));
  // Line 64 is still resident (it was just inserted, then 0 evicted 16).
  EXPECT_TRUE(cache.AccessLine(64, AccessOwner::kApp));
}

TEST(Cache, LruRefreshOnHit) {
  Cache cache(SmallCache(4096, 4));
  const uint64_t set0[] = {0, 16, 32, 48};
  for (const uint64_t line : set0) cache.AccessLine(line, AccessOwner::kApp);
  // Touch line 0 so it becomes MRU, then insert a new conflicting line.
  cache.AccessLine(0, AccessOwner::kApp);
  cache.AccessLine(64, AccessOwner::kApp);
  // Line 16 (the LRU) was evicted; line 0 survived.
  EXPECT_TRUE(cache.AccessLine(0, AccessOwner::kApp));
  EXPECT_FALSE(cache.AccessLine(16, AccessOwner::kApp));
}

TEST(Cache, OwnerAttributionSeparated) {
  Cache cache(SmallCache());
  cache.AccessLine(1, AccessOwner::kApp);
  cache.AccessLine(2, AccessOwner::kTiering);
  cache.AccessLine(2, AccessOwner::kTiering);
  EXPECT_EQ(cache.stats().misses[0], 1u);
  EXPECT_EQ(cache.stats().misses[1], 1u);
  EXPECT_EQ(cache.stats().hits[1], 1u);
  EXPECT_NEAR(cache.stats().MissShare(AccessOwner::kTiering), 0.5, 1e-9);
}

TEST(Cache, FlushInvalidatesKeepsStats) {
  Cache cache(SmallCache());
  cache.AccessLine(5, AccessOwner::kApp);
  cache.Flush();
  EXPECT_FALSE(cache.AccessLine(5, AccessOwner::kApp));
  EXPECT_EQ(cache.stats().misses[0], 2u);
}

TEST(Cache, ResetStatsKeepsContents) {
  Cache cache(SmallCache());
  cache.AccessLine(5, AccessOwner::kApp);
  cache.ResetStats();
  EXPECT_TRUE(cache.AccessLine(5, AccessOwner::kApp));
  EXPECT_EQ(cache.stats().hits[0], 1u);
  EXPECT_EQ(cache.stats().misses[0], 0u);
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  Cache cache(SmallCache(4096, 4));  // 64 lines.
  // Cycle through 256 lines twice: second pass still misses everywhere.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t line = 0; line < 256; ++line) {
      cache.AccessLine(line, AccessOwner::kApp);
    }
  }
  EXPECT_EQ(cache.stats().total_misses(), 512u);
}

TEST(Cache, WorkingSetFittingCacheAllHitsSecondPass) {
  Cache cache(SmallCache(4096, 4));
  for (uint64_t line = 0; line < 32; ++line) {
    cache.AccessLine(line, AccessOwner::kApp);
  }
  for (uint64_t line = 0; line < 32; ++line) {
    EXPECT_TRUE(cache.AccessLine(line, AccessOwner::kApp));
  }
}

// ------------------------------------------- differential reference --

/** Replays one access through both caches and compares the outcome. */
testing::AssertionResult SameOutcome(Cache& cache, reference::LruCache& lru,
                                     uint64_t line, AccessOwner owner) {
  const bool hit = cache.AccessLine(line, owner);
  if (hit == lru.Access(line, static_cast<size_t>(owner))) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << "line " << line << (hit ? " hit" : " missed")
         << " in Cache but not in the reference";
}

void ExpectSameCounts(const Cache& cache, const reference::LruCache& lru) {
  for (size_t owner = 0; owner < kNumOwners; ++owner) {
    EXPECT_EQ(cache.stats().hits[owner], lru.hits(owner)) << owner;
    EXPECT_EQ(cache.stats().misses[owner], lru.misses(owner)) << owner;
  }
}

TEST(Cache, MatchesTrueLruReferenceOnRandomTraces) {
  constexpr uint64_t kSets = 16;
  constexpr size_t kSteps = 40000;
  for (const uint32_t ways : {1u, 2u, 4u, 8u, 12u, 16u}) {
    SCOPED_TRACE(testing::Message() << ways << " ways");
    Cache cache(SmallCache(kSets * ways * 64, ways));
    ASSERT_EQ(cache.num_sets(), kSets);
    reference::LruCache lru(kSets, ways);
    // Three times as many lines as the cache holds, half of the accesses
    // to a quarter of them, so sets see hits, refreshes and evictions.
    const uint64_t lines = 3 * kSets * ways;
    uint64_t state = 0x5eed0000 + ways;
    for (size_t step = 0; step < kSteps; ++step) {
      if (step == kSteps / 2) {
        cache.Flush();
        lru.Flush();
      }
      const uint64_t r = SplitMix64Next(state);
      const uint64_t range = (r & 1) != 0 ? lines / 4 : lines;
      const uint64_t line = (r >> 8) % range;
      const AccessOwner owner =
          (r & 2) != 0 ? AccessOwner::kTiering : AccessOwner::kApp;
      ASSERT_TRUE(SameOutcome(cache, lru, line, owner)) << "step " << step;
    }
    ExpectSameCounts(cache, lru);
    EXPECT_GT(lru.hits(0) + lru.hits(1), kSteps / 10);
    EXPECT_GT(lru.misses(0) + lru.misses(1), kSteps / 10);
  }
}

TEST(Cache, SharedSignaturesAreToldApartByTheFullTag) {
  constexpr uint64_t kSets = 16;
  constexpr uint32_t kWays = Cache::kMaxWays;
  // Tags of set 3 whose signatures all equal tag 1's.
  const uint64_t set = 3;
  std::vector<uint64_t> lines;
  const uint16_t sig = Cache::Signature(1);
  for (uint64_t tag = 1; lines.size() < kWays + 4; ++tag) {
    if (Cache::Signature(tag) == sig) lines.push_back(tag * kSets + set);
  }
  Cache cache(SmallCache(kSets * kWays * 64, kWays));
  ASSERT_EQ(cache.num_sets(), kSets);
  reference::LruCache lru(kSets, kWays);
  // Fill the set with 16 same-signature lines: every later probe matches
  // the signature of each line already there and must verify its tag.
  for (uint32_t i = 0; i < kWays; ++i) {
    ASSERT_TRUE(SameOutcome(cache, lru, lines[i], AccessOwner::kApp));
  }
  for (uint32_t i = 0; i < kWays; ++i) {
    EXPECT_TRUE(cache.AccessLine(lines[i], AccessOwner::kApp));
    lru.Access(lines[i], 0);
  }
  // A seventeenth line with the same signature misses and evicts.
  EXPECT_FALSE(cache.AccessLine(lines[kWays], AccessOwner::kApp));
  lru.Access(lines[kWays], 0);
  uint64_t state = 77;
  for (size_t step = 0; step < 5000; ++step) {
    const uint64_t r = SplitMix64Next(state);
    const AccessOwner owner =
        (r & 1) != 0 ? AccessOwner::kTiering : AccessOwner::kApp;
    ASSERT_TRUE(
        SameOutcome(cache, lru, lines[(r >> 8) % lines.size()], owner))
        << "step " << step;
  }
  ExpectSameCounts(cache, lru);
}

TEST(CacheDeathTest, RejectsMoreThanSixteenWays) {
  EXPECT_DEATH(Cache(SmallCache(16 * 32 * 64, 32)), "associativity above 16");
}

// ---------------------------------------------------------- Hierarchy --

HierarchyConfig SmallHierarchy() {
  HierarchyConfig config;
  config.l1 = CacheConfig{.size_bytes = 1024, .ways = 4, .line_size = 64};
  config.llc = CacheConfig{.size_bytes = 16384, .ways = 8, .line_size = 64};
  return config;
}

TEST(Hierarchy, LevelsReportedInOrder) {
  CacheHierarchy hierarchy(SmallHierarchy());
  // Cold: miss everywhere.
  EXPECT_EQ(hierarchy.Access(0, AccessOwner::kApp), HitLevel::kMemory);
  // Hot in L1.
  EXPECT_EQ(hierarchy.Access(0, AccessOwner::kApp), HitLevel::kL1);
}

TEST(Hierarchy, LlcCatchesL1Evictions) {
  CacheHierarchy hierarchy(SmallHierarchy());
  // Fill far beyond L1 (16 lines) but within LLC (256 lines).
  for (uint64_t addr = 0; addr < 64 * kCacheLineSize;
       addr += kCacheLineSize) {
    hierarchy.Access(addr, AccessOwner::kApp);
  }
  // Address 0 fell out of L1 but not out of the LLC.
  EXPECT_EQ(hierarchy.Access(0, AccessOwner::kApp), HitLevel::kLlc);
}

TEST(Hierarchy, SeparateL1sSharedLlc) {
  CacheHierarchy hierarchy(SmallHierarchy());
  hierarchy.Access(0, AccessOwner::kApp);
  // Tiering core's L1 does not contain the line, but the LLC does.
  EXPECT_EQ(hierarchy.Access(0, AccessOwner::kTiering), HitLevel::kLlc);
  // Now it is in the tiering L1 too.
  EXPECT_EQ(hierarchy.Access(0, AccessOwner::kTiering), HitLevel::kL1);
}

TEST(Hierarchy, TieringTrafficEvictsAppLines) {
  // The interference mechanism behind paper Fig 5: metadata updates
  // evict application lines from the shared LLC.
  CacheHierarchy hierarchy(SmallHierarchy());
  hierarchy.Access(0, AccessOwner::kApp);
  // Tiering floods the LLC (16 KiB = 256 lines).
  for (uint64_t i = 1; i <= 2048; ++i) {
    hierarchy.Access(i * kCacheLineSize, AccessOwner::kTiering);
  }
  // Evict line 0 from the app's private L1 (4 sets x 4 ways) by touching
  // four other lines of its set; the tiering flood cannot do that.
  for (uint64_t conflict = 4; conflict <= 16; conflict += 4) {
    hierarchy.Access(conflict * kCacheLineSize, AccessOwner::kApp);
  }
  // The app line is gone from both its L1 and the shared LLC.
  EXPECT_EQ(hierarchy.Access(0, AccessOwner::kApp), HitLevel::kMemory);
}

TEST(Hierarchy, MissShareAttribution) {
  CacheHierarchy hierarchy(SmallHierarchy());
  for (uint64_t i = 0; i < 100; ++i) {
    hierarchy.Access(i * kCacheLineSize, AccessOwner::kApp);
  }
  for (uint64_t i = 1000; i < 1100; ++i) {
    hierarchy.Access(i * kCacheLineSize, AccessOwner::kTiering);
  }
  EXPECT_NEAR(hierarchy.TieringLlcMissShare(), 0.5, 0.05);
  EXPECT_NEAR(hierarchy.TieringL1MissShare(), 0.5, 0.05);
  EXPECT_EQ(hierarchy.L1Misses(AccessOwner::kApp), 100u);
  EXPECT_EQ(hierarchy.LlcMisses(AccessOwner::kTiering), 100u);
}

TEST(Hierarchy, ResetStats) {
  CacheHierarchy hierarchy(SmallHierarchy());
  hierarchy.Access(0, AccessOwner::kApp);
  hierarchy.ResetStats();
  EXPECT_EQ(hierarchy.L1Misses(AccessOwner::kApp), 0u);
  EXPECT_EQ(hierarchy.llc_stats().total_misses(), 0u);
}

TEST(Hierarchy, ByteAddressesMapToLines) {
  CacheHierarchy hierarchy(SmallHierarchy());
  hierarchy.Access(100, AccessOwner::kApp);  // Line 1 (64..127).
  EXPECT_EQ(hierarchy.Access(127, AccessOwner::kApp), HitLevel::kL1);
  EXPECT_EQ(hierarchy.Access(128, AccessOwner::kApp), HitLevel::kMemory);
}

// ------------------------------------------- folded metadata replay --

/** One access of a mixed stream. */
struct StreamAccess {
  AccessOwner owner;
  uint64_t addr;  //!< Byte address.
};

/**
 * Runs of repeated tiering lines (any byte of the line) interleaved with
 * app accesses, over few enough lines that every level evicts and the
 * two owners meet in the LLC's sets.
 */
std::vector<StreamAccess> RunsOfTieringLinesAmongAppAccesses() {
  constexpr uint64_t kTieringBase = uint64_t{1} << 20;
  Rng rng(11);
  std::vector<StreamAccess> stream;
  for (int segment = 0; segment < 500; ++segment) {
    const uint64_t runs = rng.NextBounded(6);
    for (uint64_t run = 0; run < runs; ++run) {
      const uint64_t line = rng.NextBounded(96);
      const uint64_t length = 1 + rng.NextBounded(4);
      for (uint64_t i = 0; i < length; ++i) {
        stream.push_back({AccessOwner::kTiering,
                          kTieringBase + line * kCacheLineSize +
                              rng.NextBounded(kCacheLineSize)});
      }
    }
    const uint64_t app = rng.NextBounded(5);
    for (uint64_t i = 0; i < app; ++i) {
      stream.push_back(
          {AccessOwner::kApp, rng.NextBounded(256) * kCacheLineSize});
    }
  }
  return stream;
}

void ExpectSameStats(const CacheStats& folded, const CacheStats& reference,
                     const char* level) {
  for (size_t owner = 0; owner < kNumOwners; ++owner) {
    EXPECT_EQ(folded.hits[owner], reference.hits[owner])
        << level << " hits, owner " << owner;
    EXPECT_EQ(folded.misses[owner], reference.misses[owner])
        << level << " misses, owner " << owner;
  }
}

TEST(Hierarchy, FoldedTieringReplayMatchesLineByLine) {
  const std::vector<StreamAccess> stream =
      RunsOfTieringLinesAmongAppAccesses();

  // Reference: every access through the hierarchy, one by one.
  CacheHierarchy reference(SmallHierarchy());
  std::vector<HitLevel> reference_app;
  for (const StreamAccess& access : stream) {
    const HitLevel level = reference.Access(access.addr, access.owner);
    if (access.owner == AccessOwner::kApp) reference_app.push_back(level);
  }

  // Folded: tiering touches are buffered by the metadata counter, which
  // is flushed before each app access and at the end, as the simulation
  // flushes metadata traffic.
  CacheHierarchy folded(SmallHierarchy());
  MetadataTrafficCounter counter;
  uint64_t folded_repeats = 0;
  const auto flush = [&] {
    folded_repeats += counter.repeats();
    folded.ReplayTiering(counter.lines(), counter.repeats());
    counter.Clear();
  };
  std::vector<HitLevel> folded_app;
  for (const StreamAccess& access : stream) {
    if (access.owner == AccessOwner::kTiering) {
      counter.Touch(access.addr);
      continue;
    }
    flush();
    folded_app.push_back(folded.Access(access.addr, AccessOwner::kApp));
  }
  flush();

  ASSERT_GT(folded_repeats, 500u);  // The stream does exercise folding.
  EXPECT_EQ(folded_app, reference_app);
  ExpectSameStats(folded.l1_app_stats(), reference.l1_app_stats(),
                  "L1-app");
  ExpectSameStats(folded.l1_tiering_stats(), reference.l1_tiering_stats(),
                  "L1-tiering");
  ExpectSameStats(folded.llc_stats(), reference.llc_stats(), "LLC");
  EXPECT_GT(reference.LlcMisses(AccessOwner::kTiering), 0u);
}

TEST(MetadataTrafficCounter, FoldsOnlyRepeatsOfTheLastLine) {
  MetadataTrafficCounter counter;
  for (const uint64_t addr : {0, 8, 63, 64, 0, 0, 200, 255, 256}) {
    counter.Touch(addr);
  }
  EXPECT_EQ(counter.touches(), 9u);
  EXPECT_EQ(counter.lines(), (std::vector<uint64_t>{0, 64, 0, 200, 256}));
  EXPECT_EQ(counter.repeats(), 4u);

  // Clear forgets the last line: the next touch of it is recorded.
  counter.Clear();
  counter.Touch(300);
  EXPECT_EQ(counter.lines(), (std::vector<uint64_t>{300}));
  EXPECT_EQ(counter.repeats(), 0u);
  EXPECT_EQ(counter.touches(), 10u);
}

}  // namespace
}  // namespace hybridtier
