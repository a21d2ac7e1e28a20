/**
 * @file
 * Unit tests for src/sampling: ring buffer and the PEBS-analogue
 * access sampler, with one source and with per-source budgets.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sampling/ring_buffer.h"
#include "sampling/sampler.h"

namespace hybridtier {
namespace {

// --------------------------------------------------------- RingBuffer --

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> ring(4);
  EXPECT_TRUE(ring.Push(1));
  EXPECT_TRUE(ring.Push(2));
  EXPECT_TRUE(ring.Push(3));
  int out = 0;
  EXPECT_TRUE(ring.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_EQ(ring.size(), 1u);
}

TEST(RingBuffer, DropsWhenFull) {
  RingBuffer<int> ring(2);
  EXPECT_TRUE(ring.Push(1));
  EXPECT_TRUE(ring.Push(2));
  EXPECT_FALSE(ring.Push(3));
  EXPECT_EQ(ring.dropped(), 1u);
  int out;
  ring.Pop(&out);
  EXPECT_TRUE(ring.Push(4));
  EXPECT_EQ(ring.size(), 2u);
}

TEST(RingBuffer, PopEmptyFails) {
  RingBuffer<int> ring(2);
  int out;
  EXPECT_FALSE(ring.Pop(&out));
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, WrapsAround) {
  RingBuffer<int> ring(3);
  int out;
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(ring.Push(round));
    EXPECT_TRUE(ring.Pop(&out));
    EXPECT_EQ(out, round);
  }
}

TEST(RingBuffer, DrainBatch) {
  RingBuffer<int> ring(8);
  for (int i = 0; i < 6; ++i) ring.Push(i);
  std::vector<int> out;
  EXPECT_EQ(ring.Drain(&out, 4), 4u);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(out.front(), 0);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.Drain(&out, 100), 2u);
  EXPECT_EQ(out.size(), 6u);
}

// ------------------------------------------ AccessSampler, one source --

/** A lone source at `period` with a `buffer`-deep buffer. */
SamplerConfig LoneSource(uint64_t period, size_t buffer, uint64_t seed) {
  SamplerConfig config;
  config.base_period = period;
  config.buffer_capacity = buffer;
  config.seed = seed;
  return config;
}

TEST(Sampler, SamplingRateNearPeriod) {
  AccessSampler sampler(LoneSource(61, 1u << 20, 5), 1);
  std::vector<SampleRecord> drained;
  constexpr uint64_t kAccesses = 500000;
  for (uint64_t i = 0; i < kAccesses; ++i) {
    sampler.OnAccess(0, i % 1000, Tier::kFast, i);
    if (sampler.pending() > 1000) sampler.Drain(&drained, 1u << 20);
  }
  sampler.Drain(&drained, 1u << 20);
  const double rate =
      static_cast<double>(sampler.samples_taken()) / kAccesses;
  EXPECT_NEAR(rate, 1.0 / 61, 0.002);
  EXPECT_EQ(sampler.samples_dropped(), 0u);
  EXPECT_EQ(drained.size(), sampler.samples_taken());
}

TEST(Sampler, PeriodOneSamplesEverything) {
  AccessSampler sampler(LoneSource(1, 1024, 5), 1);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(sampler.OnAccess(0, i, Tier::kSlow, i));
  }
  EXPECT_EQ(sampler.samples_taken(), 100u);
}

TEST(Sampler, RecordsCarryPageTierTime) {
  AccessSampler sampler(LoneSource(1, 16, 5), 1);
  sampler.OnAccess(0, 42, Tier::kSlow, 777);
  std::vector<SampleRecord> out;
  sampler.Drain(&out, 10);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].page, 42u);
  EXPECT_EQ(out[0].tier, Tier::kSlow);
  EXPECT_EQ(out[0].time_ns, 777u);
}

TEST(Sampler, DropsWhenNotDrained) {
  AccessSampler sampler(LoneSource(1, 8, 5), 1);
  for (uint64_t i = 0; i < 100; ++i) sampler.OnAccess(0, i, Tier::kFast, i);
  EXPECT_EQ(sampler.pending(), 8u);
  EXPECT_EQ(sampler.samples_dropped(), 92u);
}

TEST(Sampler, JitterBreaksStridedAliasing) {
  // A strided loop with stride == period must not sample only one page.
  AccessSampler sampler(LoneSource(64, 1u << 16, 5), 1);
  std::vector<SampleRecord> out;
  for (uint64_t i = 0; i < 64000; ++i) {
    sampler.OnAccess(0, i % 64, Tier::kFast, i);
  }
  sampler.Drain(&out, 1u << 16);
  std::set<PageId> pages;
  for (const auto& record : out) pages.insert(record.page);
  EXPECT_GT(pages.size(), 16u);
}

TEST(Sampler, DeterministicForSeed) {
  AccessSampler a(LoneSource(61, 1024, 9), 1);
  AccessSampler b(LoneSource(61, 1024, 9), 1);
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_EQ(a.OnAccess(0, i, Tier::kFast, i),
              b.OnAccess(0, i, Tier::kFast, i));
    if (a.pending() > 512) {
      std::vector<SampleRecord> da, db;
      a.Drain(&da, 1024);
      b.Drain(&db, 1024);
    }
  }
}

// ---------------------------------- AccessSampler, per-source budgets --

SamplerConfig SmallBudgetConfig() {
  SamplerConfig config;
  config.base_period = 64;
  config.buffer_capacity = 1u << 16;
  config.adapt_window_accesses = 8192;
  return config;
}

/**
 * Interleaves accesses at `ratio`:1 between tenant 0 and tenant 1 and
 * drives them through `sampler` for `rounds` rounds.
 */
void DriveTwoTenants(AccessSampler* sampler, uint64_t ratio,
                     uint64_t rounds) {
  std::vector<SampleRecord> sink;
  for (uint64_t i = 0; i < rounds; ++i) {
    for (uint64_t k = 0; k < ratio; ++k) {
      sampler->OnAccess(0, i % 1024, Tier::kFast, i);
    }
    sampler->OnAccess(1, 2048 + i % 64, Tier::kSlow, i);
    if (sampler->pending() > 8192) sampler->Drain(&sink, 1u << 16);
  }
}

TEST(SamplerBudgets, EqualizesSamplesAcrossUnequalRates) {
  // Tenant 0 issues 15x tenant 1's accesses. With one global period the
  // sample stream would split 15:1; the budget adaptation must bring
  // the split close to 1:1 after the warm-up window.
  AccessSampler sampler(SmallBudgetConfig(), 2);
  DriveTwoTenants(&sampler, 15, 200000);

  ASSERT_GT(sampler.adaptations(), 0u);
  EXPECT_GT(sampler.period(0), sampler.period(1));
  const double s0 = static_cast<double>(sampler.source_samples(0));
  const double s1 = static_cast<double>(sampler.source_samples(1));
  ASSERT_GT(s1, 0.0);
  // Within 2x of each other (vs 15x without budgets), including the
  // pre-adaptation warm-up rounds.
  EXPECT_LT(s0 / s1, 2.0);
  EXPECT_GT(s0 / s1, 0.5);
}

TEST(SamplerBudgets, SmallTenantPeriodFloorsAtOne) {
  // A tenant with fewer accesses than its sample share samples every
  // access (period 1), never less.
  AccessSampler sampler(SmallBudgetConfig(), 2);
  DriveTwoTenants(&sampler, 200, 20000);
  EXPECT_EQ(sampler.period(1), 1u);
  EXPECT_GE(sampler.period(0), 1u);
}

TEST(SamplerBudgets, PeriodCeilingCapsHighRateTenants) {
  SamplerConfig config = SmallBudgetConfig();
  config.max_period_scale = 2;
  AccessSampler sampler(config, 2);
  DriveTwoTenants(&sampler, 500, 20000);
  EXPECT_LE(sampler.period(0), config.base_period * 2);
}

TEST(SamplerBudgets, DeterministicForSeed) {
  AccessSampler a(SmallBudgetConfig(), 3), b(SmallBudgetConfig(), 3);
  for (uint64_t i = 0; i < 30000; ++i) {
    const uint32_t tenant = i % 3;
    EXPECT_EQ(a.OnAccess(tenant, i % 512, Tier::kFast, i),
              b.OnAccess(tenant, i % 512, Tier::kFast, i));
    if (a.pending() > 512) {
      std::vector<SampleRecord> da, db;
      a.Drain(&da, 1024);
      b.Drain(&db, 1024);
      ASSERT_EQ(da.size(), db.size());
    }
  }
  EXPECT_EQ(a.samples_taken(), b.samples_taken());
  for (uint32_t t = 0; t < 3; ++t) {
    EXPECT_EQ(a.period(t), b.period(t));
    EXPECT_EQ(a.source_samples(t), b.source_samples(t));
  }
}

TEST(SamplerBudgets, AccountsAccessesAndDrops) {
  SamplerConfig config = SmallBudgetConfig();
  config.buffer_capacity = 8;
  AccessSampler sampler(config, 1);
  for (uint64_t i = 0; i < 10000; ++i) {
    sampler.OnAccess(0, i, Tier::kSlow, i);
  }
  EXPECT_EQ(sampler.accesses_seen(), 10000u);
  EXPECT_GT(sampler.samples_taken(), 0u);
  EXPECT_GT(sampler.samples_dropped(), 0u);  // Tiny buffer, no drains.
  EXPECT_EQ(sampler.pending(), 8u);
}


// ------------------------------------------------ Sample-stream golden --

// The drained sample stream of a lone source at the simulator's period
// and buffer, and of three sources with unequal access rates over 15
// adaptation windows, pinned as FNV-1a hashes over (page, tier, time).
// Every policy's sample feed flows through this stream, so a sampler
// change that moves one jitter draw or one re-arm fails here by name.

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kGoldenAccesses = 1000000;

/** Folds the eight bytes of `value` into FNV-1a state `hash`. */
uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xff;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/**
 * Feeds `kGoldenAccesses` accesses to `sampler` through `access(i)`,
 * drains every 1024 accesses and at the end, and returns the FNV-1a
 * hash of the drained records.
 */
template <typename Access>
uint64_t SampleStreamHash(AccessSampler* sampler, Access access) {
  uint64_t hash = kFnvBasis;
  std::vector<SampleRecord> drained;
  for (uint64_t i = 0; i < kGoldenAccesses; ++i) {
    access(i);
    if ((i + 1) % 1024 != 0 && i + 1 != kGoldenAccesses) continue;
    drained.clear();
    sampler->Drain(&drained, kSampleBuffer);
    for (const SampleRecord& record : drained) {
      hash = Fnv1a(hash, record.page);
      hash = Fnv1a(hash, static_cast<uint64_t>(record.tier));
      hash = Fnv1a(hash, record.time_ns);
    }
  }
  return hash;
}

/** A scattered page of `source`'s region and a 2:1 fast:slow tier. */
PageId GoldenPage(uint32_t source, uint64_t i) {
  return (static_cast<PageId>(source) << 32) | ((i * 2654435761u) % 65537);
}
Tier GoldenTier(uint64_t i) { return i % 3 == 0 ? Tier::kSlow : Tier::kFast; }

TEST(SamplerGolden, LoneSourceStream) {
  SamplerConfig config;  // kSamplePeriod, kSampleBuffer.
  config.seed = 42;
  AccessSampler sampler(config, 1);
  const uint64_t hash = SampleStreamHash(&sampler, [&](uint64_t i) {
    sampler.OnAccess(0, GoldenPage(0, i), GoldenTier(i), 7 * i);
  });
  EXPECT_EQ(sampler.samples_taken(), 16405u);
  EXPECT_EQ(hash, 0x9b707a4528c8e030ull);
}

TEST(SamplerGolden, ThreeUnequalSourcesStream) {
  // Sources 0, 1 and 2 issue 12, 3 and 1 of every 16 accesses.
  SamplerConfig config;  // kSamplePeriod, kSampleBuffer.
  config.seed = 42;
  AccessSampler sampler(config, 3);
  const uint64_t hash = SampleStreamHash(&sampler, [&](uint64_t i) {
    const uint32_t source = i % 16 < 12 ? 0 : (i % 16 < 15 ? 1 : 2);
    sampler.OnAccess(source, GoldenPage(source, i), GoldenTier(i), 7 * i);
  });
  EXPECT_EQ(sampler.adaptations(), 15u);
  EXPECT_EQ(sampler.samples_taken(), 16286u);
  EXPECT_EQ(hash, 0x5141a2fbb7a98c37ull);
}

}  // namespace
}  // namespace hybridtier
