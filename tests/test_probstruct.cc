/**
 * @file
 * Unit and property tests for src/probstruct: hashes, packed counters,
 * standard and blocked counting bloom filters, sizing formulas, exact
 * table.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "probstruct/blocked_cbf.h"
#include "probstruct/cbf.h"
#include "probstruct/exact_table.h"
#include "probstruct/ghost_mrc.h"
#include "probstruct/hash.h"
#include "probstruct/packed_counters.h"
#include "probstruct/sizing.h"

namespace hybridtier {
namespace {

// --------------------------------------------------------------- Hash --

TEST(Hash, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 1000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Hash, HashPairDependsOnSeed) {
  const HashPair a = HashKey(7, 1);
  const HashPair b = HashKey(7, 2);
  EXPECT_NE(a.h1, b.h1);
}

TEST(Hash, H2IsOdd) {
  for (uint64_t key = 0; key < 256; ++key) {
    EXPECT_EQ(HashKey(key).h2 & 1, 1u);
  }
}

TEST(Hash, DerivedHashesDiffer) {
  const HashPair hp = HashKey(123);
  std::set<uint64_t> derived;
  for (uint32_t i = 0; i < 8; ++i) derived.insert(DerivedHash(hp, i));
  EXPECT_EQ(derived.size(), 8u);
}

TEST(Hash, ReduceRangeInBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(ReduceRange(rng.NextU64(), 97), 97u);
  }
}

TEST(Hash, ReduceRangeRoughlyUniform) {
  std::map<uint64_t, int> counts;
  for (uint64_t i = 0; i < 64000; ++i) counts[ReduceRange(Mix64(i), 8)]++;
  for (const auto& [bucket, count] : counts) {
    EXPECT_NEAR(count, 8000, 400) << "bucket " << bucket;
  }
}

// ----------------------------------------------------- PackedCounters --

class PackedCountersWidths : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PackedCountersWidths, GetSetRoundTrip) {
  const uint32_t bits = GetParam();
  PackedCounterArray counters(100, bits);
  const uint32_t max = counters.max_value();
  for (size_t i = 0; i < 100; ++i) {
    counters.Set(i, static_cast<uint32_t>(i) % (max + 1));
  }
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(counters.Get(i), static_cast<uint32_t>(i) % (max + 1));
  }
}

TEST_P(PackedCountersWidths, SaturatingIncrementCapsAtMax) {
  const uint32_t bits = GetParam();
  PackedCounterArray counters(4, bits);
  const uint32_t max = counters.max_value();
  for (uint32_t i = 0; i < max + 10; ++i) counters.SaturatingIncrement(0);
  EXPECT_EQ(counters.Get(0), max);
  EXPECT_EQ(counters.Get(1), 0u);  // Neighbors untouched.
}

TEST_P(PackedCountersWidths, HalveAllMatchesScalarHalving) {
  const uint32_t bits = GetParam();
  PackedCounterArray counters(257, bits);
  Rng rng(bits);
  std::vector<uint32_t> reference(257);
  for (size_t i = 0; i < 257; ++i) {
    reference[i] = static_cast<uint32_t>(
        rng.NextBounded(counters.max_value() + 1));
    counters.Set(i, reference[i]);
  }
  counters.HalveAll();
  for (size_t i = 0; i < 257; ++i) {
    EXPECT_EQ(counters.Get(i), reference[i] / 2) << "index " << i;
  }
}

TEST_P(PackedCountersWidths, SetClampsOverflow) {
  const uint32_t bits = GetParam();
  PackedCounterArray counters(4, bits);
  counters.Set(2, UINT32_MAX);
  EXPECT_EQ(counters.Get(2), counters.max_value());
}

TEST_P(PackedCountersWidths, SetGetCoversEveryLaneOfSeveralWords) {
  // Five whole words and half of a sixth. Each Set writes one lane, and
  // after every write each counter must still read what was last put
  // there: random values, then all-ones lanes between all-zero ones,
  // then the reverse, so a wrong word, shift or mask shows up as a
  // changed neighbour.
  const uint32_t bits = GetParam();
  const size_t per_word = 64 / bits;
  const size_t count = 5 * per_word + per_word / 2;
  PackedCounterArray counters(count, bits);
  const uint32_t max = counters.max_value();
  Rng rng(bits);
  std::vector<uint32_t> reference(count, 0);
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < count; ++i) {
      const uint32_t value =
          pass == 0 ? static_cast<uint32_t>(rng.NextBounded(max + 1))
                    : (pass == 1 ? max : 0);
      counters.Set(i, value);
      reference[i] = value;
      for (size_t j = 0; j < count; ++j) {
        ASSERT_EQ(counters.Get(j), reference[j])
            << "lane " << j << " after Set(" << i << ", " << value << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, PackedCountersWidths,
                         ::testing::Values(4u, 8u, 16u));

TEST(PackedCounters, MaxValues) {
  EXPECT_EQ(PackedCounterArray(8, 4).max_value(), 15u);
  EXPECT_EQ(PackedCounterArray(8, 8).max_value(), 255u);
  EXPECT_EQ(PackedCounterArray(8, 16).max_value(), 65535u);
}

TEST(PackedCounters, MemoryIsPacked) {
  // 128 4-bit counters = 64 bytes.
  EXPECT_EQ(PackedCounterArray(128, 4).memory_bytes(), 64u);
  // A 64 B cache line holds 128 4-bit counters (paper §4.2).
  PackedCounterArray counters(256, 4);
  EXPECT_EQ(counters.CacheLineOf(0), 0u);
  EXPECT_EQ(counters.CacheLineOf(127), 0u);
  EXPECT_EQ(counters.CacheLineOf(128), 1u);
}

TEST(PackedCounters, CountNonZero) {
  PackedCounterArray counters(64, 4);
  EXPECT_EQ(counters.CountNonZero(), 0u);
  counters.Set(3, 1);
  counters.Set(60, 15);
  EXPECT_EQ(counters.CountNonZero(), 2u);
  counters.Reset();
  EXPECT_EQ(counters.CountNonZero(), 0u);
}

// ------------------------------------------------------------- Sizing --

TEST(Sizing, MatchesPaperFormula) {
  // r = -k / ln(1 - exp(ln(p)/k)) with k=4, p=0.001: ~20.4 counters per
  // element (k=4 is below the FPR-optimal hash count, so it costs more
  // than the 14.4-bit optimum).
  const double r = BloomCountersPerElement(4, 0.001);
  EXPECT_NEAR(r, 20.43, 0.5);
  EXPECT_EQ(BloomCounterCount(1000, 4, 0.001),
            static_cast<size_t>(std::ceil(1000 * r)));
}

TEST(Sizing, MoreHashesFewerCountersAtOptimum) {
  // At p=0.001 the optimal k is ~10; k=4 needs more counters than k=8.
  EXPECT_GT(BloomCountersPerElement(2, 0.001),
            BloomCountersPerElement(8, 0.001));
}

TEST(Sizing, FalsePositiveRateSanity) {
  const size_t m = BloomCounterCount(10000, 4, 0.001);
  const double fpr = BloomFalsePositiveRate(m, 10000, 4);
  EXPECT_LT(fpr, 0.002);
  EXPECT_GT(fpr, 0.00001);
}

TEST(Sizing, MomentumIs128xSmaller) {
  const CbfSizing freq = FrequencyCbfSizing(1 << 20);
  const CbfSizing momentum = MomentumCbfSizing(1 << 20);
  const double ratio = static_cast<double>(freq.num_counters) /
                       static_cast<double>(momentum.num_counters);
  EXPECT_NEAR(ratio, 128.0, 4.0);
}

TEST(Sizing, MinimumCounterFloor) {
  EXPECT_GE(BloomCounterCount(1, 4, 0.5), 64u);
}

// ------------------------------------------------ CountingBloomFilter --

/** Param: 0 = standard CBF, 1 = blocked CBF. */
class CbfBothKinds : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<FrequencyEstimator> Make(size_t counters,
                                           uint32_t bits = 4,
                                           uint64_t seed = 1) {
    const CbfSizing sizing{.num_counters = counters,
                           .num_hashes = 4,
                           .counter_bits = bits};
    if (GetParam() == 0) {
      return std::make_unique<CountingBloomFilter>(sizing, seed);
    }
    return std::make_unique<BlockedCountingBloomFilter>(sizing, seed);
  }
};

TEST_P(CbfBothKinds, EmptyReturnsZero) {
  auto cbf = Make(4096);
  for (uint64_t key = 0; key < 100; ++key) EXPECT_EQ(cbf->Get(key), 0u);
}

TEST_P(CbfBothKinds, NeverUndercounts) {
  // A CBF (min-read with conservative update) can overcount due to
  // collisions but can never undercount — the defining invariant.
  auto cbf = Make(8192);
  std::map<uint64_t, uint32_t> truth;
  Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    const uint64_t key = rng.NextBounded(500);
    cbf->Increment(key);
    ++truth[key];
  }
  for (const auto& [key, count] : truth) {
    const uint32_t capped = std::min(count, cbf->max_count());
    EXPECT_GE(cbf->Get(key), capped) << "key " << key;
  }
}

TEST_P(CbfBothKinds, MostlyExactWhenUncrowded) {
  auto cbf = Make(64 * 1024);
  Rng rng(11);
  std::map<uint64_t, uint32_t> truth;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t key = rng.NextBounded(1000);
    cbf->Increment(key);
    ++truth[key];
  }
  int exact = 0, total = 0;
  for (const auto& [key, count] : truth) {
    ++total;
    exact += cbf->Get(key) == std::min(count, cbf->max_count());
  }
  EXPECT_GT(static_cast<double>(exact) / total, 0.95);
}

TEST_P(CbfBothKinds, SaturatesAtCounterMax) {
  auto cbf = Make(4096);
  for (int i = 0; i < 100; ++i) cbf->Increment(42);
  EXPECT_EQ(cbf->Get(42), cbf->max_count());
  EXPECT_EQ(cbf->max_count(), 15u);
}

TEST_P(CbfBothKinds, CoolingHalvesEstimates) {
  auto cbf = Make(4096);
  for (int i = 0; i < 12; ++i) cbf->Increment(7);
  const uint32_t before = cbf->Get(7);
  cbf->CoolByHalving();
  EXPECT_EQ(cbf->Get(7), before / 2);
}

TEST_P(CbfBothKinds, ResetClears) {
  auto cbf = Make(4096);
  for (int i = 0; i < 5; ++i) cbf->Increment(9);
  cbf->Reset();
  EXPECT_EQ(cbf->Get(9), 0u);
}

TEST_P(CbfBothKinds, SixteenBitCountersForHugePages) {
  auto cbf = Make(4096, /*bits=*/16);
  EXPECT_EQ(cbf->max_count(), 65535u);
  for (int i = 0; i < 100; ++i) cbf->Increment(3);
  EXPECT_GE(cbf->Get(3), 100u);
}

TEST_P(CbfBothKinds, DeterministicAcrossInstances) {
  auto a = Make(4096, 4, 99);
  auto b = Make(4096, 4, 99);
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t key = rng.NextBounded(300);
    EXPECT_EQ(a->Increment(key), b->Increment(key));
  }
}

TEST_P(CbfBothKinds, GetEachMatchesGetAtEveryBatchLength) {
  // Lengths around the blocked filter's prefetch lookahead (8 keys),
  // at both counter widths, over keys with repeats.
  for (const uint32_t bits : {4u, 16u}) {
    auto cbf = Make(4096, bits);
    Rng rng(17);
    for (int i = 0; i < 6000; ++i) cbf->Increment(rng.NextBounded(400));
    for (const size_t length : {0, 1, 7, 8, 9, 16, 300}) {
      std::vector<uint64_t> keys(length);
      for (uint64_t& key : keys) key = rng.NextBounded(500);
      std::vector<uint32_t> counts(length, UINT32_MAX);
      cbf->GetEach(keys, counts);
      for (size_t i = 0; i < length; ++i) {
        EXPECT_EQ(counts[i], cbf->Get(keys[i]))
            << bits << "-bit, length " << length << ", key " << keys[i];
      }
    }
  }
}

TEST(BlockedCbf, GetEachMatchesScalarGetAfterIncrementsAndHalving) {
  // The batched kernel reduces in-block slots by a shift; the scalar Get
  // by ReduceRange. Both must read the same counters, at both widths,
  // on a crowded filter (saturated counters included) before and after
  // a cooling pass.
  for (const uint32_t bits : {4u, 16u}) {
    BlockedCountingBloomFilter cbf(CbfSizing{2048, 4, bits}, 5);
    Rng rng(23);
    for (int i = 0; i < 40000; ++i) cbf.Increment(rng.NextBounded(3000));
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<uint64_t> keys(5000);
      for (uint64_t& key : keys) key = rng.NextBounded(6000);
      std::vector<uint32_t> counts(keys.size(), UINT32_MAX);
      cbf.GetEach(keys, counts);
      for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(counts[i], cbf.Get(keys[i]))
            << bits << "-bit, pass " << pass << ", key " << keys[i];
      }
      cbf.CoolByHalving();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(StandardAndBlocked, CbfBothKinds,
                         ::testing::Values(0, 1));

// -------------------------------------------- Cache-line touch counts --

TEST(Cbf, StandardTouchesUpToKLines) {
  const CbfSizing sizing{.num_counters = 1u << 16,
                         .num_hashes = 4,
                         .counter_bits = 4};
  CountingBloomFilter cbf(sizing);
  size_t multi_line_keys = 0;
  for (uint64_t key = 0; key < 200; ++key) {
    std::vector<uint64_t> lines;
    cbf.AppendTouchedLines(key, &lines);
    EXPECT_GE(lines.size(), 1u);
    EXPECT_LE(lines.size(), 4u);
    multi_line_keys += lines.size() > 1;
  }
  // With 64Ki counters over 512 lines, hashes almost surely span lines.
  EXPECT_GT(multi_line_keys, 150u);
}

TEST(BlockedCbf, AlwaysTouchesExactlyOneLine) {
  const CbfSizing sizing{.num_counters = 1u << 16,
                         .num_hashes = 4,
                         .counter_bits = 4};
  BlockedCountingBloomFilter cbf(sizing);
  for (uint64_t key = 0; key < 500; ++key) {
    std::vector<uint64_t> lines;
    cbf.AppendTouchedLines(key, &lines);
    EXPECT_EQ(lines.size(), 1u) << "key " << key;
    EXPECT_LT(lines[0], cbf.num_blocks());
  }
}

TEST(BlockedCbf, GeometryMatchesPaper) {
  const CbfSizing sizing{.num_counters = 12800,
                         .num_hashes = 4,
                         .counter_bits = 4};
  BlockedCountingBloomFilter cbf(sizing);
  // 128 4-bit slots per 64 B line (paper §4.2).
  EXPECT_EQ(cbf.slots_per_block(), 128u);
  EXPECT_GE(cbf.num_blocks() * cbf.slots_per_block(), 12800u);
  // 16-bit counters: 32 slots per line.
  const CbfSizing huge{.num_counters = 1024,
                       .num_hashes = 4,
                       .counter_bits = 16};
  EXPECT_EQ(BlockedCountingBloomFilter(huge).slots_per_block(), 32u);
}

TEST(BlockedCbf, HigherErrorThanStandardButBounded) {
  // Blocked CBF has a slightly higher false-positive rate (paper §4.2);
  // verify the tracking error is still small at the paper's sizing.
  const size_t n = 4000;
  const CbfSizing sizing = FrequencyCbfSizing(n);
  BlockedCountingBloomFilter blocked(sizing, 21);
  CountingBloomFilter standard(sizing, 21);
  Rng rng(31);
  std::map<uint64_t, uint32_t> truth;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = rng.NextBounded(n);
    blocked.Increment(key);
    standard.Increment(key);
    ++truth[key];
  }
  size_t blocked_errors = 0, standard_errors = 0;
  for (const auto& [key, count] : truth) {
    const uint32_t capped = std::min(count, 15u);
    blocked_errors += blocked.Get(key) != capped;
    standard_errors += standard.Get(key) != capped;
  }
  EXPECT_LE(standard_errors, blocked_errors + 5);
  EXPECT_LT(static_cast<double>(blocked_errors) / truth.size(), 0.02);
}

// --------------------------------------------------------- ExactTable --

TEST(ExactTable, ExactCounts) {
  ExactCounterTable table(1000);
  for (int i = 0; i < 37; ++i) table.Increment(5);
  EXPECT_EQ(table.Get(5), 37u);
  EXPECT_EQ(table.RawCount(5), 37u);
  EXPECT_EQ(table.Get(6), 0u);
}

TEST(ExactTable, SaturationCap) {
  ExactCounterTable table(100, /*max_count=*/15);
  for (int i = 0; i < 40; ++i) table.Increment(1);
  EXPECT_EQ(table.Get(1), 15u);    // Capped like a 4-bit CBF.
  EXPECT_EQ(table.RawCount(1), 40u);  // Raw count still exact.
}

TEST(ExactTable, CoolingHalvesRawCounts) {
  ExactCounterTable table(10);
  for (int i = 0; i < 9; ++i) table.Increment(2);
  table.CoolByHalving();
  EXPECT_EQ(table.RawCount(2), 4u);
}

TEST(ExactTable, SixteenBytesPerPage) {
  // The Memtis overhead model: 16 B per 4 KiB page = 0.39% of memory.
  ExactCounterTable table(1 << 20);
  EXPECT_EQ(table.memory_bytes(), (1u << 20) * 16u);
  const double overhead = static_cast<double>(table.memory_bytes()) /
                          (static_cast<double>(1 << 20) * kPageSize);
  EXPECT_NEAR(overhead, 0.0039, 0.0002);
}

TEST(ExactTable, TouchedLinesAreDense) {
  ExactCounterTable table(100);
  std::vector<uint64_t> lines;
  table.AppendTouchedLines(0, &lines);
  table.AppendTouchedLines(3, &lines);
  table.AppendTouchedLines(4, &lines);
  // Entries 0-3 share line 0; entry 4 starts line 1.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], 0u);
  EXPECT_EQ(lines[1], 0u);
  EXPECT_EQ(lines[2], 1u);
}

TEST(ExactTable, MetaForAllowsPolicyState) {
  ExactCounterTable table(10);
  table.MetaFor(7).last_access_ns = 12345;
  EXPECT_EQ(table.MetaFor(7).last_access_ns, 12345u);
}

// -------------------------------------- CBF vs exact (Table 5 spirit) --

/** Feeds both estimators the same skewed access stream. */
void ZipfLikeInsertions(FrequencyEstimator* cbf, FrequencyEstimator* exact,
                        Rng& rng) {
  for (int i = 0; i < 60000; ++i) {
    // Crude skew: small keys dominate, like a Zipf popularity curve.
    uint64_t key = rng.NextBounded(1u << 17);
    key = std::min(key, rng.NextBounded(1u << 17));
    key = std::min(key, rng.NextBounded(1u << 17));
    cbf->Increment(key);
    exact->Increment(key);
  }
}

TEST(CbfAccuracy, AgreementRateHighAtPaperSizing) {
  // Measure how often CBF-based hot/cold classification agrees with the
  // exact table (paper Table 5 reports >99% at the shipped sizing).
  const size_t fast_pages = 8192;
  const CbfSizing sizing = FrequencyCbfSizing(fast_pages);
  BlockedCountingBloomFilter cbf(sizing, 77);
  ExactCounterTable exact(fast_pages * 16, 15);

  Rng rng(41);
  ZipfLikeInsertions(&cbf, &exact, rng);

  const uint32_t threshold = 4;
  size_t agree = 0, total = 0;
  for (uint64_t key = 0; key < fast_pages * 16; key += 7) {
    ++total;
    agree += (cbf.Get(key) >= threshold) == (exact.Get(key) >= threshold);
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.99);
}

// ----------------------------------------------------------- GhostMrc --

TEST(GhostMrc, ShadowSampleBookkeeping) {
  GhostMrc ghost(64);
  EXPECT_EQ(ghost.demand_units(), 0u);
  EXPECT_EQ(ghost.total_hits(), 0u);
  EXPECT_EQ(ghost.RankValue(0), 0u);

  // Unit 3 sampled five times, unit 7 twice, unit 9 once.
  for (int i = 0; i < 5; ++i) ghost.Increment(3);
  ghost.Increment(7);
  ghost.Increment(7);
  ghost.Increment(9);

  EXPECT_EQ(ghost.demand_units(), 3u);
  EXPECT_EQ(ghost.total_hits(), 8u);
  EXPECT_EQ(ghost.RankValue(0), 5u);  // Hottest: unit 3.
  EXPECT_EQ(ghost.RankValue(1), 2u);
  EXPECT_EQ(ghost.RankValue(2), 1u);
  EXPECT_EQ(ghost.RankValue(3), 0u);  // Beyond the sampled set.
  EXPECT_EQ(ghost.CumulativeHits(0), 0u);
  EXPECT_EQ(ghost.CumulativeHits(1), 5u);
  EXPECT_EQ(ghost.CumulativeHits(2), 7u);
  EXPECT_EQ(ghost.CumulativeHits(64), 8u);

  std::vector<GhostDemandStep> steps;
  ghost.AppendDemandSteps(&steps);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].value, 5u);
  EXPECT_EQ(steps[0].units, 1u);
  EXPECT_EQ(steps[1].value, 2u);
  EXPECT_EQ(steps[2].value, 1u);
}

TEST(GhostMrc, CoolingHalvesAndFoldsHistogram) {
  GhostMrc ghost(16);
  for (int i = 0; i < 5; ++i) ghost.Increment(0);
  for (int i = 0; i < 2; ++i) ghost.Increment(1);
  ghost.Increment(2);

  ghost.CoolByHalving();
  // 5 -> 2, 2 -> 1, 1 -> 0.
  EXPECT_EQ(ghost.RankValue(0), 2u);
  EXPECT_EQ(ghost.RankValue(1), 1u);
  EXPECT_EQ(ghost.RankValue(2), 0u);
  EXPECT_EQ(ghost.demand_units(), 2u);
  EXPECT_EQ(ghost.total_hits(), 3u);

  ghost.Reset();
  EXPECT_EQ(ghost.demand_units(), 0u);
  EXPECT_EQ(ghost.total_hits(), 0u);
  EXPECT_EQ(ghost.RankValue(0), 0u);
}

TEST(GhostMrc, SaturatesAtCounterMax) {
  GhostMrc ghost(4);
  for (int i = 0; i < 100; ++i) ghost.Increment(1);
  EXPECT_EQ(ghost.RankValue(0), ghost.max_value());
  EXPECT_EQ(ghost.total_hits(), ghost.max_value());
  EXPECT_EQ(ghost.demand_units(), 1u);
}

// ---------------------------------------------------- GhostMrc/SHARDS --

TEST(GhostMrc, ShardsSampleShiftMatchesBudget) {
  // Small tenants stay exact; past the budget the shift is the smallest
  // power of two that brings the expected sampled count back under it.
  EXPECT_EQ(GhostMrc::SampleShiftFor(512, 1024), 0u);
  EXPECT_EQ(GhostMrc::SampleShiftFor(1024, 1024), 0u);
  EXPECT_EQ(GhostMrc::SampleShiftFor(1025, 1024), 1u);
  EXPECT_EQ(GhostMrc::SampleShiftFor(4096, 1024), 2u);
  EXPECT_EQ(GhostMrc::SampleShiftFor(uint64_t{1} << 20, 1024), 10u);
  EXPECT_EQ(GhostMrc::SampleShiftFor(uint64_t{1} << 20, 0), 0u);
}

TEST(GhostMrc, ShardsMemoryFiftyTimesSmallerAtMillionUnits) {
  // The fleet acceptance bar: a million-unit tenant's sampled curve
  // costs at most 1/50 of the exact dense counters.
  const uint64_t units = uint64_t{1} << 20;
  GhostMrc exact(units);
  GhostMrc sampled(units, GhostMrc::SampleShiftFor(units, 1024));
  EXPECT_EQ(sampled.sample_shift(), 10u);
  EXPECT_LE(sampled.memory_bytes() * 50, exact.memory_bytes());
}

TEST(GhostMrc, ShardsAdmissionIsPureAndMatchesIncrement) {
  GhostMrc sampled(1 << 12, 3);
  uint64_t admitted = 0;
  for (uint64_t u = 0; u < (1 << 12); ++u) {
    const bool admits = sampled.Admits(u);
    EXPECT_EQ(admits, sampled.Admits(u));  // Pure function of the id.
    EXPECT_EQ(admits, sampled.Increment(u) >= 0);
    admitted += admits ? 1 : 0;
  }
  // The fixed-threshold hash admits ~2^-3 of the ids.
  EXPECT_GT(admitted, (1u << 12) / 8 / 2);
  EXPECT_LT(admitted, (1u << 12) / 8 * 2);
  // Every accepted access was counted, scaled by the sampling rate.
  EXPECT_EQ(sampled.total_hits(), admitted << 3);
  EXPECT_EQ(sampled.demand_units(), admitted << 3);
}

TEST(GhostMrc, ShardsCurveIsOrderIndependent) {
  // The sampled curve is a function of the access multiset, not its
  // order: forward and reverse feeds of the same stream agree exactly.
  const uint64_t units = 1 << 12;
  GhostMrc forward(units, 3);
  GhostMrc reverse(units, 3);
  const auto hits_for = [](uint64_t u) -> uint64_t {
    return u % 7 == 0 ? 4 : 1;
  };
  for (uint64_t u = 0; u < units; ++u) {
    for (uint64_t h = 0; h < hits_for(u); ++h) forward.Increment(u);
  }
  for (uint64_t u = units; u-- > 0;) {
    for (uint64_t h = 0; h < hits_for(u); ++h) reverse.Increment(u);
  }
  EXPECT_EQ(forward.demand_units(), reverse.demand_units());
  EXPECT_EQ(forward.total_hits(), reverse.total_hits());
  for (uint64_t rank : {0u, 1u, 100u, 1000u}) {
    EXPECT_EQ(forward.RankValue(rank), reverse.RankValue(rank));
  }
  for (uint64_t q : {64u, 512u, 4096u}) {
    EXPECT_EQ(forward.CumulativeHits(q), reverse.CumulativeHits(q));
  }
}

TEST(GhostMrc, ShardsCurveTracksExactCurveWithinBoundedError) {
  // A two-level demand curve — a reused hot set over a streaming tail —
  // estimated at 1/16 sampling must stay within 15% of the exact curve
  // at the reads the water-filler makes.
  const uint64_t units = 1 << 16;
  const uint64_t hot = 1 << 12;
  GhostMrc exact(units);
  GhostMrc sampled(units, 4);
  for (uint64_t u = 0; u < units; ++u) {
    const int hits = u < hot ? 4 : 1;
    for (int h = 0; h < hits; ++h) {
      exact.Increment(u);
      sampled.Increment(u);
    }
  }
  const auto close = [](uint64_t estimate, uint64_t truth) {
    const double rel =
        std::abs(static_cast<double>(estimate) - static_cast<double>(truth)) /
        static_cast<double>(truth);
    EXPECT_LE(rel, 0.15) << "estimate " << estimate << " vs " << truth;
  };
  close(sampled.demand_units(), exact.demand_units());
  close(sampled.total_hits(), exact.total_hits());
  close(sampled.CumulativeHits(hot), exact.CumulativeHits(hot));
  close(sampled.CumulativeHits(units), exact.CumulativeHits(units));
  // Both curves agree on the shape: the hot plateau then the tail.
  EXPECT_EQ(sampled.RankValue(0), exact.RankValue(0));
  EXPECT_EQ(sampled.RankValue(hot + hot / 2), exact.RankValue(hot + hot / 2));

  // Cooling preserves the estimate relationship (4 -> 2, 1 -> 0).
  exact.CoolByHalving();
  sampled.CoolByHalving();
  close(sampled.demand_units(), exact.demand_units());
  close(sampled.total_hits(), exact.total_hits());
}

}  // namespace
}  // namespace hybridtier
