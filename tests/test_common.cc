/**
 * @file
 * Unit tests for src/common: RNG, units, histogram, percentiles, EMA,
 * table output.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "common/ema.h"
#include "common/flags.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/percentile.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/units.h"

namespace hybridtier {
namespace {

// ---------------------------------------------------------------- Rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.NextU64() == b.NextU64();
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UnitThresholdMatchesNextDoubleComparison) {
  constexpr double kProbabilities[] = {
      0.57, 0.57 + 0.19, 0.57 + 0.19 + 0.19, 0.5, 1e-9, 1.0 - 0x1.0p-53};
  for (const double p : kProbabilities) {
    const uint64_t t = Rng::UnitThreshold(p);
    auto expect_agree = [&](uint64_t x) {
      ASSERT_EQ(x < t, Rng::UnitOf(x) < p) << "p " << p << " x " << x;
    };
    for (const uint64_t x : {uint64_t{0}, t - 2049, t - 1, t, t + 2047,
                             std::numeric_limits<uint64_t>::max()}) {
      expect_agree(x);
    }
    uint64_t state = 42;
    for (int i = 0; i < 1000000; ++i) expect_agree(SplitMix64Next(state));
  }
}

TEST(Rng, UnitThresholdRefusesClosedEnds) {
  EXPECT_DEATH(Rng::UnitThreshold(1.0), "0 < p < 1");
  EXPECT_DEATH(Rng::UnitThreshold(0.0), "0 < p < 1");
}

TEST(Rng, NextBoundedRespectsBound) {
  Rng rng(9);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Rng, NextBoundedCoversDomain) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(17);
  int heads = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) heads += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(heads) / kTrials, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(stats.variance()), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> data = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = data;
  rng.Shuffle(data.data(), data.size());
  std::sort(data.begin(), data.end());
  EXPECT_EQ(data, sorted);
}

TEST(Rng, SplitMixAdvancesState) {
  uint64_t s = 42;
  const uint64_t a = SplitMix64Next(s);
  const uint64_t b = SplitMix64Next(s);
  EXPECT_NE(a, b);
}

// -------------------------------------------------------------- Units --

TEST(Units, PageConstantsConsistent) {
  EXPECT_EQ(kPagesPerHugePage, 512u);
  EXPECT_EQ(kHugePageSize, kPageSize * kPagesPerHugePage);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(4 * kKiB), "4KiB");
  EXPECT_EQ(FormatBytes(3 * kMiB), "3MiB");
  EXPECT_EQ(FormatBytes(2 * kGiB), "2GiB");
}

TEST(Units, FormatTime) {
  EXPECT_EQ(FormatTime(124), "124ns");
  EXPECT_EQ(FormatTime(1500), "1.50us");
  EXPECT_EQ(FormatTime(2 * kSecond), "2s");
  EXPECT_EQ(FormatTime(3 * kMinute), "3min");
}

// ---------------------------------------------------------- Histogram --

TEST(Histogram, AddAndCount) {
  Histogram hist(15);
  hist.Add(3);
  hist.Add(3);
  hist.Add(7, 5);
  EXPECT_EQ(hist.Count(3), 2u);
  EXPECT_EQ(hist.Count(7), 5u);
  EXPECT_EQ(hist.total(), 7u);
}

TEST(Histogram, ClampsToMax) {
  Histogram hist(15);
  hist.Add(100);
  EXPECT_EQ(hist.Count(15), 1u);
}

TEST(Histogram, RemoveSaturatesAtZero) {
  Histogram hist(15);
  hist.Add(4);
  hist.Remove(4, 10);
  EXPECT_EQ(hist.Count(4), 0u);
  EXPECT_EQ(hist.total(), 0u);
}

TEST(Histogram, ThresholdForBudgetPicksHottest) {
  Histogram hist(15);
  // 10 pages at count 15, 100 at count 8, 1000 at count 1.
  hist.Add(15, 10);
  hist.Add(8, 100);
  hist.Add(1, 1000);
  // Budget 10: only the 10 count-15 pages fit; the smallest threshold
  // admitting at most 10 pages is 9 (buckets 9..14 are empty).
  EXPECT_EQ(hist.ThresholdForBudget(10), 9u);
  // Budget 110: count-15 and count-8 pages fit; smallest threshold is 2.
  EXPECT_EQ(hist.ThresholdForBudget(110), 2u);
  // Budget covers everything: threshold 0.
  EXPECT_EQ(hist.ThresholdForBudget(2000), 0u);
  // Budget smaller than the hottest bucket: threshold above max.
  EXPECT_EQ(hist.ThresholdForBudget(5), 16u);
}

TEST(Histogram, CountAtOrAbove) {
  Histogram hist(15);
  hist.Add(15, 10);
  hist.Add(8, 100);
  EXPECT_EQ(hist.CountAtOrAbove(9), 10u);
  EXPECT_EQ(hist.CountAtOrAbove(8), 110u);
  EXPECT_EQ(hist.CountAtOrAbove(16), 0u);
}

TEST(Histogram, CoolByHalvingMovesObservations) {
  Histogram hist(15);
  hist.Add(8, 4);
  hist.Add(1, 2);
  hist.CoolByHalving();
  EXPECT_EQ(hist.Count(4), 4u);
  EXPECT_EQ(hist.Count(0), 2u);
  EXPECT_EQ(hist.total(), 6u);
}

TEST(Histogram, ResetClears) {
  Histogram hist(7);
  hist.Add(3, 9);
  hist.Reset();
  EXPECT_EQ(hist.total(), 0u);
  EXPECT_EQ(hist.Count(3), 0u);
}

// ------------------------------------------------------- RunningStats --

TEST(RunningStats, Moments) {
  RunningStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.Add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_NEAR(stats.variance(), 1.25, 1e-9);
  EXPECT_DOUBLE_EQ(stats.sum(), 10.0);
}

// -------------------------------------------------------- Percentiles --

TEST(LatencyHistogram, SingleValueReadsExactly) {
  LatencyHistogram histogram;
  for (int i = 0; i < 5; ++i) histogram.Add(424);
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_EQ(histogram.Median(), 424.0);
  EXPECT_EQ(histogram.Mean(), 424.0);
}

TEST(LatencyHistogram, InterpolatesInsideTwoClusterSplit) {
  // 30 ops at 100 ns, 70 at 200 ns: a nearest-rank read pins p50 at 200
  // however the mass between the clusters moves; the grouped-data
  // quantile places rank 50 20/70 of the way into the 200 ns interval.
  LatencyHistogram histogram;
  for (int i = 0; i < 70; ++i) histogram.Add(200);
  for (int i = 0; i < 30; ++i) histogram.Add(100);
  EXPECT_DOUBLE_EQ(histogram.Median(), 199.5 + 20.0 / 70.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.25), 99.5 + 25.0 / 30.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.3), 100.5);
}

TEST(LatencyHistogram, QuantileEndpointsAreIntervalEdges) {
  LatencyHistogram histogram;
  for (const uint64_t v : {7, 3, 9, 3}) histogram.Add(v);
  EXPECT_EQ(histogram.Quantile(0.0), 2.5);
  EXPECT_EQ(histogram.Quantile(1.0), 9.5);
}

TEST(LatencyHistogram, EmptyReadsZero) {
  const LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.Median(), 0.0);
  EXPECT_EQ(histogram.Quantile(0.99), 0.0);
  EXPECT_EQ(histogram.Mean(), 0.0);
}

TEST(LatencyHistogram, MeanIsExact) {
  LatencyHistogram histogram;
  uint64_t sum = 0;
  for (uint64_t v = 1; v <= 1000; ++v) {
    histogram.Add(v * 977);
    sum += v * 977;
  }
  EXPECT_EQ(histogram.Mean(), static_cast<double>(sum) / 1000.0);
  EXPECT_EQ(histogram.Mean(), 977.0 * 500.5);
  // 1000 distinct values grow the table several times; every count
  // survives the rehashes.
  EXPECT_EQ(histogram.count(), 1000u);
  EXPECT_EQ(histogram.Median(), 500.0 * 977 + 0.5);
}

TEST(LatencyHistogram, ClearDropsEverything) {
  LatencyHistogram histogram;
  for (int i = 0; i < 10; ++i) histogram.Add(1000);
  histogram.Clear();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.Median(), 0.0);
  EXPECT_EQ(histogram.Mean(), 0.0);
  histogram.Add(7);
  EXPECT_EQ(histogram.Median(), 7.0);
  EXPECT_EQ(histogram.Mean(), 7.0);
}

TEST(SettleTime, FindsSettlePoint) {
  TimeSeries series;
  series.Add(0, 100.0);
  series.Add(10, 10.0);   // inside the band, but not sustained
  series.Add(20, 50.0);   // disturbance
  series.Add(30, 10.5);
  series.Add(40, 10.0);
  series.Add(50, 10.1);
  EXPECT_EQ(FirstSustainedEntryNs(series, 10.0, 0.10, 3), 30u);
}

TEST(SettleTime, NeverSettlesReturnsMax) {
  TimeSeries series;
  series.Add(0, 100.0);
  series.Add(10, 200.0);
  EXPECT_EQ(FirstSustainedEntryNs(series, 10.0, 0.01, 1), UINT64_MAX);
}

TEST(SettleTime, RespectsNotBefore) {
  TimeSeries series;
  series.Add(0, 10.0);
  series.Add(10, 10.0);
  series.Add(20, 10.0);
  EXPECT_EQ(FirstSustainedEntryNs(series, 10.0, 0.01, 1, 15), 20u);
  EXPECT_EQ(FirstSustainedEntryNs(series, 10.0, 0.01, 2, 15), UINT64_MAX);
}

// ------------------------------------------------------------ fairness --

TEST(Fairness, JainIndexBounds) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({5.0, 5.0, 5.0}), 1.0);
  // One tenant holds everything: 1/n.
  EXPECT_NEAR(JainFairnessIndex({9.0, 0.0, 0.0}), 1.0 / 3, 1e-12);
}

TEST(Fairness, WeightedIndexScoresWeightTrackingSplitsAsFair) {
  // A 4:1 occupancy split under 4:1 weights is perfectly fair...
  EXPECT_DOUBLE_EQ(WeightedJainFairnessIndex({400.0, 100.0}, {4.0, 1.0}),
                   1.0);
  // ...while the unweighted index penalizes it.
  EXPECT_LT(JainFairnessIndex({400.0, 100.0}), 1.0);
  // And an even split under 4:1 weights is *not* weighted-fair.
  EXPECT_LT(WeightedJainFairnessIndex({250.0, 250.0}, {4.0, 1.0}), 1.0);
}

TEST(Fairness, WeightedIndexWithUnitWeightsMatchesPlain) {
  const std::vector<double> values = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(WeightedJainFairnessIndex(values, {1.0, 1.0, 1.0}),
                   JainFairnessIndex(values));
}

// ---------------------------------------------------------------- EMA --

TEST(EmaCounter, AccumulatesWithoutCooling) {
  EmaCounter counter(0);
  counter.Add(0, 5);
  counter.Add(kSecond, 5);
  EXPECT_EQ(counter.Value(2 * kSecond), 10u);
}

TEST(EmaCounter, HalvesEveryPeriod) {
  EmaCounter counter(kSecond);
  counter.Add(0, 64);
  EXPECT_EQ(counter.Value(kSecond), 32u);
  EXPECT_EQ(counter.Value(3 * kSecond), 8u);
}

TEST(EmaCounter, LagReproducesFig3a) {
  // A page accessed 50 times/min for 10 minutes, cooling every 2 min:
  // the EMA score lags and drops below 10 only ~9 minutes after the
  // accesses stop (paper Fig 3a).
  EmaCounter counter(2 * kMinute);
  for (int minute = 0; minute < 10; ++minute) {
    counter.Add(static_cast<TimeNs>(minute) * kMinute, 50);
  }
  TimeNs below_10 = 0;
  for (int minute = 10; minute < 40; ++minute) {
    const TimeNs t = static_cast<TimeNs>(minute) * kMinute;
    if (counter.Value(t) < 10) {
      below_10 = t;
      break;
    }
  }
  EXPECT_GE(below_10, 16 * kMinute);
  EXPECT_LE(below_10, 22 * kMinute);
}

// -------------------------------------------------------------- Table --

TEST(TablePrinter, AlignsAndCounts) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22"});
  EXPECT_EQ(table.row_count(), 2u);
  std::ostringstream oss;
  table.Print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
}

TEST(TablePrinter, CsvEscaping) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

// ------------------------------------------------------------ Logging --

TEST(Logging, LevelsFilter) {
  const LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kSilent);
  HT_WARN("this warning must not crash");
  HT_INFORM("nor this inform");
  SetLogLevel(old_level);
  SUCCEED();
}

TEST(Logging, AssertPassesOnTrue) {
  HT_ASSERT(1 + 1 == 2, "math works");
  SUCCEED();
}

TEST(Logging, FilteredMessagesDoNotEvaluateArguments) {
  // The macros must check the level *before* StrCat runs: a debug line
  // on a hot path may format expensive arguments, and filtering it out
  // has to cost one branch, not a string build plus side effects.
  const LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kWarn);
  int evaluations = 0;
  const auto expensive = [&evaluations] {
    ++evaluations;
    return "payload";
  };
  HT_DEBUG("dropped: ", expensive());
  HT_INFORM("also dropped: ", expensive());
  EXPECT_EQ(evaluations, 0);
  SetLogLevel(LogLevel::kSilent);
  HT_WARN("dropped too: ", expensive());
  EXPECT_EQ(evaluations, 0);
  SetLogLevel(old_level);
}

TEST(Logging, ParseLogLevelRoundTrips) {
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("info"), LogLevel::kInform);
  EXPECT_EQ(ParseLogLevel("inform"), LogLevel::kInform);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("warning"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("silent"), LogLevel::kSilent);
  for (const LogLevel level :
       {LogLevel::kDebug, LogLevel::kInform, LogLevel::kWarn,
        LogLevel::kError}) {
    EXPECT_EQ(ParseLogLevel(LogLevelName(level)), level);
  }
}

TEST(LoggingDeathTest, ParseLogLevelRejectsUnknownNames) {
  EXPECT_DEATH(ParseLogLevel("loud"), "log level");
}

// -------------------------------------------------------------- Flags --

TEST(Flags, ParseUintFlagAcceptsDigitStringsInRange) {
  EXPECT_EQ(ParseUintFlag("--seed", "0"), 0u);
  EXPECT_EQ(ParseUintFlag("--seed", "18446744073709551615"),
            18446744073709551615ull);
  EXPECT_EQ(ParseUintFlag("--jobs", "1", 1, 65536), 1u);
  EXPECT_EQ(ParseUintFlag("--jobs", "65536", 1, 65536), 65536u);
}

TEST(FlagsDeathTest, ParseUintFlagRejectsMalformedTokensWithExit1) {
  // Each rejection quotes the token and exits 1 — never an uncaught
  // exception, and never a negative count wrapped to 2^64 - n.
  for (const char* bad : {"abc", "-5", "", " 7", "7 ", "1x", "0x10",
                          "18446744073709551616"}) {
    SCOPED_TRACE(bad);
    EXPECT_EXIT(ParseUintFlag("--accesses", bad),
                ::testing::ExitedWithCode(1),
                std::string("--accesses .*'") + bad + "'");
  }
  EXPECT_EXIT(ParseUintFlag("--seed", "+3"), ::testing::ExitedWithCode(1),
              "'\\+3'");
  EXPECT_EXIT(ParseUintFlag("--jobs", "0", 1, 65536),
              ::testing::ExitedWithCode(1), "\\[1, 65536\\].*'0'");
  EXPECT_EXIT(ParseUintFlag("--jobs", "65537", 1, 65536),
              ::testing::ExitedWithCode(1), "'65537'");
}

TEST(Flags, ParseDoubleAndRatioFlagsReadSpecNumbers) {
  EXPECT_EQ(ParseDoubleFlag("--scale", "0.05", 0.0, 1000.0), 0.05);
  EXPECT_EQ(ParseDoubleFlag("--scale", "1e-1", 0.0, 1000.0), 0.1);
  EXPECT_EQ(ParseDoubleFlag("--min-ratio", "0", 0.0, 1000.0), 0.0);
  EXPECT_EQ(ParseRatioFlag("--ratio", "1:8"), 1.0 / 8);
  EXPECT_EQ(ParseRatioFlag("--ratio", "2:5"), 2.0 / 5);
  EXPECT_EQ(ParseRatioFlag("--ratio", "0.5:4"), 0.5 / 4);
}

TEST(FlagsDeathTest, ParseDoubleAndRatioFlagsRejectWithExit1) {
  // A typo must never parse as 0 and switch a gate off silently.
  for (const char* bad : {"abc", "", "0.9x", "nan", "inf", "+1", " 1"}) {
    SCOPED_TRACE(bad);
    EXPECT_EXIT(ParseDoubleFlag("--min-ratio", bad, 0.0, 1000.0),
                ::testing::ExitedWithCode(1), "bad token '.*--min-ratio");
  }
  EXPECT_EXIT(ParseDoubleFlag("--scale", "-1", 0.0, 1000.0),
              ::testing::ExitedWithCode(1),
              "bad token '-1' .*--scale wants a number in \\[0, 1000\\]");
  for (const char* bad : {"x:8", "1:abc", "1", "1:8:2", "0:8", "1:-8",
                          "1:0", ":8", "1:"}) {
    SCOPED_TRACE(bad);
    EXPECT_EXIT(ParseRatioFlag("--ratio", bad), ::testing::ExitedWithCode(1),
                "bad token .*--ratio");
  }
}

TEST(LoggingDeathTest, AssertAbortsOnFalse) {
  EXPECT_DEATH(HT_ASSERT(false, "boom"), "assertion failed");
}

}  // namespace
}  // namespace hybridtier
