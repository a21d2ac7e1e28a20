/**
 * @file
 * Unit tests for src/common: RNG, units, histogram, percentiles, EMA,
 * table output.
 */

#include <gtest/gtest.h>

#include <cmath>
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

TEST(WindowedPercentile, MedianOfKnownData) {
  WindowedPercentile window(128);
  for (int i = 1; i <= 101; ++i) window.Add(i);
  EXPECT_NEAR(window.Median(), 51.0, 1.0);
}

TEST(WindowedPercentile, SlidesWindow) {
  WindowedPercentile window(10);
  for (int i = 0; i < 100; ++i) window.Add(1.0);
  for (int i = 0; i < 10; ++i) window.Add(9.0);
  EXPECT_DOUBLE_EQ(window.Median(), 9.0);
}

TEST(WindowedPercentile, EmptyReturnsZero) {
  WindowedPercentile window(8);
  EXPECT_DOUBLE_EQ(window.Median(), 0.0);
}

TEST(ReservoirSampler, ExactWhenUnderCapacity) {
  ReservoirSampler reservoir(1000);
  for (int i = 1; i <= 100; ++i) reservoir.Add(i);
  EXPECT_NEAR(reservoir.Quantile(0.5), 50.0, 2.0);
  EXPECT_DOUBLE_EQ(reservoir.Mean(), 50.5);
}

TEST(ReservoirSampler, ApproximatesWholeRun) {
  ReservoirSampler reservoir(4096, 5);
  // First half 100s, second half 200s: overall median must see both.
  for (int i = 0; i < 50000; ++i) reservoir.Add(100.0);
  for (int i = 0; i < 50000; ++i) reservoir.Add(200.0);
  const double p25 = reservoir.Quantile(0.25);
  const double p75 = reservoir.Quantile(0.75);
  EXPECT_DOUBLE_EQ(p25, 100.0);
  EXPECT_DOUBLE_EQ(p75, 200.0);
}

TEST(SettleTime, FindsSettlePoint) {
  TimeSeries series;
  series.Add(0, 100.0);
  series.Add(10, 100.0);
  series.Add(20, 50.0);   // disturbance
  series.Add(30, 10.5);
  series.Add(40, 10.0);
  series.Add(50, 10.1);
  const uint64_t t = SettleTimeNs(series, 10.0, 0.10);
  EXPECT_EQ(t, 30u);
}

TEST(SettleTime, NeverSettlesReturnsMax) {
  TimeSeries series;
  series.Add(0, 100.0);
  series.Add(10, 200.0);
  EXPECT_EQ(SettleTimeNs(series, 10.0, 0.01), UINT64_MAX);
}

TEST(SettleTime, RespectsNotBefore) {
  TimeSeries series;
  series.Add(0, 10.0);
  series.Add(10, 10.0);
  series.Add(20, 10.0);
  EXPECT_EQ(SettleTimeNs(series, 10.0, 0.01, 15), 20u);
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

TEST(LoggingDeathTest, AssertAbortsOnFalse) {
  EXPECT_DEATH(HT_ASSERT(false, "boom"), "assertion failed");
}

}  // namespace
}  // namespace hybridtier
