#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/spec_reader.h"
#include "fault/fault_spec.h"
#include "mem/topology.h"
#include "multitenant/fleet.h"
#include "multitenant/tenant.h"

namespace hybridtier {
namespace {

// ---------------------------------------------------------- SpecReader --

TEST(SpecReader, ReadsPlainDecimalNumbersGreedily) {
  const std::string spec = "-2.5e-1x";
  SpecReader reader{spec};
  EXPECT_EQ(reader.ReadNumber("n"), -0.25);
  EXPECT_EQ(reader.pos, 7u);  // Stops at the first non-number byte.

  // An 'e' without exponent digits is not part of the number.
  const std::string suffixed = "3e,4.";
  SpecReader next{suffixed};
  EXPECT_EQ(next.ReadNumber("n"), 3.0);
  EXPECT_TRUE(next.Consume("e,"));
  EXPECT_EQ(next.ReadNumber("n"), 4.0);
  EXPECT_TRUE(next.AtEnd());
}

TEST(SpecReader, ReadsIntegersExactlyAndTimesWithSuffixes) {
  const std::string spec = "18446744073709551615:1e6:64.0";
  SpecReader reader{spec};
  EXPECT_EQ(reader.ReadUint("n", 0, UINT64_MAX), 18446744073709551615ull);
  EXPECT_TRUE(reader.Consume(":"));
  EXPECT_EQ(reader.ReadUint("n", 0, UINT64_MAX), 1000000u);
  EXPECT_TRUE(reader.Consume(":"));
  EXPECT_EQ(reader.ReadUint("n", 0, UINT64_MAX), 64u);

  const std::string times = "7,7ns,7us,7ms,2.5s,1e9";
  SpecReader clock{times};
  for (const TimeNs want : {TimeNs{7}, TimeNs{7}, 7 * kMicrosecond,
                            7 * kMillisecond, 2500 * kMillisecond,
                            kSecond}) {
    EXPECT_EQ(clock.ReadTime("t"), want);
    clock.Consume(",");
  }
  EXPECT_TRUE(clock.AtEnd());
}

TEST(SpecReader, FormatsNumbersWithTwelveSignificantDigits) {
  EXPECT_EQ(FormatSpecNumber(8.5), "8.5");
  EXPECT_EQ(FormatSpecNumber(1.0 / 3), "0.333333333333");
  EXPECT_EQ(FormatSpecNumber(1e30), "1e+30");
}

// Every input here either tripped UBSan (a double cast out of its
// integer range) or was silently accepted before the grammars shared
// one reader. Each must now be a user error quoting the bad token.
TEST(SpecReaderDeathTest, RejectsNonFiniteAndOutOfRangeValuesEverywhere) {
  const auto exits_1 = ::testing::ExitedWithCode(1);
  EXPECT_EXIT(ParseTopologySpec("cxl:(1),lat=inf"), exits_1,
              "bad token 'inf' at byte 12 .*not a number");
  EXPECT_EXIT(ParseTopologySpec("cxl:(1),lat=1e30"), exits_1,
              "bad token '1e30' at byte 12 .*below 2\\^63 ns");
  EXPECT_EXIT(ParseTopologySpec("cxl:(1),gran=1e30"), exits_1,
              "bad token '1e30' at byte 13 .*gran must be a positive");
  EXPECT_EXIT(ParseTopologySpec("cxl:(1),bw=inf"), exits_1,
              "bad token 'inf' at byte 11 .*not a number");
  EXPECT_EXIT(ParseTopologySpec("cxl:(1),lat=0x7c"), exits_1,
              "bad token 'x7c' at byte 13 ");
  EXPECT_EXIT(ParseTopologySpec("foo"), exits_1,
              "bad token 'foo' at byte 0 .*must start with 'cxl:'");

  EXPECT_EXIT(ParseFaultSpec("faults:ep99999999999@1s=down"), exits_1,
              "bad token '99999999999' at byte 9 .*endpoint index");
  EXPECT_EXIT(ParseFaultSpec("faults:chaos(seed=99999999999999999999,"
                             "endpoints=3,horizon=15ms,events=4)"),
              exits_1,
              "bad token '99999999999999999999' at byte 18 .*chaos seed");
  EXPECT_EXIT(ParseFaultSpec("faults:chaos(seed=7,endpoints=99999999999,"
                             "horizon=15ms,events=4)"),
              exits_1,
              "bad token '99999999999' at byte 30 .*chaos endpoints");

  EXPECT_EXIT(ParseFleetSpec("fleet:10,fp=-5"), exits_1,
              "bad token '-5' at byte 12 .*fleet footprint");
  EXPECT_EXIT(ParseFleetSpec("fleet:10,fp=1e30"), exits_1,
              "bad token '1e30' at byte 12 .*fleet footprint");
  EXPECT_EXIT(ParseFleetSpec("fleet:10,seed=-1"), exits_1,
              "bad token '-1' at byte 14 .*fleet seed");
  EXPECT_EXIT(ParseFleetSpec("fleet:10,period=1e30,horizon=1e30"), exits_1,
              "bad token '1e30' at byte 16 .*fleet period");

  EXPECT_EXIT(ParseTenantList("cdn:nan"), exits_1,
              "bad token 'nan' at byte 4 .*tenant weight");
  EXPECT_EXIT(ParseTenantList("cdn:inf"), exits_1,
              "bad token 'inf' at byte 4 .*tenant weight");
}

TEST(SpecReaderDeathTest, RejectsNumberSpellingsOutsidePlainDecimal) {
  const auto exits_1 = ::testing::ExitedWithCode(1);
  for (const char* bad : {"+2", " 2", "nan", "inf", "-inf", ".", "-"}) {
    SCOPED_TRACE(bad);
    EXPECT_EXIT(ParseTenantList(std::string("cdn:") + bad), exits_1,
                "at byte 4 .*not a number");
  }
  EXPECT_EXIT(ParseTopologySpec("cxl:(1),lat=1e400"), exits_1,
              "bad token '1e400' at byte 12 .*finite");
}

}  // namespace
}  // namespace hybridtier
