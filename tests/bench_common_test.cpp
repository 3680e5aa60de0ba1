// Unit tests for the bench driver helpers shared through bench/common.h —
// chiefly parse_csv, whose per-driver copies once diverged: one variant
// looped forever when strtoull consumed no digits. The shared helper must
// stop on the first non-numeric token instead of spinning. Gate flags are
// read strictly: a bare strtod read "half" as 0, which switched the gate off.

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <vector>

#include "common.h"

namespace fbdr::bench {
namespace {

TEST(BenchCommon, ParseCsvReadsNumericLists) {
  EXPECT_EQ(parse_csv("100,250,500,1000"),
            (std::vector<std::size_t>{100, 250, 500, 1000}));
  EXPECT_EQ(parse_csv("8"), (std::vector<std::size_t>{8}));
  EXPECT_EQ(parse_csv("0,0"), (std::vector<std::size_t>{0, 0}));
}

TEST(BenchCommon, ParseCsvOfEmptyStringIsEmpty) {
  EXPECT_TRUE(parse_csv("").empty());
}

TEST(BenchCommon, ParseCsvStopsAtNonNumericToken) {
  // The regression this guards: "abc" consumes no digits, so a naive loop
  // re-reads the same cursor forever. The helper must terminate and keep
  // the values parsed so far.
  EXPECT_TRUE(parse_csv("abc").empty());
  EXPECT_EQ(parse_csv("8,x,16"), (std::vector<std::size_t>{8}));
  EXPECT_EQ(parse_csv("8,16,"), (std::vector<std::size_t>{8, 16}));
}

TEST(BenchCommon, ParseGateAcceptsWholeFiniteNonNegativeNumbers) {
  EXPECT_EQ(parse_gate<double>("4.0"), 4.0);
  EXPECT_EQ(parse_gate<double>("0"), 0.0);
  EXPECT_EQ(parse_gate<double>("1e1"), 10.0);
  EXPECT_EQ(parse_gate<std::size_t>("25"), std::size_t{25});
  EXPECT_EQ(parse_gate<std::size_t>("0"), std::size_t{0});
}

TEST(BenchCommon, ParseGateRejectsAnythingElse) {
  for (const char* bad : {"", "half", "4x", "4.0 ", " 4", "+4", "-1", "-0.5",
                          "inf", "nan", "1e999"}) {
    EXPECT_EQ(parse_gate<double>(bad), std::nullopt) << "'" << bad << "'";
  }
  for (const char* bad : {"", "x", "2.5", "-1", "1e3", "99999999999999999999"}) {
    EXPECT_EQ(parse_gate<std::size_t>(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(BenchCommon, GateFlagReturnsTheValue) {
  EXPECT_EQ(gate_flag<double>("--max-wire-overhead=", "4.0"), 4.0);
  EXPECT_EQ(gate_flag<std::size_t>("--min-sessions=", "4"), std::size_t{4});
}

TEST(BenchCommon, GateFlagExitsTwoOnABadValue) {
  EXPECT_EXIT(gate_flag<double>("--max-wire-overhead=", "half"),
              ::testing::ExitedWithCode(2), "--max-wire-overhead=half");
  EXPECT_EXIT(gate_flag<std::size_t>("--min-sessions=", "-4"),
              ::testing::ExitedWithCode(2), "--min-sessions=-4");
}

}  // namespace
}  // namespace fbdr::bench
