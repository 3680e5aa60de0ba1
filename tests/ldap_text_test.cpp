#include "ldap/text.h"

#include <gtest/gtest.h>

#include "net/stats.h"

namespace fbdr {
namespace {

using namespace ldap::text;

TEST(Text, Lower) {
  EXPECT_EQ(lower("ABC def 123"), "abc def 123");
  EXPECT_EQ(lower(""), "");
  // Only ASCII letters fold; other bytes pass through.
  EXPECT_EQ(lower("A-Z{}"), "a-z{}");
}

TEST(Text, IEquals) {
  EXPECT_TRUE(iequals("John Doe", "JOHN DOE"));
  EXPECT_FALSE(iequals("John", "Johnny"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("a", ""));
}

TEST(Text, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" a b "), "a b");
}

TEST(Text, StartsEndsWithCi) {
  EXPECT_TRUE(starts_with_ci("Serial Number", "SERIAL"));
  EXPECT_FALSE(starts_with_ci("Serial", "SerialNumber"));
  EXPECT_TRUE(ends_with_ci("john@US.XYZ.com", "@us.xyz.com"));
  EXPECT_FALSE(ends_with_ci("x", "xyz"));
}

TEST(Text, FindCi) {
  EXPECT_EQ(find_ci("Hello World", "WORLD", 0), 6u);
  EXPECT_EQ(find_ci("Hello World", "WORLD", 7), std::string_view::npos);
  EXPECT_EQ(find_ci("aaa", "a", 1), 1u);
  EXPECT_EQ(find_ci("abc", "", 1), 1u);
  EXPECT_EQ(find_ci("abc", "", 4), std::string_view::npos);
  EXPECT_EQ(find_ci("ab", "abc", 0), std::string_view::npos);
}

TEST(Text, ParseU64AcceptsOnlyAWholeDigitField) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("0042"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "1x", "+1", "-1", " 1", "1 ", "0x10",
                          "-18446744073709551615", "18446744073709551616"}) {
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(TrafficStats, CountersAndAccumulate) {
  net::TrafficStats stats;
  stats.count_round_trip();
  stats.note_entry();
  stats.note_dn();
  stats.note_referral();
  EXPECT_EQ(stats.round_trips, 1u);
  EXPECT_EQ(stats.pdus, 3u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.dns_only, 1u);
  EXPECT_EQ(stats.referrals, 1u);
  EXPECT_EQ(stats.bytes, 0u) << "PDU tallies carry no bytes";

  net::TrafficStats other;
  other.note_entry();
  other.count_frame(12);
  stats += other;
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 12u);
  EXPECT_EQ(stats.frames, 1u);

  EXPECT_EQ(stats.to_string(),
            "round_trips=1 pdus=4 entries=2 dns_only=1 referrals=1 bytes=12 "
            "frames=1");
  stats.reset();
  EXPECT_EQ(stats.pdus, 0u);
}

TEST(LogicalClock, MonotoneAdvance) {
  net::LogicalClock clock;
  EXPECT_EQ(clock.now(), 0u);
  EXPECT_EQ(clock.tick(), 1u);
  clock.advance(10);
  EXPECT_EQ(clock.now(), 11u);
}

}  // namespace
}  // namespace fbdr
