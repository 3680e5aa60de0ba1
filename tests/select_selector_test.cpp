#include "select/selector.h"

#include <gtest/gtest.h>

#include <map>

#include "evolution.h"

namespace fbdr::select {
namespace {

using ldap::Query;
using ldap::Scope;

Query serial(const std::string& value) {
  return Query::parse("", Scope::Subtree, "(serialnumber=" + value + ")");
}

Generalizer serial_generalizer(std::size_t prefix_len = 4) {
  Generalizer g;
  g.add_rule("(serialnumber=_)", "(serialnumber=_*)", prefix_transform(prefix_len));
  return g;
}

/// Size estimator: prefix "0412" -> 100 entries per 4-digit block, by length.
std::size_t block_size(const Query& query) {
  // Slot is the prefix; a 6-digit serial space means a len-k prefix covers
  // 10^(6-k) serials.
  const std::string text = query.filter->to_string();
  const std::size_t start = text.find('=') + 1;
  const std::size_t star = text.find('*');
  const std::size_t prefix_len = star - start;
  std::size_t size = 1;
  for (std::size_t i = prefix_len; i < 6; ++i) size *= 10;
  return size;
}

TEST(FilterSelector, RevolutionFiresEveryInterval) {
  FilterSelector::Config config;
  config.revolution_interval = 10;
  FilterSelector selector(config, serial_generalizer(), block_size);
  int revolutions = 0;
  for (int i = 0; i < 35; ++i) {
    if (selector.observe(serial("041230")).has_value()) ++revolutions;
  }
  EXPECT_EQ(revolutions, 3);
  EXPECT_EQ(selector.revolutions(), 3u);
  EXPECT_EQ(selector.observed(), 35u);
}

TEST(FilterSelector, SelectsBestBenefitToSizeRatio) {
  FilterSelector::Config config;
  config.revolution_interval = 100;
  config.budget_entries = 100;  // exactly one 4-digit block fits
  FilterSelector selector(config, serial_generalizer(), block_size);

  // Block 0412 gets 60 hits, block 9900 gets 40: only 0412 fits the budget.
  std::optional<FilterSelector::Revolution> revolution;
  for (int i = 0; i < 60; ++i) selector.observe(serial("04120" + std::to_string(i % 10)));
  for (int i = 0; i < 39; ++i) selector.observe(serial("99000" + std::to_string(i % 10)));
  revolution = selector.observe(serial("990009"));
  ASSERT_TRUE(revolution.has_value());
  ASSERT_EQ(revolution->install.size(), 1u);
  EXPECT_EQ(revolution->install[0].filter->to_string(), "(serialnumber=0412*)");
  EXPECT_EQ(revolution->fetched.size(), 1u);
  EXPECT_EQ(revolution->fetched_entries, 100u);
}

TEST(FilterSelector, BenefitPerSizeBeatsRawBenefit) {
  FilterSelector::Config config;
  config.revolution_interval = 1000;
  config.budget_entries = 1000;
  // Custom estimator: the 9900 block is 10x larger than the others.
  const auto sizes = [](const Query& query) -> std::size_t {
    return query.filter->to_string().find("9900") != std::string::npos ? 1000
                                                                       : 100;
  };
  FilterSelector selector(config, serial_generalizer(), sizes);

  // Block 0412: 30 hits over 100 entries (ratio 0.3). Block 9900: 50 hits
  // over 1000 entries (ratio 0.05). The budget fits the better-ratio block
  // first; the big block then no longer fits despite more raw hits.
  for (int i = 0; i < 30; ++i) selector.observe(serial("041200"));
  for (int i = 0; i < 50; ++i) selector.observe(serial("990000"));
  const auto revolution = selector.revolve();
  ASSERT_EQ(revolution.install.size(), 1u);
  EXPECT_EQ(revolution.install[0].filter->to_string(), "(serialnumber=0412*)");
}

TEST(FilterSelector, StoredSetEvolvesAcrossRevolutions) {
  FilterSelector::Config config;
  config.revolution_interval = 20;
  config.budget_filters = 1;
  FilterSelector selector(config, serial_generalizer(), block_size);

  // Phase 1: block 0412 is hot.
  std::optional<FilterSelector::Revolution> revolution;
  for (int i = 0; i < 20; ++i) revolution = selector.observe(serial("041200"));
  ASSERT_TRUE(revolution.has_value());
  EXPECT_EQ(revolution->install[0].filter->to_string(), "(serialnumber=0412*)");
  EXPECT_TRUE(revolution->dropped.empty());

  // Phase 2: the access pattern shifts to block 8800.
  for (int i = 0; i < 20; ++i) revolution = selector.observe(serial("880000"));
  ASSERT_TRUE(revolution.has_value());
  ASSERT_EQ(revolution->install.size(), 1u);
  EXPECT_EQ(revolution->install[0].filter->to_string(), "(serialnumber=8800*)");
  ASSERT_EQ(revolution->dropped.size(), 1u);
  EXPECT_EQ(revolution->dropped[0].filter->to_string(), "(serialnumber=0412*)");
  EXPECT_EQ(revolution->fetched.size(), 1u);  // only the new block is fetched
}

TEST(FilterSelector, UnchangedHotSetFetchesNothing) {
  FilterSelector::Config config;
  config.revolution_interval = 10;
  FilterSelector selector(config, serial_generalizer(), block_size);
  std::optional<FilterSelector::Revolution> revolution;
  for (int i = 0; i < 10; ++i) revolution = selector.observe(serial("041200"));
  ASSERT_TRUE(revolution.has_value());
  EXPECT_EQ(revolution->fetched.size(), 1u);
  for (int i = 0; i < 10; ++i) revolution = selector.observe(serial("041200"));
  ASSERT_TRUE(revolution.has_value());
  EXPECT_TRUE(revolution->fetched.empty());  // same set stays installed
  EXPECT_TRUE(revolution->dropped.empty());
  EXPECT_EQ(revolution->fetched_entries, 0u);
}

TEST(FilterSelector, BudgetFiltersCapsStoredSet) {
  FilterSelector::Config config;
  config.revolution_interval = 40;
  config.budget_filters = 2;
  FilterSelector selector(config, serial_generalizer(), block_size);
  std::optional<FilterSelector::Revolution> revolution;
  for (int i = 0; i < 40; ++i) {
    revolution = selector.observe(serial("0" + std::to_string(i % 4) + "0000"));
  }
  ASSERT_TRUE(revolution.has_value());
  EXPECT_EQ(revolution->install.size(), 2u);
  EXPECT_EQ(selector.stored().size(), 2u);
}

TEST(FilterSelector, QueriesWithoutGeneralizationAreIgnored) {
  FilterSelector::Config config;
  config.revolution_interval = 5;
  FilterSelector selector(config, serial_generalizer(), block_size);
  std::optional<FilterSelector::Revolution> revolution;
  for (int i = 0; i < 5; ++i) {
    revolution = selector.observe(Query::parse("", Scope::Subtree, "(cn=x)"));
  }
  ASSERT_TRUE(revolution.has_value());  // revolution still fires on schedule
  EXPECT_TRUE(revolution->install.empty());
  EXPECT_EQ(selector.candidate_count(), 0u);
}

TEST(EvolutionSelector, RevolutionTriggersOnCandidateBenefit) {
  EvolutionSelector::Config config;
  config.min_interval = 10;
  config.revolution_threshold = 1.0;
  EvolutionSelector selector(config, serial_generalizer(),
                             FilterSelector::SizeEstimator(block_size));
  std::optional<FilterSelector::Revolution> revolution;
  for (int i = 0; i < 30 && !revolution; ++i) {
    revolution = selector.observe(serial("041200"));
  }
  ASSERT_TRUE(revolution.has_value());
  ASSERT_EQ(revolution->install.size(), 1u);
  EXPECT_EQ(selector.revolutions(), 1u);

  // Once installed, the same traffic does not immediately re-trigger.
  revolution.reset();
  for (int i = 0; i < 15 && !revolution; ++i) {
    revolution = selector.observe(serial("041200"));
  }
  EXPECT_FALSE(revolution.has_value());
}

TEST(EvolutionSelector, ShiftingPatternEventuallySwapsStoredSet) {
  EvolutionSelector::Config config;
  config.min_interval = 10;
  config.budget_filters = 1;
  EvolutionSelector selector(config, serial_generalizer(),
                             FilterSelector::SizeEstimator(block_size));
  for (int i = 0; i < 30; ++i) selector.observe(serial("041200"));
  ASSERT_EQ(selector.stored().size(), 1u);
  EXPECT_EQ(selector.stored()[0].filter->to_string(), "(serialnumber=0412*)");

  for (int i = 0; i < 200; ++i) selector.observe(serial("880000"));
  ASSERT_EQ(selector.stored().size(), 1u);
  EXPECT_EQ(selector.stored()[0].filter->to_string(), "(serialnumber=8800*)");
}

}  // namespace
}  // namespace fbdr::select
