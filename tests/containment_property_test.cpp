// Property tests for the containment engine: soundness of every decision
// procedure is checked against brute-force filter evaluation over a universe
// of generated single-valued entries, and the compiled Proposition 2 path is
// cross-validated against the general Proposition 1 engine.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "containment/compiled.h"
#include "containment/engine.h"
#include "containment/filter_containment.h"
#include "ldap/entry.h"
#include "ldap/query_template.h"

#include "filter_eval.h"

namespace fbdr::containment {
namespace {

using ldap::Entry;
using ldap::Filter;
using ldap::FilterPtr;
using ldap::FilterTemplate;

// A small closed value universe so that random filters and entries collide
// often enough to make the properties meaningful.
const std::vector<std::string> kValues = {"a", "ab", "abc", "b", "ba",
                                          "bb", "c",  "ca",  "cb"};
const std::vector<std::string> kAttrs = {"sn", "ou", "title"};

/// Entry values: the filter values plus in-between points (v + "0" sorts
/// between v and every proper extension of v in letters), so that brute
/// force over the finite universe approximates the infinite string domain.
std::vector<std::string> universe_values() {
  std::vector<std::string> values = kValues;
  for (const std::string& v : kValues) {
    values.push_back(v + "0");
    values.push_back(v + "zz");
  }
  return values;
}

/// Generates a random positive filter of bounded depth.
FilterPtr random_filter(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> kind_dist(0, depth > 0 ? 6 : 4);
  std::uniform_int_distribution<std::size_t> attr_dist(0, kAttrs.size() - 1);
  std::uniform_int_distribution<std::size_t> value_dist(0, kValues.size() - 1);
  const std::string& attr = kAttrs[attr_dist(rng)];
  const std::string& value = kValues[value_dist(rng)];
  switch (kind_dist(rng)) {
    case 0:
      return Filter::equality(attr, value);
    case 1:
      return Filter::greater_eq(attr, value);
    case 2:
      return Filter::less_eq(attr, value);
    case 3:
      return Filter::present(attr);
    case 4: {
      ldap::SubstringPattern pattern;
      pattern.initial = value;
      return Filter::substring(attr, std::move(pattern));
    }
    case 5: {
      std::vector<FilterPtr> children;
      children.push_back(random_filter(rng, depth - 1));
      children.push_back(random_filter(rng, depth - 1));
      return Filter::make_and(std::move(children));
    }
    default: {
      std::vector<FilterPtr> children;
      children.push_back(random_filter(rng, depth - 1));
      children.push_back(random_filter(rng, depth - 1));
      return Filter::make_or(std::move(children));
    }
  }
}

/// Universe of entries: every combination of (possibly absent) single values
/// for the three attributes, objectclass always present.
std::vector<Entry> entry_universe() {
  const std::vector<std::string> values = universe_values();
  std::vector<Entry> universe;
  for (std::size_t i = 0; i <= values.size(); ++i) {
    for (std::size_t j = 0; j <= values.size(); ++j) {
      // Third axis kept thinner (the filter values plus absence) to bound
      // the universe size; it must still cover every generatable assertion
      // value or vacuous-match artifacts distort the ground truth.
      for (std::size_t k = 0; k <= kValues.size(); ++k) {
        Entry e(ldap::Dn::parse("cn=u,o=test"));
        e.add_value("objectclass", "person");
        if (i < values.size()) e.add_value("sn", values[i]);
        if (j < values.size()) e.add_value("ou", values[j]);
        if (k < kValues.size()) e.add_value("title", kValues[k]);
        universe.push_back(std::move(e));
      }
    }
  }
  return universe;
}

/// Ground truth: inner ⊆ outer over the finite universe.
bool brute_force_contained(const Filter& inner, const Filter& outer,
                           const std::vector<Entry>& universe) {
  for (const Entry& e : universe) {
    if (ldap::matches(inner, e) && !ldap::matches(outer, e)) return false;
  }
  return true;
}

TEST(ContainmentProperty, GeneralEngineIsSoundOnRandomPositiveFilters) {
  std::mt19937 rng(20050607);
  const std::vector<Entry> universe = entry_universe();
  int claimed = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const FilterPtr inner = random_filter(rng, 2);
    const FilterPtr outer = random_filter(rng, 2);
    if (filter_contained(*inner, *outer)) {
      ++claimed;
      EXPECT_TRUE(brute_force_contained(*inner, *outer, universe))
          << "unsound: " << inner->to_string() << " claimed inside "
          << outer->to_string();
    }
  }
  // The check must not be vacuous: a healthy fraction of random pairs is
  // decided positively (identical subtrees, tautologies, empty inners...).
  EXPECT_GT(claimed, 20);
}

TEST(ContainmentProperty, GeneralEngineIsSoundWithNegations) {
  std::mt19937 rng(424242);
  const std::vector<Entry> universe = entry_universe();
  int claimed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    FilterPtr inner = random_filter(rng, 2);
    FilterPtr outer = random_filter(rng, 2);
    // Wrap random subterms in NOT.
    if (trial % 2 == 0) inner = Filter::make_not(std::move(inner));
    if (trial % 3 == 0) outer = Filter::make_not(std::move(outer));
    if (filter_contained(*inner, *outer)) {
      ++claimed;
      EXPECT_TRUE(brute_force_contained(*inner, *outer, universe))
          << "unsound: " << inner->to_string() << " claimed inside "
          << outer->to_string();
    }
  }
  EXPECT_GT(claimed, 10);
}

TEST(ContainmentProperty, GeneralEngineIsCompleteOnPointPairs) {
  // On the equality/range fragment (no substrings), the engine should also
  // be complete over this universe: whenever brute force says contained, the
  // engine agrees. Restrict generation accordingly.
  std::mt19937 rng(777);
  const std::vector<Entry> universe = entry_universe();
  auto random_simple = [&](int depth, auto&& self) -> FilterPtr {
    std::uniform_int_distribution<int> kind_dist(0, depth > 0 ? 5 : 3);
    std::uniform_int_distribution<std::size_t> attr_dist(0, kAttrs.size() - 1);
    std::uniform_int_distribution<std::size_t> value_dist(0, kValues.size() - 1);
    const std::string& attr = kAttrs[attr_dist(rng)];
    const std::string& value = kValues[value_dist(rng)];
    switch (kind_dist(rng)) {
      case 0:
        return Filter::equality(attr, value);
      case 1:
        return Filter::greater_eq(attr, value);
      case 2:
        return Filter::less_eq(attr, value);
      case 3:
        return Filter::present(attr);
      case 4: {
        std::vector<FilterPtr> children;
        children.push_back(self(depth - 1, self));
        children.push_back(self(depth - 1, self));
        return Filter::make_and(std::move(children));
      }
      default: {
        std::vector<FilterPtr> children;
        children.push_back(self(depth - 1, self));
        children.push_back(self(depth - 1, self));
        return Filter::make_or(std::move(children));
      }
    }
  };
  int disagreements = 0;
  int brute_positive = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const FilterPtr inner = random_simple(2, random_simple);
    const FilterPtr outer = random_simple(2, random_simple);
    const bool engine_says = filter_contained(*inner, *outer);
    const bool truth = brute_force_contained(*inner, *outer, universe);
    if (engine_says) {
      EXPECT_TRUE(truth) << "unsound: " << inner->to_string() << " in "
                         << outer->to_string();
    }
    if (truth) ++brute_positive;
    if (truth != engine_says) ++disagreements;
  }
  ASSERT_GT(brute_positive, 0);
  // Brute force over a finite universe can claim containment that fails on
  // the infinite domain (e.g. (sn>=c) in (sn>=ca) when no value between "c"
  // and "ca" exists in the universe), so allow a small gap — but the engine
  // must decide the overwhelming majority identically.
  EXPECT_LT(disagreements, brute_positive / 4 + 5);
}

TEST(ContainmentProperty, CompiledAgreesWithGeneralEngineOnRandomSlots) {
  std::mt19937 rng(13579);
  const std::vector<std::pair<const char*, const char*>> pairs = {
      {"(sn=_)", "(sn=_)"},         {"(sn=_)", "(sn>=_)"},
      {"(sn=_)", "(sn<=_)"},        {"(sn>=_)", "(sn>=_)"},
      {"(sn<=_)", "(sn>=_)"},       {"(sn=_)", "(sn=_*)"},
      {"(sn=_*)", "(sn=_*)"},       {"(&(sn=_)(ou=_))", "(sn=_)"},
      {"(&(sn=_)(ou=_))", "(&(ou=_)(sn=*))"},
      {"(&(sn>=_)(sn<=_))", "(&(sn>=_)(sn<=_))"},
      {"(|(sn=_)(sn=_))", "(sn=_)"},
      {"(sn=_)", "(|(sn=_)(sn=_))"},
  };
  std::uniform_int_distribution<std::size_t> value_dist(0, kValues.size() - 1);
  for (const auto& [inner_text, outer_text] : pairs) {
    const FilterTemplate inner_t = FilterTemplate::parse(inner_text);
    const FilterTemplate outer_t = FilterTemplate::parse(outer_text);
    const auto condition = CompiledContainment::compile(inner_t, outer_t);
    ASSERT_TRUE(condition.has_value()) << inner_text << " in " << outer_text;
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<std::string> inner_slots;
      for (std::size_t i = 0; i < inner_t.slot_count(); ++i) {
        inner_slots.push_back(kValues[value_dist(rng)]);
      }
      std::vector<std::string> outer_slots;
      for (std::size_t i = 0; i < outer_t.slot_count(); ++i) {
        outer_slots.push_back(kValues[value_dist(rng)]);
      }
      const FilterPtr inner_f = inner_t.instantiate(inner_slots);
      const FilterPtr outer_f = outer_t.instantiate(outer_slots);
      EXPECT_EQ(condition->evaluate(inner_slots, outer_slots),
                filter_contained(*inner_f, *outer_f))
          << inner_f->to_string() << " in " << outer_f->to_string();
    }
  }
}

TEST(ContainmentProperty, SameTemplatePathAgreesWithGeneralEngine) {
  std::mt19937 rng(97531);
  const std::vector<const char*> templates = {
      "(sn=_)", "(sn>=_)", "(sn=_*)", "(&(sn=_)(ou=_))", "(&(sn>=_)(ou=_))",
  };
  std::uniform_int_distribution<std::size_t> value_dist(0, kValues.size() - 1);
  for (const char* text : templates) {
    const FilterTemplate tmpl = FilterTemplate::parse(text);
    for (int trial = 0; trial < 80; ++trial) {
      std::vector<std::string> slots_a;
      std::vector<std::string> slots_b;
      for (std::size_t i = 0; i < tmpl.slot_count(); ++i) {
        slots_a.push_back(kValues[value_dist(rng)]);
        slots_b.push_back(kValues[value_dist(rng)]);
      }
      const FilterPtr fa = tmpl.instantiate(slots_a);
      const FilterPtr fb = tmpl.instantiate(slots_b);
      // Proposition 3 is sound (may under-approximate); on these templates
      // without redundant predicates it is also exact.
      EXPECT_EQ(same_template_contained(*fa, *fb), filter_contained(*fa, *fb))
          << fa->to_string() << " in " << fb->to_string();
    }
  }
}

}  // namespace
}  // namespace fbdr::containment
