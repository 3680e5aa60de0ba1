#include "filter_simplify.h"

#include <gtest/gtest.h>

#include <random>

#include "ldap/entry.h"
#include "ldap/filter_parser.h"

#include "filter_eval.h"

namespace fbdr::ldap {
namespace {

std::string simplified(const char* text) {
  return simplify(parse_filter(text))->to_string();
}

TEST(Simplify, PredicatesUnchanged) {
  EXPECT_EQ(simplified("(sn=Doe)"), "(sn=Doe)");
  EXPECT_EQ(simplified("(serialnumber=04*)"), "(serialnumber=04*)");
  EXPECT_EQ(simplified("(age>=30)"), "(age>=30)");
}

TEST(Simplify, FlattensNestedAnd) {
  EXPECT_EQ(simplified("(&(a=1)(&(b=2)(c=3)))"), "(&(a=1)(b=2)(c=3))");
  EXPECT_EQ(simplified("(&(&(a=1)(b=2))(&(c=3)(d=4)))"),
            "(&(a=1)(b=2)(c=3)(d=4))");
}

TEST(Simplify, FlattensNestedOr) {
  EXPECT_EQ(simplified("(|(a=1)(|(b=2)(c=3)))"), "(|(a=1)(b=2)(c=3))");
}

TEST(Simplify, DoesNotFlattenMixedKinds) {
  EXPECT_EQ(simplified("(&(a=1)(|(b=2)(c=3)))"), "(&(a=1)(|(b=2)(c=3)))");
}

TEST(Simplify, RemovesDuplicateChildren) {
  EXPECT_EQ(simplified("(|(sn=Doe)(sn=Doe))"), "(sn=Doe)");
  EXPECT_EQ(simplified("(&(a=1)(b=2)(a=1))"), "(&(a=1)(b=2))");
}

TEST(Simplify, DuplicatesAcrossFlattenedLevels) {
  EXPECT_EQ(simplified("(&(a=1)(&(a=1)(b=2)))"), "(&(a=1)(b=2))");
}

TEST(Simplify, DoubleNegationCancels) {
  EXPECT_EQ(simplified("(!(!(sn=Doe)))"), "(sn=Doe)");
  EXPECT_EQ(simplified("(!(!(!(sn=Doe))))"), "(!(sn=Doe))");
}

TEST(Simplify, NegationOfCompositeSimplifiesInside) {
  EXPECT_EQ(simplified("(!(&(a=1)(&(b=2)(b=2))))"), "(!(&(a=1)(b=2)))");
}

TEST(Simplify, CollapseToSingleChild) {
  EXPECT_EQ(simplified("(&(sn=Doe)(sn=doe))"), "(&(sn=Doe)(sn=doe))");
  // Structural equality is byte-level; matching-rule-equal different
  // spellings are kept (semantics unchanged either way).
  EXPECT_EQ(simplified("(|(a=1)(a=1)(a=1))"), "(a=1)");
}

TEST(Simplify, NullPassesThrough) {
  EXPECT_EQ(simplify(nullptr), nullptr);
}

TEST(Simplify, PreservesSemanticsOnRandomFilters) {
  // Property: simplify(f) matches exactly the same entries as f.
  const std::vector<std::string> values = {"a", "b", "c"};
  const std::vector<std::string> attrs = {"sn", "ou"};
  std::mt19937 rng(4242);

  std::function<FilterPtr(int)> gen = [&](int depth) -> FilterPtr {
    std::uniform_int_distribution<int> kind(0, depth > 0 ? 5 : 2);
    std::uniform_int_distribution<std::size_t> attr_pick(0, attrs.size() - 1);
    std::uniform_int_distribution<std::size_t> value_pick(0, values.size() - 1);
    switch (kind(rng)) {
      case 0:
        return Filter::equality(attrs[attr_pick(rng)], values[value_pick(rng)]);
      case 1:
        return Filter::greater_eq(attrs[attr_pick(rng)], values[value_pick(rng)]);
      case 2:
        return Filter::present(attrs[attr_pick(rng)]);
      case 3:
        return Filter::make_not(gen(depth - 1));
      case 4: {
        std::vector<FilterPtr> children{gen(depth - 1), gen(depth - 1),
                                        gen(depth - 1)};
        return Filter::make_and(std::move(children));
      }
      default: {
        std::vector<FilterPtr> children{gen(depth - 1), gen(depth - 1)};
        return Filter::make_or(std::move(children));
      }
    }
  };

  std::vector<Entry> universe;
  for (std::size_t i = 0; i <= values.size(); ++i) {
    for (std::size_t j = 0; j <= values.size(); ++j) {
      Entry e(Dn::parse("cn=u,o=t"));
      e.add_value("objectclass", "x");
      if (i < values.size()) e.add_value("sn", values[i]);
      if (j < values.size()) e.add_value("ou", values[j]);
      universe.push_back(std::move(e));
    }
  }

  for (int trial = 0; trial < 300; ++trial) {
    const FilterPtr original = gen(3);
    const FilterPtr reduced = simplify(original);
    for (const Entry& entry : universe) {
      ASSERT_EQ(matches(*original, entry), matches(*reduced, entry))
          << original->to_string() << " vs " << reduced->to_string();
    }
  }
}

}  // namespace
}  // namespace fbdr::ldap
