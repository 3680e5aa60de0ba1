// Property test for full query containment (QC): whenever the engine claims
// query_contained(q, qs), every entry of a generated DIT answered by q must
// also be answered by qs — region, attribute and filter conditions together.

#include <gtest/gtest.h>

#include <random>

#include "containment/query_containment.h"
#include "ldap/entry.h"

#include "filter_eval.h"

namespace fbdr::containment {
namespace {

using ldap::Dn;
using ldap::Entry;
using ldap::Filter;
using ldap::FilterPtr;
using ldap::Query;
using ldap::Scope;

/// A small fixed DIT spanning three levels under two organizations.
std::vector<Entry> build_dit() {
  std::vector<Entry> entries;
  const std::vector<std::string> values = {"a", "b", "c"};
  std::size_t id = 0;
  for (const char* org : {"o=x", "o=y"}) {
    for (const char* country : {"c=us", "c=in"}) {
      for (const std::string& v : values) {
        Entry e(Dn::parse("cn=p" + std::to_string(id++) + "," +
                          std::string(country) + "," + org));
        e.add_value("objectclass", "person");
        e.add_value("sn", v);
        entries.push_back(std::move(e));
      }
      Entry container(Dn::parse(std::string(country) + "," + org));
      container.add_value("objectclass", "country");
      entries.push_back(std::move(container));
    }
    Entry top(Dn::parse(org));
    top.add_value("objectclass", "organization");
    entries.push_back(std::move(top));
  }
  return entries;
}

/// Whether `q` answers `entry` (region + filter; attributes do not affect
/// membership, only projection).
bool answers(const Query& q, const Entry& entry) {
  return q.region_covers(entry.dn()) && q.filter &&
         ldap::matches(*q.filter, entry);
}

TEST(QcProperty, ClaimedContainmentImpliesResultSubset) {
  const std::vector<Entry> dit = build_dit();
  const std::vector<std::string> bases = {"",          "o=x",       "o=y",
                                          "c=us,o=x",  "c=in,o=x",  "c=us,o=y",
                                          "cn=p0,c=us,o=x"};
  const std::vector<Scope> scopes = {Scope::Base, Scope::OneLevel, Scope::Subtree};
  const std::vector<std::string> filters = {
      "(sn=a)",  "(sn=b)",   "(sn>=b)",         "(sn<=b)",
      "(sn=*)",  "(sn=a*)",  "(objectclass=*)", "(&(objectclass=person)(sn=a))",
      "(|(sn=a)(sn=c))"};

  std::mt19937 rng(2005);
  std::uniform_int_distribution<std::size_t> base_pick(0, bases.size() - 1);
  std::uniform_int_distribution<std::size_t> scope_pick(0, scopes.size() - 1);
  std::uniform_int_distribution<std::size_t> filter_pick(0, filters.size() - 1);

  int claimed = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const Query q = Query::parse(bases[base_pick(rng)], scopes[scope_pick(rng)],
                                 filters[filter_pick(rng)]);
    const Query qs = Query::parse(bases[base_pick(rng)], scopes[scope_pick(rng)],
                                  filters[filter_pick(rng)]);
    if (!query_contained(q, qs)) continue;
    ++claimed;
    for (const Entry& entry : dit) {
      EXPECT_FALSE(answers(q, entry) && !answers(qs, entry))
          << "unsound: " << q.to_string() << " claimed inside " << qs.to_string()
          << " but '" << entry.dn().to_string() << "' separates them";
    }
  }
  EXPECT_GT(claimed, 100);  // non-vacuous
}

TEST(QcProperty, AttributeSubsetIsEnforcedIndependently) {
  // Same region and filter but wider attribute selection is not contained.
  Query narrow = Query::parse("o=x", Scope::Subtree, "(sn=a)");
  narrow.attrs = ldap::AttributeSelection::of({"sn"});
  Query wide = narrow;
  wide.attrs = ldap::AttributeSelection::of({"sn", "mail"});
  EXPECT_TRUE(query_contained(narrow, wide));
  EXPECT_FALSE(query_contained(wide, narrow));
}

}  // namespace
}  // namespace fbdr::containment
