// Planned session install (DESIGN.md §7): ContentTracker::initialize and
// DirectoryServer::evaluate take their candidates from
// Dit::for_each_candidate — an index posting list, the one-level children,
// the subtree below a deep base, or the whole DIT — instead of scanning every
// entry. The plan may change what an install costs, never what it returns.
// This suite checks that on generated enterprise directories: Table-1 user
// queries and their generalizations, every scope, root, suffix, country and
// division bases, over an indexed DIT (also after modifications and an
// update stream have re-indexed it) and an unindexed copy. The tracked
// content keys, the digest root and entry count, and evaluate()'s ordered
// result must equal a full scan's.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ldap/query.h"
#include "select/generalize.h"
#include "server/directory_server.h"
#include "sync/content_digest.h"
#include "sync/content_tracker.h"
#include "workload/directory_gen.h"
#include "workload/update_gen.h"
#include "workload/workload_gen.h"

namespace fbdr::sync {
namespace {

using ldap::Dn;
using ldap::EntryPtr;
using ldap::Query;
using ldap::Scope;
using server::Modification;

workload::DirectoryConfig small_directory(unsigned seed) {
  workload::DirectoryConfig config;
  config.employees = 600;
  config.countries = 5;
  config.geo_countries = 2;
  config.divisions = 6;
  config.depts_per_division = 4;
  config.locations = 8;
  config.seed = seed;
  return config;
}

/// The same entries, contexts and nothing else: no attribute indexes.
std::unique_ptr<server::DirectoryServer> unindexed_copy(
    const server::DirectoryServer& source) {
  auto copy = std::make_unique<server::DirectoryServer>("ldap://copy");
  for (const server::NamingContext& context : source.contexts()) {
    copy->add_context(context);
  }
  std::vector<EntryPtr> entries;
  source.dit().for_each([&](const EntryPtr& entry) { entries.push_back(entry); });
  std::stable_sort(entries.begin(), entries.end(),
                   [](const EntryPtr& a, const EntryPtr& b) {
                     return a->dn().depth() < b->dn().depth();
                   });
  for (const EntryPtr& entry : entries) copy->load(entry);
  return copy;
}

select::Generalizer table1_generalizer() {
  select::Generalizer g;
  g.add_rule("(serialnumber=_)", "(serialnumber=_*)",
             select::prefix_transform(5));
  g.add_rule("(mail=_)", "(mail=_*)", select::prefix_transform(3));
  g.add_rule("(&(dept=_)(div=_))", "(&(div=_)(dept=*))", select::keep_slots({1}));
  g.add_rule("(location=_)", "(location=*)", select::no_slots());
  return g;
}

/// Table-1 user queries from a seeded trace, their generalizations, and a
/// few shapes the trace never produces (disjunction, presence, two pins).
std::vector<std::string> filters_for(const workload::EnterpriseDirectory& dir,
                                     unsigned seed) {
  workload::WorkloadConfig config;
  config.seed = seed;
  workload::WorkloadGenerator trace(dir, config);
  const select::Generalizer generalizer = table1_generalizer();
  std::vector<std::string> filters;
  for (const workload::GeneratedQuery& generated : trace.generate(24)) {
    filters.push_back(generated.query.filter->to_string());
    if (const auto general = generalizer.generalize(generated.query)) {
      filters.push_back(general->filter->to_string());
    }
  }
  const std::string serial = dir.employees.front().serial;
  filters.push_back("(objectclass=*)");
  filters.push_back("(|(serialnumber=" + serial + ")(objectclass=country))");
  filters.push_back("(&(serialnumber=" + serial.substr(0, 2) +
                    "*)(mail=" + dir.employees.front().mail + "))");
  filters.push_back("(&(div=" + dir.division_names.front() + ")(dept=" +
                    dir.division_depts.front().back() + "))");
  filters.push_back("(mail=" + dir.employees.back().mail.substr(0, 1) + "*)");
  filters.push_back("(mail=moved*)");  // values the test moves in later
  filters.push_back("(mail=moved3@x.com)");
  std::sort(filters.begin(), filters.end());
  filters.erase(std::unique(filters.begin(), filters.end()), filters.end());
  return filters;
}

std::vector<std::string> bases_for(const workload::EnterpriseDirectory& dir) {
  return {"", "o=ibm", "c=" + dir.country_codes.front() + ",o=ibm",
          "c=" + dir.country_codes.back() + ",o=ibm",
          "ou=" + dir.division_names.front() + ",o=ibm",
          "cn=e" + dir.employees.front().serial + ",c=" +
              dir.country_codes[dir.employees.front().country] + ",o=ibm"};
}

/// Compares the planned install and evaluate() against a full scan.
void expect_plan_matches_scan(const server::DirectoryServer& server,
                              const Query& query, const std::string& label) {
  ContentTracker planned(query);
  planned.initialize(server.dit());

  std::vector<std::string> keys;
  std::vector<std::string> ordered;
  ContentDigest digest;
  server.dit().for_each([&](const EntryPtr& entry) {
    if (!planned.matches_query(*entry)) return;
    keys.push_back(entry->dn().norm_key());
    digest.upsert(entry->dn().norm_key(), *entry);
  });

  EXPECT_EQ(planned.content_keys(), keys) << label;
  EXPECT_EQ(planned.digest().root(), digest.root()) << label;
  EXPECT_EQ(planned.digest().entry_count(), digest.entry_count()) << label;

  for (const EntryPtr& entry : server.evaluate(query)) {
    ordered.push_back(entry->dn().norm_key());
  }
  EXPECT_EQ(ordered, keys) << label << " (evaluate)";
}

class InstallPlan : public ::testing::TestWithParam<unsigned> {};

TEST_P(InstallPlan, PlannedInstallEqualsFullScan) {
  workload::EnterpriseDirectory dir =
      workload::generate_directory(small_directory(GetParam()));
  const auto plain = unindexed_copy(*dir.master);
  const std::vector<std::string> filters = filters_for(dir, GetParam() + 1);
  const std::vector<std::string> bases = bases_for(dir);
  ASSERT_GE(filters.size(), 20u);

  const auto sweep = [&](const server::DirectoryServer& server,
                         const std::string& what) {
    std::size_t nonempty = 0;
    for (const std::string& filter : filters) {
      for (const std::string& base : bases) {
        for (const Scope scope : {Scope::Base, Scope::OneLevel, Scope::Subtree}) {
          const Query query = Query::parse(base, scope, filter);
          expect_plan_matches_scan(server, query, what + " " + query.to_string());
          if (!server.evaluate(query).empty()) ++nonempty;
        }
      }
    }
    // The sweep must exercise real content, not just empty regions.
    EXPECT_GT(nonempty, filters.size()) << what;
  };

  sweep(*dir.master, "indexed");
  sweep(*plain, "unindexed");

  // Modifications re-index only the indexed attributes they name. The
  // update stream modifies phone numbers and titles, so first move some
  // mail values: a posting left behind would hide these entries.
  for (std::size_t i = 0; i < 20; ++i) {
    const std::string mail = "moved" + std::to_string(i) + "@x.com";
    dir.master->modify(dir.employees[i].dn,
                       {{Modification::Op::Replace, "mail", {mail}},
                        {Modification::Op::Replace, "title", {"moved"}}});
  }
  workload::UpdateConfig updates;
  updates.seed = GetParam() + 2;
  workload::UpdateGenerator(dir, updates).apply(300);
  sweep(*dir.master, "indexed after updates");
}

INSTANTIATE_TEST_SUITE_P(Seeds, InstallPlan, ::testing::Values(1u, 7u, 1001u));

}  // namespace
}  // namespace fbdr::sync
