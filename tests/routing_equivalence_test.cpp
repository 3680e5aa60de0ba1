// Randomized equivalence suite for the compiled-filter / change-routing hot
// path: the optimized paths must be observationally identical to the simple
// exhaustive ones.
//
//  1. CompiledFilter::matches == ldap::matches on random filters x entries,
//     plus hand-built entries whose values are not in normal form.
//  2. DirectoryServer::evaluate (index-driven) == a full region+filter scan.
//  3. ChangeRouter-pruned tracker evaluation produces exactly the same
//     per-session ContentEvent sequences as exhaustive evaluation.
//  4. A routed ReSyncMaster and an exhaustive one emit byte-identical
//     update streams end to end, including under session churn.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ldap/compiled_filter.h"
#include "ldap/filter_parser.h"
#include "ldap/ldif.h"
#include "resync/master.h"
#include "sync/change_router.h"
#include "sync/content_tracker.h"
#include "workload/directory_gen.h"
#include "workload/update_gen.h"

#include "filter_eval.h"
#include "filter_normalization_cases.h"

namespace fbdr {
namespace {

using ldap::Dn;
using ldap::EntryPtr;
using ldap::Query;
using ldap::Scope;

workload::DirectoryConfig small_config() {
  workload::DirectoryConfig config;
  config.employees = 400;
  config.countries = 4;
  config.geo_countries = 2;
  config.divisions = 6;
  config.depts_per_division = 4;
  config.locations = 6;
  return config;
}

/// Random RFC 2254 filter strings over the generated directory's attributes,
/// covering every predicate kind and composite nesting.
class FilterGen {
 public:
  FilterGen(std::mt19937& rng, const workload::EnterpriseDirectory& dir)
      : rng_(&rng), dir_(&dir) {}

  std::string predicate() {
    switch (pick(7)) {
      case 0:
        return "(departmentnumber=" + dept() + ")";
      case 1:
        return "(buildingname=" + building() + ")";
      case 2:
        return "(serialnumber=" + serial_prefix() + "*)";
      case 3:
        return "(serialnumber>=" + serial() + ")";
      case 4:
        return "(serialnumber<=" + serial() + ")";
      case 5:
        return "(telephonenumber=*)";
      default:
        return "(objectclass=person)";
    }
  }

  std::string filter(int depth = 2) {
    if (depth == 0 || pick(3) == 0) return predicate();
    switch (pick(3)) {
      case 0:
        return "(&" + filter(depth - 1) + filter(depth - 1) + ")";
      case 1:
        return "(|" + filter(depth - 1) + filter(depth - 1) + ")";
      default:
        return "(!" + filter(depth - 1) + ")";
    }
  }

  std::string dept() {
    const auto& depts = dir_->division_depts[pick(dir_->division_depts.size())];
    return depts[pick(depts.size())];
  }

  std::string building() {
    return dir_->location_names[pick(dir_->location_names.size())];
  }

  std::string serial() {
    return dir_->employees[pick(dir_->employees.size())].serial;
  }

  std::string serial_prefix() { return serial().substr(0, 2); }

  std::size_t pick(std::size_t bound) {
    return std::uniform_int_distribution<std::size_t>(0, bound - 1)(*rng_);
  }

 private:
  std::mt19937* rng_;
  const workload::EnterpriseDirectory* dir_;
};

TEST(RoutingEquivalence, CompiledFilterMatchesAstWalker) {
  const auto dir = workload::generate_directory(small_config());
  const ldap::Schema& schema = dir.master->schema();
  std::mt19937 rng(20050601);
  FilterGen gen(rng, dir);

  std::vector<EntryPtr> entries;
  dir.master->dit().for_each(
      [&](const EntryPtr& entry) { entries.push_back(entry); });
  const std::vector<EntryPtr> awkward = normalization_cases::entries();
  entries.insert(entries.end(), awkward.begin(), awkward.end());

  std::vector<std::string> texts = normalization_cases::filters();
  for (int round = 0; round < 60; ++round) texts.push_back(gen.filter());

  for (const std::string& text : texts) {
    const ldap::FilterPtr filter = ldap::parse_filter(text);
    const ldap::CompiledFilter compiled =
        ldap::CompiledFilter::compile(*filter, schema);
    for (const EntryPtr& entry : entries) {
      const bool expected = ldap::matches(*filter, *entry, schema);
      ASSERT_EQ(compiled.matches(*entry), expected)
          << text << " on " << entry->dn().to_string();
    }
  }
}

TEST(RoutingEquivalence, EvaluateIndexedEqualsFullScan) {
  const auto dir = workload::generate_directory(small_config());
  const server::DirectoryServer& master = *dir.master;
  std::mt19937 rng(20050602);
  FilterGen gen(rng, dir);

  const std::vector<std::string> bases = {
      "o=ibm", "c=" + dir.country_codes[0] + ",o=ibm",
      "ou=" + dir.division_names[1] + ",o=ibm"};
  const std::vector<Scope> scopes = {Scope::Base, Scope::OneLevel,
                                     Scope::Subtree};

  for (int round = 0; round < 80; ++round) {
    // Indexed equality some of the time so the fast path actually runs.
    const std::string text = gen.pick(2) == 0
                                 ? "(&(departmentnumber=" + gen.dept() +
                                       ")(objectclass=person))"
                                 : gen.filter();
    const Query query = Query::parse(bases[gen.pick(bases.size())],
                                     scopes[gen.pick(scopes.size())], text);

    std::set<std::string> expected;
    master.dit().for_each([&](const EntryPtr& entry) {
      if (!query.region_covers(entry->dn())) return;
      if (query.filter &&
          !ldap::matches(*query.filter, *entry, master.schema())) {
        return;
      }
      expected.insert(entry->dn().norm_key());
    });

    std::set<std::string> actual;
    for (const EntryPtr& entry : master.evaluate(query)) {
      actual.insert(entry->dn().norm_key());
    }
    ASSERT_EQ(actual, expected) << query.to_string();
  }
}

std::string event_signature(const sync::ContentEvent& event) {
  std::string out = std::to_string(event.seq) + " " +
                    sync::to_string(event.transition) + " " +
                    event.dn.to_string() + "\n";
  if (event.entry) out += ldap::to_ldif(*event.entry);
  return out;
}

/// Session specs mixing pinned, unpinned, negated, substring, fallback-free
/// and scope-restricted filters over the generated tree.
std::vector<Query> session_queries(const workload::EnterpriseDirectory& dir,
                                   std::mt19937& rng, std::size_t count) {
  FilterGen gen(rng, dir);
  std::vector<Query> queries;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string country = "c=" + dir.country_codes[gen.pick(dir.country_codes.size())] + ",o=ibm";
    switch (i % 6) {
      case 0:
        queries.push_back(Query::parse(
            "o=ibm", Scope::Subtree, "(departmentnumber=" + gen.dept() + ")"));
        break;
      case 1:
        queries.push_back(Query::parse(country, Scope::Subtree, gen.filter()));
        break;
      case 2:
        queries.push_back(Query::parse(
            "o=ibm", Scope::Subtree, "(!(departmentnumber=" + gen.dept() + "))"));
        break;
      case 3:
        queries.push_back(Query::parse(country, Scope::OneLevel,
                                       "(serialnumber=" + gen.serial_prefix() + "*)"));
        break;
      case 4:
        queries.push_back(Query::parse(
            dir.employees[gen.pick(dir.employees.size())].dn.to_string(),
            Scope::Base, "(objectclass=*)"));
        break;
      default:
        queries.push_back(Query::parse("o=ibm", Scope::Subtree, gen.filter()));
        break;
    }
  }
  return queries;
}

TEST(RoutingEquivalence, RoutedTrackersEmitSameEventsAsExhaustive) {
  auto dir = workload::generate_directory(small_config());
  server::DirectoryServer& master = *dir.master;
  const ldap::Schema& schema = master.schema();
  std::mt19937 rng(20050603);
  const std::vector<Query> queries = session_queries(dir, rng, 24);

  // Twin tracker sets over identical queries; one side routed, one side fed
  // every record.
  std::vector<std::unique_ptr<sync::ContentTracker>> routed;
  std::vector<std::unique_ptr<sync::ContentTracker>> exhaustive;
  sync::ChangeRouter router(schema);
  std::vector<sync::ChangeRouter::Handle> handles;

  for (const Query& query : queries) {
    routed.push_back(std::make_unique<sync::ContentTracker>(query, schema));
    exhaustive.push_back(std::make_unique<sync::ContentTracker>(query, schema));
    routed.back()->initialize(master.dit());
    exhaustive.back()->initialize(master.dit());
    const auto handle =
        router.add_session(query, &routed.back()->compiled_filter());
    handles.push_back(handle);
    for (const auto& [key, entry] : routed.back()->content()) {
      router.note_enter(handle, key);
    }
  }

  workload::UpdateConfig update_config;
  update_config.seed = 20050604;
  workload::UpdateGenerator updates(dir, update_config);

  std::uint64_t pumped = 0;
  std::vector<sync::ChangeRouter::Handle> candidates;
  for (int round = 0; round < 400; ++round) {
    updates.apply_one();
    for (const server::ChangeRecord* record :
         master.journal().since(pumped)) {
      candidates.clear();
      router.route(*record, candidates);
      std::map<std::size_t, std::string> routed_events;
      for (const auto handle : candidates) {
        const std::size_t i = handle;  // handles were assigned 0..n-1 in order
        std::string sig;
        for (const sync::ContentEvent& event :
             routed[i]->on_change(*record)) {
          sig += event_signature(event);
          if (event.transition == sync::Transition::Enter) {
            router.note_enter(handles[i], event.dn.norm_key());
          } else if (event.transition == sync::Transition::Leave) {
            router.note_leave(handles[i], event.dn.norm_key());
          }
        }
        routed_events[i] = sig;
      }
      for (std::size_t i = 0; i < exhaustive.size(); ++i) {
        std::string expected;
        for (const sync::ContentEvent& event : exhaustive[i]->on_change(*record)) {
          expected += event_signature(event);
        }
        const auto it = routed_events.find(i);
        const std::string& actual =
            it == routed_events.end() ? std::string() : it->second;
        ASSERT_EQ(actual, expected)
            << "session " << i << " (" << queries[i].to_string() << ") on seq "
            << record->seq;
      }
      pumped = record->seq;
    }
  }
  // The pruning must actually prune: candidates well below exhaustive.
  const auto& stats = router.stats();
  EXPECT_GT(stats.routed_changes, 0u);
  EXPECT_LT(stats.candidates, stats.exhaustive / 2);
}

std::string pdu_signature(const std::vector<resync::EntryPdu>& pdus) {
  std::string out;
  for (const resync::EntryPdu& pdu : pdus) {
    out += resync::to_string(pdu.action) + " " + pdu.dn.to_string() + "\n";
    if (pdu.entry) out += ldap::to_ldif(*pdu.entry);
  }
  return out;
}

TEST(RoutingEquivalence, RoutedMasterMatchesExhaustiveMasterEndToEnd) {
  auto dir = workload::generate_directory(small_config());
  server::DirectoryServer& master = *dir.master;
  std::mt19937 rng(20050605);
  const std::vector<Query> queries = session_queries(dir, rng, 18);

  // Two protocol masters over the same journal: both see every change, one
  // routes, the other fans out exhaustively.
  resync::ReSyncMaster routed(master);
  resync::ReSyncMaster exhaustive(master);
  exhaustive.set_change_routing(false);

  std::vector<std::string> routed_pushed, exhaustive_pushed;
  routed.set_notification_sink(
      [&](const std::string& cookie, const std::vector<resync::EntryPdu>& pdus) {
        routed_pushed.push_back(cookie + "\n" + pdu_signature(pdus));
      });
  exhaustive.set_notification_sink(
      [&](const std::string& cookie, const std::vector<resync::EntryPdu>& pdus) {
        exhaustive_pushed.push_back(cookie + "\n" + pdu_signature(pdus));
      });

  // Alternate persist and poll sessions; track the poll cookies pairwise.
  std::vector<std::pair<std::string, std::string>> poll_cookies;
  std::vector<std::pair<std::string, std::string>> persist_cookies;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const resync::Mode mode =
        i % 2 == 0 ? resync::Mode::Persist : resync::Mode::Poll;
    const auto r = routed.handle(queries[i], {mode, ""});
    const auto e = exhaustive.handle(queries[i], {mode, ""});
    ASSERT_EQ(pdu_signature(r.pdus), pdu_signature(e.pdus));
    ASSERT_EQ(r.cookie, e.cookie);
    (mode == resync::Mode::Poll ? poll_cookies : persist_cookies)
        .emplace_back(r.cookie, e.cookie);
  }

  workload::UpdateConfig update_config;
  update_config.seed = 20050606;
  workload::UpdateGenerator updates(dir, update_config);
  FilterGen gen(rng, dir);

  for (int round = 0; round < 40; ++round) {
    updates.apply(10);
    routed.pump();
    exhaustive.pump();
    ASSERT_EQ(routed_pushed, exhaustive_pushed) << "after round " << round;

    // Poll every poll-mode session and compare the answered updates.
    for (auto& [rc, ec] : poll_cookies) {
      const auto r = routed.handle(queries[0], {resync::Mode::Poll, rc});
      const auto e = exhaustive.handle(queries[0], {resync::Mode::Poll, ec});
      ASSERT_EQ(pdu_signature(r.pdus), pdu_signature(e.pdus));
      rc = r.cookie;
      ec = e.cookie;
    }

    // Session churn: end one session and start a new one on both masters.
    if (round % 10 == 5) {
      if (!persist_cookies.empty()) {
        routed.abandon(persist_cookies.back().first);
        exhaustive.abandon(persist_cookies.back().second);
        persist_cookies.pop_back();
      }
      const Query fresh = Query::parse(
          "o=ibm", Scope::Subtree, "(departmentnumber=" + gen.dept() + ")");
      const auto r = routed.handle(fresh, {resync::Mode::Persist, ""});
      const auto e = exhaustive.handle(fresh, {resync::Mode::Persist, ""});
      ASSERT_EQ(pdu_signature(r.pdus), pdu_signature(e.pdus));
      persist_cookies.emplace_back(r.cookie, e.cookie);
    }
  }
  ASSERT_EQ(routed.session_count(), exhaustive.session_count());
  // Routing really pruned the fan-out while producing identical streams.
  const auto& stats = routed.routing_stats();
  EXPECT_LT(stats.candidates, stats.exhaustive / 2);
}

}  // namespace
}  // namespace fbdr
