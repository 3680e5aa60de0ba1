// Guards the headline reproduction claims (scaled down for test runtime):
//   1. Figure 4's shape: the filter replica reaches hit ratio 0.5 at a small
//      fraction of the person entries while the country-subtree replica at
//      the same budget stays far below.
//   2. Figure 6's shape: at a comparable configuration the filter replica's
//      update traffic is a fraction of the subtree replica's.
//   3. §5.2's ordering: session-history delete traffic < changelog <
//      tombstone under one update stream.
// Failures here mean a change broke the reproduced result, not just a unit.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/replication_service.h"
#include "subtree_model.h"
#include "sync_backends.h"
#include "workload/directory_gen.h"
#include "workload/update_gen.h"
#include "workload/workload_gen.h"

namespace fbdr {
namespace {

using ldap::Query;
using ldap::Scope;

workload::EnterpriseDirectory case_directory() {
  workload::DirectoryConfig config;
  config.employees = 6000;
  config.countries = 10;
  config.geo_countries = 3;
  config.divisions = 20;
  config.depts_per_division = 10;
  config.locations = 20;
  return workload::generate_directory(config);
}

std::shared_ptr<ldap::TemplateRegistry> registry() {
  auto r = std::make_shared<ldap::TemplateRegistry>();
  r->add("(serialnumber=_)");
  r->add("(serialnumber=_*)");
  return r;
}

TEST(CaseStudy, FilterModelBeatsSubtreeModelAtEqualSize) {
  const workload::EnterpriseDirectory dir = case_directory();
  const auto estimator = core::master_size_estimator(dir.master);

  workload::WorkloadConfig wconfig;
  wconfig.p_serial = 1.0;
  wconfig.p_mail = wconfig.p_dept = wconfig.p_location = 0.0;
  wconfig.temporal_rereference = 0.0;
  workload::WorkloadGenerator train_gen(dir, wconfig);
  const auto train = train_gen.generate(10000);
  wconfig.seed = 99;
  workload::WorkloadGenerator eval_gen(dir, wconfig);
  const auto eval = eval_gen.generate(10000);

  // 10% entry budget.
  const std::size_t budget = dir.person_entries() / 10;

  // Filter model: top prefix blocks by benefit/size.
  select::FilterSelector::Config sconfig;
  sconfig.revolution_interval = train.size() + 1;
  sconfig.budget_entries = budget;
  select::Generalizer generalizer;
  generalizer.add_rule("(serialnumber=_)", "(serialnumber=_*)",
                       select::prefix_transform(4));
  select::FilterSelector selector(sconfig, std::move(generalizer), estimator);
  for (const auto& generated : train) selector.observe(generated.query);
  const auto revolution = selector.revolve();

  replica::FilterReplica filter_replica(ldap::Schema::default_instance(),
                                        registry());
  for (const Query& query : revolution.install) {
    filter_replica.add_query(query, estimator(query));
  }
  for (const auto& generated : eval) filter_replica.handle(generated.query);
  const double filter_hit = filter_replica.stats().hit_ratio();

  // Subtree model (favorably credited): best countries under the budget.
  std::vector<std::size_t> country_size(dir.country_codes.size(), 0);
  for (const auto& info : dir.employees) ++country_size[info.country];
  std::vector<std::size_t> country_hits(dir.country_codes.size(), 0);
  for (const auto& generated : train) {
    if (generated.target_country != SIZE_MAX) ++country_hits[generated.target_country];
  }
  std::vector<std::size_t> order(dir.country_codes.size());
  for (std::size_t c = 0; c < order.size(); ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return static_cast<double>(country_hits[a]) / static_cast<double>(country_size[a]) >
           static_cast<double>(country_hits[b]) / static_cast<double>(country_size[b]);
  });
  std::vector<bool> replicated(dir.country_codes.size(), false);
  std::size_t used = 0;
  for (const std::size_t c : order) {
    if (used + country_size[c] > budget) continue;
    used += country_size[c];
    replicated[c] = true;
  }
  std::size_t subtree_hits = 0;
  for (const auto& generated : eval) {
    if (generated.target_country != SIZE_MAX && replicated[generated.target_country]) {
      ++subtree_hits;
    }
  }
  const double subtree_hit =
      static_cast<double>(subtree_hits) / static_cast<double>(eval.size());

  // The paper's Figure 4: filter crosses 0.5 within 10%; subtree does not
  // come close at that size.
  EXPECT_GT(filter_hit, 0.5) << "filter model lost its Figure 4 shape";
  EXPECT_LT(subtree_hit, filter_hit / 2.0)
      << "subtree model unexpectedly competitive";
}

TEST(CaseStudy, FilterUpdateTrafficBelowSubtreeAtSameBudget) {
  workload::EnterpriseDirectory dir = case_directory();

  core::FilterReplicationService filter_service(dir.master, {}, registry());
  // Replicate two hot divisions' serial blocks (~10% of persons).
  filter_service.install(Query::parse("", Scope::Subtree, "(serialnumber=00*)"));
  filter_service.install(Query::parse("", Scope::Subtree, "(serialnumber=01*)"));

  core::SubtreeReplicationService subtree_service(dir.master);
  // Replicate countries of comparable total size (~3 countries of 10).
  for (int c = 0; c < 3; ++c) {
    subtree_service.add_context(
        {ldap::Dn::parse("c=" + dir.country_codes[static_cast<std::size_t>(c)] +
                         ",o=ibm"),
         {}});
  }
  subtree_service.load();
  const std::size_t filter_entries = filter_service.filter_replica().stored_entries();
  const std::size_t subtree_entries = subtree_service.stored_entries();
  ASSERT_GT(subtree_entries, filter_entries)
      << "precondition: subtree replica should be at least as large";

  filter_service.resync().reset_traffic();
  workload::UpdateGenerator updates(dir, {});
  for (int round = 0; round < 10; ++round) {
    updates.apply(100);
    filter_service.sync();
    subtree_service.sync();
  }
  EXPECT_LT(filter_service.traffic().entries, subtree_service.traffic().entries)
      << "Figure 6 ordering broken";
}

TEST(CaseStudy, SyncBackendDeleteTrafficOrdering) {
  const Query query = Query::parse("", Scope::Subtree, "(serialnumber=00*)");
  std::size_t deletes[3] = {0, 0, 0};
  for (int which = 0; which < 3; ++which) {
    workload::EnterpriseDirectory dir = case_directory();
    std::unique_ptr<sync::SyncBackend> backend;
    switch (which) {
      case 0:
        backend = std::make_unique<sync::SessionHistoryBackend>(dir.master->dit());
        break;
      case 1:
        backend = std::make_unique<sync::ChangelogBackend>(*dir.master);
        break;
      default:
        backend = std::make_unique<sync::TombstoneBackend>(*dir.master);
        break;
    }
    const std::size_t id = backend->register_query(query);
    backend->initial(id);
    workload::UpdateGenerator updates(dir, {});
    std::uint64_t seq = dir.master->journal().last_seq();
    for (int round = 0; round < 10; ++round) {
      updates.apply(100);
      for (const server::ChangeRecord* record : dir.master->journal().since(seq)) {
        backend->on_change(*record);
        seq = record->seq;
      }
      deletes[which] += backend->poll(id).deletes.size();
    }
  }
  EXPECT_LT(deletes[0], deletes[1]) << "session-history vs changelog";
  EXPECT_LE(deletes[1], deletes[2]) << "changelog vs tombstone";
}

}  // namespace
}  // namespace fbdr
