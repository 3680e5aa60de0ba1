#include "core/replication_service.h"

#include <gtest/gtest.h>

#include "subtree_model.h"
#include "workload/directory_gen.h"
#include "workload/update_gen.h"

namespace fbdr::core {
namespace {

using ldap::Query;
using ldap::Scope;
using workload::DirectoryConfig;
using workload::EnterpriseDirectory;

EnterpriseDirectory small_directory() {
  DirectoryConfig config;
  config.employees = 1000;
  config.countries = 6;
  config.divisions = 8;
  config.depts_per_division = 8;
  config.locations = 10;
  return workload::generate_directory(config);
}

std::shared_ptr<ldap::TemplateRegistry> case_study_registry() {
  auto registry = std::make_shared<ldap::TemplateRegistry>();
  registry->add("(serialnumber=_)");
  registry->add("(serialnumber=_*)");
  registry->add("(mail=_)");
  registry->add("(mail=*_)");
  registry->add("(&(dept=_)(div=_))");
  registry->add("(&(div=_)(dept=*))");
  registry->add("(location=_)");
  registry->add("(location=*)");
  return registry;
}

Query serial_query(const std::string& serial) {
  return Query::parse("", Scope::Subtree, "(serialnumber=" + serial + ")");
}

TEST(MasterSizeEstimator, CountsMatchingEntriesAndMemoizes) {
  EnterpriseDirectory dir = small_directory();
  const auto estimator = master_size_estimator(dir.master);
  const Query division_block =
      Query::parse("", Scope::Subtree, "(serialnumber=00*)");
  const std::size_t expected = dir.division_members[0].size();
  EXPECT_EQ(estimator(division_block), expected);
  EXPECT_EQ(estimator(division_block), expected);  // memoized path
  EXPECT_EQ(estimator(Query::parse("", Scope::Subtree, "(serialnumber=zz*)")), 0u);
}

TEST(FilterReplicationService, StaticInstallServesContainedQueries) {
  EnterpriseDirectory dir = small_directory();
  FilterReplicationService service(dir.master, {}, case_study_registry());
  service.install(Query::parse("", Scope::Subtree, "(serialnumber=00*)"));

  const std::string hot_serial =
      dir.employees[dir.division_members[0][0]].serial;
  EXPECT_TRUE(service.serve(serial_query(hot_serial)).hit);
  EXPECT_FALSE(service.serve(serial_query("070000")).hit);
  EXPECT_EQ(service.installed_filters(), 1u);
  EXPECT_GT(service.filter_replica().stored_entries(), 0u);
  // The initial content fetch was accounted as update traffic.
  EXPECT_EQ(service.traffic().entries, dir.division_members[0].size());
}

TEST(FilterReplicationService, SyncShipsMinimalDeltas) {
  EnterpriseDirectory dir = small_directory();
  FilterReplicationService service(dir.master, {}, case_study_registry());
  service.install(Query::parse("", Scope::Subtree, "(serialnumber=00*)"));
  const std::uint64_t baseline = service.traffic().entries;

  // One update inside the replicated block, several outside.
  const auto& members = dir.division_members[0];
  dir.master->modify(dir.employees[members[0]].dn,
                     {{server::Modification::Op::Replace, "telephonenumber",
                       {"555-0000"}}});
  for (std::size_t i = 0; i < 5; ++i) {
    dir.master->modify(dir.employees[dir.division_members[3][i]].dn,
                       {{server::Modification::Op::Replace, "telephonenumber",
                         {"555-1111"}}});
  }
  service.sync();
  EXPECT_EQ(service.traffic().entries - baseline, 1u);  // only the in-block mod

  // The replica's copy reflects the modification.
  const auto entry = service.filter_replica().query_content(0);
  bool found = false;
  for (const auto& e : entry) {
    if (e->dn() == dir.employees[members[0]].dn) {
      EXPECT_TRUE(e->has_value("telephonenumber", "555-0000"));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(FilterReplicationService, UninstallEndsSessionAndDropsContent) {
  EnterpriseDirectory dir = small_directory();
  FilterReplicationService service(dir.master, {}, case_study_registry());
  const Query q = Query::parse("", Scope::Subtree, "(serialnumber=00*)");
  service.install(q);
  EXPECT_EQ(service.resync().session_count(), 1u);
  service.uninstall(q);
  EXPECT_EQ(service.installed_filters(), 0u);
  EXPECT_EQ(service.resync().session_count(), 0u);
  EXPECT_EQ(service.filter_replica().stored_entries(), 0u);
}

TEST(FilterReplicationService, QueryCacheCatchesRepeats) {
  EnterpriseDirectory dir = small_directory();
  FilterReplicationService::Config config;
  config.query_cache_window = 8;
  FilterReplicationService service(dir.master, config, case_study_registry());

  const Query q = serial_query(dir.employees[0].serial);
  EXPECT_FALSE(service.serve(q).hit);
  const ServeOutcome second = service.serve(q);
  EXPECT_TRUE(second.hit);
  EXPECT_TRUE(second.from_cache);
}

TEST(FilterReplicationService, DynamicSelectionInstallsHotBlocks) {
  EnterpriseDirectory dir = small_directory();
  FilterReplicationService::Config config;
  select::FilterSelector::Config selection;
  selection.revolution_interval = 50;
  selection.budget_entries = 400;
  config.selection = selection;

  select::Generalizer generalizer;
  generalizer.add_rule("(serialnumber=_)", "(serialnumber=_*)",
                       select::prefix_transform(4));

  FilterReplicationService service(dir.master, config, case_study_registry(),
                                   std::move(generalizer));

  // Hammer one hot block of division 0 (serial prefix "0000").
  const auto& members = dir.division_members[0];
  for (int round = 0; round < 60; ++round) {
    const std::string& serial =
        dir.employees[members[static_cast<std::size_t>(round) % 5]].serial;
    service.serve(serial_query(serial));
  }
  EXPECT_EQ(service.revolutions(), 1u);
  EXPECT_GE(service.installed_filters(), 1u);
  // After the revolution the hot block answers locally.
  EXPECT_TRUE(service.serve(serial_query(dir.employees[members[0]].serial)).hit);
}

TEST(SubtreeReplicationService, ServesAndShipsWholeContexts) {
  EnterpriseDirectory dir = small_directory();
  SubtreeReplicationService service(dir.master);
  const std::string cc = dir.country_codes[0];
  service.add_context({ldap::Dn::parse("c=" + cc + ",o=ibm"), {}});
  service.load();
  EXPECT_GT(service.stored_entries(), 0u);

  // Hit only for bases inside the context.
  EXPECT_TRUE(
      service.handle(Query::parse("c=" + cc + ",o=ibm", Scope::Subtree, "(a=1)"))
          .hit);
  EXPECT_FALSE(service.handle(serial_query("000000")).hit);  // null base

  // Updates inside the context are shipped; outside ones are not.
  std::size_t inside = 0;
  std::size_t outside = 0;
  for (const auto& info : dir.employees) {
    if (info.country == 0 && inside < 3) {
      dir.master->modify(info.dn, {{server::Modification::Op::Replace,
                                    "telephonenumber",
                                    {"555"}}});
      ++inside;
    } else if (info.country == 1 && outside < 2) {
      dir.master->modify(info.dn, {{server::Modification::Op::Replace,
                                    "telephonenumber",
                                    {"556"}}});
      ++outside;
    }
    if (inside == 3 && outside == 2) break;
  }
  ASSERT_EQ(inside, 3u);
  service.sync();
  EXPECT_EQ(service.traffic().entries, 3u);
}

TEST(EndToEnd, FilterBeatsSubtreeOnNullBasedWorkload) {
  // The headline qualitative claim: for workloads issued by minimally
  // directory enabled applications (null bases), a filter replica achieves a
  // positive hit ratio while any proper-subtree replica scores zero.
  EnterpriseDirectory dir = small_directory();

  FilterReplicationService filter_service(dir.master, {}, case_study_registry());
  filter_service.install(Query::parse("", Scope::Subtree, "(serialnumber=00*)"));

  SubtreeReplicationService subtree_service(dir.master);
  subtree_service.add_context(
      {ldap::Dn::parse("c=" + dir.country_codes[0] + ",o=ibm"), {}});
  subtree_service.load();

  std::size_t filter_hits = 0;
  std::size_t subtree_hits = 0;
  for (const std::size_t member : dir.division_members[0]) {
    const Query q = serial_query(dir.employees[member].serial);
    if (filter_service.serve(q).hit) ++filter_hits;
    if (subtree_service.handle(q).hit) ++subtree_hits;
  }
  EXPECT_EQ(filter_hits, dir.division_members[0].size());
  EXPECT_EQ(subtree_hits, 0u);
}

}  // namespace
}  // namespace fbdr::core
