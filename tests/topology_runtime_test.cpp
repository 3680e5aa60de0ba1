// TopologyRuntime tests: building an N-node tree over the synthetic
// enterprise directory, per-hop staleness lag under deepest-first ticking,
// install-time referral chasing, re-parenting an orphaned subtree to its
// grandparent, and distributed client search across the cascade.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "server/distributed.h"
#include "sync/content_tracker.h"
#include "topology/runtime.h"
#include "workload/directory_gen.h"

namespace fbdr::topology {
namespace {

using ldap::Query;
using ldap::Scope;
using server::Modification;

Query serial_query(const std::string& prefix) {
  return Query::parse("", Scope::Subtree, "(serialnumber=" + prefix + "*)");
}

// 4000 employees over 4 divisions: serials <2-digit division><4-digit rank>,
// so division prefixes ("00") split into rank blocks ("0001" = ranks
// 0100-0199) — syntactic containment down the tree.
workload::EnterpriseDirectory make_directory() {
  workload::DirectoryConfig config;
  config.employees = 4000;
  config.countries = 2;
  config.geo_countries = 1;
  config.divisions = 4;
  config.depts_per_division = 4;
  config.locations = 4;
  return workload::generate_directory(config);
}

std::vector<std::string> master_truth(const server::DirectoryServer& master,
                                      const Query& query) {
  sync::ContentTracker tracker(query);
  tracker.initialize(master.dit());
  return tracker.content_keys();
}

std::vector<std::string> mirror_keys(const RelayNode& node, const Query& query) {
  std::vector<std::string> keys;
  for (const ldap::EntryPtr& entry : node.mirror().evaluate(query)) {
    keys.push_back(entry->dn().norm_key());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(TopologyRuntime, TreeConvergesWithOneTickLagPerHop) {
  workload::EnterpriseDirectory dir = make_directory();
  TopologyRuntime runtime(dir.master, {});

  runtime.add_node("r0", "", {serial_query("00")});
  runtime.add_node("r1", "", {serial_query("01")});
  runtime.add_node("l00", "r0", {serial_query("0000")});
  runtime.add_node("l01", "r0", {serial_query("0001")});
  runtime.add_node("l10", "r1", {serial_query("0100")});
  ASSERT_TRUE(runtime.install());
  EXPECT_EQ(runtime.depth_of("r0"), 1u);
  EXPECT_EQ(runtime.depth_of("l00"), 2u);

  // Initial content is correct at every level.
  EXPECT_EQ(mirror_keys(runtime.node("l00"), serial_query("0000")),
            master_truth(*dir.master, serial_query("0000")));

  // Changes ripple one hop per tick: mutate, then run depth+1 rounds.
  const workload::EmployeeInfo& hot = dir.employees[dir.division_members[0][0]];
  ASSERT_EQ(hot.serial.substr(0, 4), "0000");
  dir.master->modify(hot.dn,
                     {{Modification::Op::Replace, "mail", {"hop@xyz.com"}}});
  runtime.run(3);

  bool relayed = false;
  for (const ldap::EntryPtr& entry :
       runtime.node("l00").mirror().evaluate(serial_query("0000"))) {
    if (entry->dn() == hot.dn) relayed = entry->has_value("mail", "hop@xyz.com");
  }
  EXPECT_TRUE(relayed) << "change did not reach the depth-2 leaf";

  // Steady-state staleness: one tick per hop, measured from origin_time.
  for (const NodeHealth& health : runtime.health()) {
    EXPECT_EQ(health.lag_ticks, health.depth)
        << health.name << " at depth " << health.depth;
    EXPECT_FALSE(health.down);
    EXPECT_FALSE(health.degraded);
  }
}

TEST(TopologyRuntime, InstallChasesReferralsUpTheAncestorChain) {
  workload::EnterpriseDirectory dir = make_directory();
  TopologyRuntime runtime(dir.master, {});

  runtime.add_node("r0", "", {serial_query("00")});
  // Filter (serialnumber=01*) is NOT contained in r0's replicated set:
  // r0 must refuse it with a referral and the runtime re-wires to the root.
  runtime.add_node("stray", "r0", {serial_query("01")});
  ASSERT_TRUE(runtime.install());

  EXPECT_EQ(runtime.parent_of("stray"), "") << "stray should hang off the root";
  EXPECT_EQ(runtime.depth_of("stray"), 1u);
  EXPECT_GE(runtime.node("r0").admission_rejects(), 1u);
  EXPECT_GE(runtime.node("stray").reparents(), 1u);
  EXPECT_EQ(mirror_keys(runtime.node("stray"), serial_query("01")),
            master_truth(*dir.master, serial_query("01")));
}

TEST(TopologyRuntime, ReparentsOrphanedSubtreeToGrandparent) {
  workload::EnterpriseDirectory dir = make_directory();
  TopologyRuntime::Options options;
  options.reparent_after = 3;
  TopologyRuntime runtime(dir.master, options);

  runtime.add_node("mid", "", {serial_query("00")});
  runtime.add_node("leaf", "mid", {serial_query("0000")});
  ASSERT_TRUE(runtime.install());
  ASSERT_EQ(runtime.parent_of("leaf"), "mid");

  // The mid relay dies and stays dead: after `reparent_after` failed sync
  // rounds the leaf is adopted by its grandparent — the root.
  runtime.crash_node("mid");
  runtime.run(5);
  EXPECT_EQ(runtime.parent_of("leaf"), "");
  EXPECT_EQ(runtime.node("leaf").reparents(), 1u);
  EXPECT_EQ(runtime.depth_of("leaf"), 1u);

  // Re-homed and healthy: updates flow from the root directly.
  const workload::EmployeeInfo& hot = dir.employees[dir.division_members[0][0]];
  dir.master->modify(hot.dn,
                     {{Modification::Op::Replace, "mail", {"adopt@xyz.com"}}});
  runtime.run(2);
  bool seen = false;
  for (const ldap::EntryPtr& entry :
       runtime.node("leaf").mirror().evaluate(serial_query("0000"))) {
    if (entry->dn() == hot.dn) seen = entry->has_value("mail", "adopt@xyz.com");
  }
  EXPECT_TRUE(seen);

  // The failed relay rejoins after restart without disturbing the leaf.
  runtime.restart_node("mid");
  runtime.run(2);
  EXPECT_EQ(runtime.parent_of("leaf"), "");
  EXPECT_FALSE(runtime.node("mid").upstream_total().degraded);
  EXPECT_EQ(mirror_keys(runtime.node("mid"), serial_query("00")),
            master_truth(*dir.master, serial_query("00")));
}

TEST(TopologyRuntime, DistributedClientSearchesAcrossTheCascade) {
  workload::EnterpriseDirectory dir = make_directory();
  TopologyRuntime runtime(dir.master, {});
  runtime.add_node("r0", "", {serial_query("00")});
  runtime.add_node("l0", "r0", {serial_query("0000")});
  ASSERT_TRUE(runtime.install());

  server::ServerMap servers = runtime.server_map();
  server::DistributedClient client(servers);

  // Inside the leaf's set: answered locally.
  const workload::EmployeeInfo& local = dir.employees[dir.division_members[0][0]];
  ASSERT_EQ(local.serial.substr(0, 4), "0000");
  auto hit = client.search("ldap://l0", serial_query(local.serial));
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit.front()->dn(), local.dn);

  // Inside the relay's set but not the leaf's: one referral hop up.
  const workload::EmployeeInfo& cousin =
      dir.employees[dir.division_members[0][150]];
  ASSERT_EQ(cousin.serial.substr(0, 2), "00");
  ASSERT_NE(cousin.serial.substr(0, 4), "0000");
  EXPECT_EQ(client.search("ldap://l0", serial_query(cousin.serial)).size(), 1u);

  // Outside every replicated set: chased all the way to the root master.
  const workload::EmployeeInfo& far = dir.employees[dir.division_members[3][0]];
  EXPECT_EQ(client.search("ldap://l0", serial_query(far.serial)).size(), 1u);
}

TEST(TopologyRuntime, HealthReportsTopologyShape) {
  workload::EnterpriseDirectory dir = make_directory();
  TopologyRuntime runtime(dir.master, {});
  runtime.add_node("r0", "", {serial_query("00")});
  runtime.add_node("l0", "r0", {serial_query("0000")});
  ASSERT_TRUE(runtime.install());
  runtime.run(2);

  const std::vector<NodeHealth> report = runtime.health();
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report[0].name, "r0");  // shallowest first
  EXPECT_EQ(report[0].parent, "");
  EXPECT_EQ(report[1].name, "l0");
  EXPECT_EQ(report[1].parent, "r0");
  EXPECT_EQ(report[0].downstream_sessions, 1u) << "l0's session on r0";
  EXPECT_EQ(report[1].downstream_sessions, 0u);
  EXPECT_EQ(runtime.root_master().session_count(), 1u) << "r0's session";
}

}  // namespace
}  // namespace fbdr::topology
