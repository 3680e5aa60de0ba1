// Overload chaos for the resource-governed ReSync master: a slow-consumer
// storm (one leaf never polls, one polls 100x slower) over 10k logical
// ticks must keep the governed master's history and replay-cache footprint
// under its configured budgets, keep every healthy replica exactly
// convergent with a fault-free ungoverned twin, and let degraded/evicted
// replicas recover to exact convergence once they resume polling. A second
// suite layers transport faults (drops, duplicates, reordering, and the
// memory-pressure outage mode) on top of the governed master.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "ldap/error.h"
#include "net/fault_injector.h"
#include "resync/replica_client.h"
#include "server/directory_server.h"
#include "sync/content_tracker.h"
#include "topology/runtime.h"

namespace fbdr::resync {
namespace {

using ldap::Dn;
using ldap::make_entry;
using ldap::Query;
using ldap::Scope;
using server::Modification;

std::unique_ptr<server::DirectoryServer> make_master() {
  auto master = std::make_unique<server::DirectoryServer>("ldap://master");
  server::NamingContext context;
  context.suffix = Dn::parse("o=xyz");
  master->add_context(std::move(context));
  master->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  for (int i = 0; i < 20; ++i) {
    master->load(make_entry("cn=E" + std::to_string(i) + ",o=xyz",
                            {{"objectclass", "person"},
                             {"dept", i % 2 == 0 ? "42" : "7"}}));
  }
  return master;
}

const Query kQuery = Query::parse("o=xyz", Scope::Subtree, "(dept=42)");

std::vector<std::string> master_truth(const server::DirectoryServer& master) {
  sync::ContentTracker tracker(kQuery);
  tracker.initialize(master.dit());
  return tracker.content_keys();
}

/// One random op applied identically to the governed master and its
/// fault-free twin. Targets cycle over a bounded key space so the content
/// stays small while every op kind keeps firing for the whole soak.
void mutate_both(std::mt19937& rng, server::DirectoryServer& governed,
                 server::DirectoryServer& twin) {
  const int op = std::uniform_int_distribution<int>(0, 99)(rng);
  const int pick = std::uniform_int_distribution<int>(0, 39)(rng);
  const Dn target = Dn::parse("cn=E" + std::to_string(pick) + ",o=xyz");
  const std::string dept = op % 2 == 0 ? "42" : "7";
  const auto apply = [&](server::DirectoryServer& master) {
    try {
      if (op < 30) {
        master.add(make_entry("cn=E" + std::to_string(pick) + ",o=xyz",
                              {{"objectclass", "person"}, {"dept", dept}}));
      } else if (op < 50) {
        master.remove(target);
      } else {
        master.modify(target, {{Modification::Op::Replace, "dept", {dept}}});
      }
    } catch (const ldap::OperationError&) {
      // Add of an existing key / remove of a missing one: identical noise
      // on both masters.
    }
  };
  apply(governed);
  apply(twin);
}

// The acceptance soak: 4 leaves against one governed master. Leaves 0 and 1
// poll every tick (healthy), leaf 2 polls 100x slower, leaf 3 never polls
// after its initial load. For all 10k ticks the governed master's history
// units and replay-cache bytes must stay under the configured budgets even
// though two consumers never drain their sessions.
TEST(ResyncOverload, FourLeafSlowConsumerSoakStaysWithinBudgets) {
  auto governed_master = make_master();
  auto twin_master = make_master();
  ReSyncMaster governed(*governed_master);
  ReSyncMaster twin(*twin_master);

  ResourceLimits limits;
  limits.max_sessions = 4;
  limits.max_session_history = 8;
  limits.max_total_history = 24;
  limits.max_replay_bytes = 2048;
  limits.max_page_entries = 4;
  limits.poll_deadline_ticks = 50;
  limits.journal_retention_records = 64;
  governed.set_resource_limits(limits);

  std::vector<std::unique_ptr<ReSyncReplica>> leaves;
  std::vector<std::unique_ptr<ReSyncReplica>> twins;
  for (int i = 0; i < 4; ++i) {
    leaves.push_back(std::make_unique<ReSyncReplica>(governed, kQuery));
    leaves.back()->set_auto_recover(true);
    leaves.back()->start(Mode::Poll);
    twins.push_back(std::make_unique<ReSyncReplica>(twin, kQuery));
    twins.back()->set_auto_recover(true);
    twins.back()->start(Mode::Poll);
  }

  std::mt19937 rng(0xF00D);
  for (std::uint64_t tick = 1; tick <= 10000; ++tick) {
    mutate_both(rng, *governed_master, *twin_master);
    governed.pump();
    twin.pump();
    governed.tick(1);
    twin.tick(1);

    for (int i = 0; i < 2; ++i) {  // healthy leaves: every tick
      leaves[static_cast<std::size_t>(i)]->poll();
      twins[static_cast<std::size_t>(i)]->poll();
    }
    if (tick % 100 == 0) {  // slow leaf: 100x the healthy cadence
      leaves[2]->poll();
      twins[2]->poll();
      ASSERT_EQ(leaves[2]->content().keys(), twins[2]->content().keys())
          << "slow leaf diverged from its twin at tick " << tick;
    }
    // leaves[3] never polls: its session idles until the governor evicts it.

    // The budget invariant of the whole exercise: a governed master's
    // footprint is bounded no matter what its consumers do.
    ASSERT_LE(governed.history_units(), limits.max_total_history)
        << "history budget exceeded at tick " << tick;
    ASSERT_LE(governed.replay_cache_bytes(),
              limits.max_replay_bytes * limits.max_sessions)
        << "replay budget exceeded at tick " << tick;
    ASSERT_LE(governed_master->journal().size(),
              limits.journal_retention_records);

    if (tick % 25 == 0) {
      ASSERT_EQ(leaves[0]->content().keys(), twins[0]->content().keys())
          << "healthy leaf diverged from its twin at tick " << tick;
      ASSERT_EQ(leaves[0]->content().keys(), master_truth(*governed_master));
    }
  }

  // The storm exercised every governor mechanism.
  const GovernorStats& stats = governed.governor_stats();
  EXPECT_GE(stats.sessions_evicted, 1u);   // the absent leaf (and the slow one)
  EXPECT_GE(stats.sessions_degraded, 1u);  // over-budget histories
  EXPECT_GT(stats.pages_served, 0u);       // bulk responses paged
  EXPECT_EQ(twin.governor_stats().sessions_evicted, 0u);

  // Evicted/degraded leaves recover to exact convergence on resume.
  leaves[2]->poll();
  leaves[3]->poll();
  twins[2]->poll();
  twins[3]->poll();
  EXPECT_GE(leaves[3]->recoveries(), 1u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(leaves[i]->content().keys(), twins[i]->content().keys())
        << "leaf " << i << " did not recover";
    EXPECT_EQ(leaves[i]->content().keys(), master_truth(*governed_master));
  }
}

struct OverloadSchedule {
  std::uint64_t seed;
  net::FaultConfig faults;
};

class ResyncOverloadChaos : public ::testing::TestWithParam<OverloadSchedule> {};

// Transport faults — including memory-pressure outage windows — on top of a
// fully governed master: after quiescence every replica matches the
// fault-free ungoverned twin exactly, whichever mix of busy rejections,
// degradations, evictions, paging and stripped replays the schedule hit.
TEST_P(ResyncOverloadChaos, GovernedMasterConvergesToTwinUnderFaults) {
  const OverloadSchedule schedule = GetParam();
  auto governed_master = make_master();
  auto twin_master = make_master();
  ReSyncMaster governed(*governed_master);
  ReSyncMaster twin(*twin_master);

  ResourceLimits limits;
  limits.max_sessions = 3;
  limits.max_session_history = 6;
  limits.max_total_history = 10;
  limits.max_replay_bytes = 512;
  limits.max_page_entries = 3;
  limits.poll_deadline_ticks = 40;
  limits.journal_retention_records = 32;
  governed.set_resource_limits(limits);

  net::RetryPolicy retry;
  retry.max_attempts = 5;
  retry.base_backoff_ticks = 1;
  retry.multiplier = 2.0;
  retry.max_backoff_ticks = 8;
  retry.jitter_seed = schedule.seed;

  std::vector<std::shared_ptr<net::FaultyPipe>> pipes;
  std::vector<std::unique_ptr<net::FramedChannel>> channels;
  std::vector<std::unique_ptr<ReSyncReplica>> replicas;
  std::vector<std::unique_ptr<ReSyncReplica>> twins;
  for (int i = 0; i < 2; ++i) {
    net::FaultConfig config = schedule.faults;
    config.seed = schedule.seed + static_cast<std::uint64_t>(i) * 7919;
    pipes.push_back(std::make_shared<net::FaultyPipe>(governed, config));
    channels.push_back(std::make_unique<net::FramedChannel>(pipes.back()));
    replicas.push_back(
        std::make_unique<ReSyncReplica>(*channels.back(), kQuery));
    replicas.back()->set_retry_policy(retry);
    replicas.back()->set_auto_recover(true);
    twins.push_back(std::make_unique<ReSyncReplica>(twin, kQuery));
    twins.back()->start(Mode::Poll);
  }
  // Starting under faults may exhaust the retry budget; keep trying — the
  // governed master admits the session as soon as an exchange gets through.
  for (auto& replica : replicas) {
    for (int attempt = 0; attempt < 50 && !replica->active(); ++attempt) {
      try {
        replica->start(Mode::Poll);
      } catch (const net::TransportError&) {
      } catch (const ldap::BusyError&) {
      }
    }
    ASSERT_TRUE(replica->active());
  }

  std::mt19937 rng(schedule.seed);
  for (int step = 0; step < 400; ++step) {
    mutate_both(rng, *governed_master, *twin_master);
    governed.pump();
    twin.pump();
    governed.tick(1);
    twin.tick(1);
    if (step % 3 != 0) continue;
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      try {
        replicas[i]->poll();
      } catch (const net::TransportError&) {
        // Down past the retry budget this round; heals on a later poll.
      } catch (const ldap::BusyError&) {
        // Auto-recovery hit the session cap; retried on a later poll.
      }
      twins[i]->poll();
    }
  }

  // Quiescence: faults off, links drained, one final catch-up round.
  for (auto& pipe : pipes) {
    net::FaultConfig calm;
    calm.seed = 1;
    pipe->set_config(calm);
    pipe->flush_replays();
  }
  governed.pump();
  twin.pump();
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    for (int attempt = 0; attempt < 50; ++attempt) {
      try {
        if (!replicas[i]->active()) replicas[i]->start(Mode::Poll);
        replicas[i]->poll();
        break;
      } catch (const net::TransportError&) {
      } catch (const ldap::BusyError&) {
      }
    }
    twins[i]->poll();
    EXPECT_EQ(replicas[i]->content().keys(), twins[i]->content().keys())
        << "replica " << i << " diverged from its twin";
    EXPECT_EQ(replicas[i]->content().keys(), master_truth(*governed_master));
  }

  // The schedule must actually have exercised the fault paths.
  std::uint64_t faults = 0;
  std::uint64_t outages = 0;
  for (const auto& pipe : pipes) {
    faults += pipe->counters().faults();
    outages += pipe->counters().outages;
  }
  EXPECT_GT(faults, 0u);
  if (schedule.faults.outage > 0.0) {
    EXPECT_GT(outages, 0u);
  }
}

net::FaultConfig lossy() {
  net::FaultConfig config;
  config.drop_request = 0.08;
  config.drop_response = 0.08;
  config.duplicate = 0.08;
  config.reorder = 0.3;
  config.reset = 0.04;
  return config;
}

net::FaultConfig pressured() {
  net::FaultConfig config = lossy();
  config.outage = 0.05;
  config.max_outage_ticks = 6;
  return config;
}

net::FaultConfig outage_only() {
  net::FaultConfig config;
  config.outage = 0.15;
  config.max_outage_ticks = 10;
  return config;
}

INSTANTIATE_TEST_SUITE_P(
    SeededSchedules, ResyncOverloadChaos,
    ::testing::Values(OverloadSchedule{101, lossy()},
                      OverloadSchedule{202, pressured()},
                      OverloadSchedule{303, outage_only()},
                      OverloadSchedule{404, pressured()}));

std::shared_ptr<server::DirectoryServer> make_shared_master() {
  auto master = std::make_shared<server::DirectoryServer>("ldap://master");
  server::NamingContext context;
  context.suffix = Dn::parse("o=xyz");
  master->add_context(std::move(context));
  master->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  for (int i = 0; i < 20; ++i) {
    master->load(make_entry("cn=E" + std::to_string(i) + ",o=xyz",
                            {{"objectclass", "person"},
                             {"dept", i % 2 == 0 ? "42" : "7"}}));
  }
  return master;
}

// Relay budgets in a cascade: the relay's downstream-facing master degrades
// its leaf's over-budget session to eq.(3) and pages the enumeration; the
// leaf (a RelayNode client) drains the pages and converges. The per-hop
// budget view surfaces through NodeHealth.
TEST(TopologyOverload, RelayBudgetsDegradeAndPageDownstreamSessions) {
  auto master = make_shared_master();
  topology::TopologyRuntime::Options options;
  options.relay_limits.max_session_history = 2;
  options.relay_limits.max_page_entries = 3;
  topology::TopologyRuntime runtime(master, options);
  runtime.add_node("relay", "", {kQuery});
  runtime.add_node("leaf", "relay", {kQuery});
  ASSERT_TRUE(runtime.install());

  // The initial leaf load already overflows the relay's page size.
  EXPECT_GT(runtime.node("leaf").upstream_total().paged_polls, 0u);

  // A burst beyond the relay's per-session budget: the leaf's session at
  // the relay degrades; the next leaf poll converges via paged eq.(3).
  for (int i = 0; i < 8; ++i) {
    master->modify(Dn::parse("cn=E" + std::to_string(i * 2) + ",o=xyz"),
                   {{Modification::Op::Replace, "title",
                     {"t" + std::to_string(i)}}});
  }
  runtime.run(3);

  const resync::GovernorStats& relay_stats =
      runtime.node("relay").downstream_master().governor_stats();
  EXPECT_GE(relay_stats.sessions_degraded, 1u);
  EXPECT_GT(relay_stats.pages_served, 0u);
  EXPECT_GT(runtime.node("leaf").upstream_total().degraded_polls, 0u);

  std::vector<std::string> leaf_keys;
  for (const ldap::EntryPtr& entry :
       runtime.node("leaf").mirror().evaluate(kQuery)) {
    leaf_keys.push_back(entry->dn().norm_key());
  }
  std::sort(leaf_keys.begin(), leaf_keys.end());
  std::vector<std::string> want = master_truth(*master);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(leaf_keys, want);

  for (const topology::NodeHealth& health : runtime.health()) {
    if (health.name != "relay") continue;
    EXPECT_LE(health.history_units, options.relay_limits.max_session_history);
    EXPECT_EQ(health.busy_rejections, 0u);
    EXPECT_EQ(health.evicted_sessions, 0u);
  }
}

// Admission control across a hop: a root at its session cap bounces a
// node's initial request with busy; the node stays degraded (serving its
// stale mirror) and heals once capacity returns.
TEST(TopologyOverload, BusyRootBouncesInstallAndNodeHealsOnCapacity) {
  auto master = make_shared_master();
  topology::TopologyRuntime runtime(master, {});
  resync::ResourceLimits root_limits;
  root_limits.max_sessions = 1;
  runtime.root_master().set_resource_limits(root_limits);

  const Query other = Query::parse("o=xyz", Scope::Subtree, "(dept=7)");
  runtime.add_node("a", "", {kQuery});
  runtime.add_node("b", "", {other});
  EXPECT_FALSE(runtime.install());  // node b bounced at the session cap
  EXPECT_TRUE(runtime.node("b").upstream_total().degraded);
  EXPECT_GE(runtime.node("b").upstream_total().busy_rejections, 1u);

  // Capacity returns: the degraded node's next sync round refetches.
  runtime.root_master().set_resource_limits({});
  runtime.run(2);
  EXPECT_FALSE(runtime.node("b").upstream_total().degraded);
  std::vector<std::string> b_keys;
  for (const ldap::EntryPtr& entry :
       runtime.node("b").mirror().evaluate(other)) {
    b_keys.push_back(entry->dn().norm_key());
  }
  std::sort(b_keys.begin(), b_keys.end());
  sync::ContentTracker tracker(other);
  tracker.initialize(master->dit());
  std::vector<std::string> want = tracker.content_keys();
  std::sort(want.begin(), want.end());
  EXPECT_EQ(b_keys, want);

  for (const topology::NodeHealth& health : runtime.health()) {
    if (health.name == "b") {
      EXPECT_GE(health.upstream_busy, 1u);
    }
  }
}

}  // namespace
}  // namespace fbdr::resync
