// Journal compaction equivalence: a master whose change journal keeps only
// an aggressive retention window must still converge every replica to the
// exact content an uncompacted twin reaches — the sessions re-anchor on the
// DIT (ReSyncMaster::pump rebases across the gap) instead of replaying
// trimmed records, and the subtree baseline falls back to a full reload.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "core/replication_service.h"
#include "ldap/error.h"
#include "resync/replica_client.h"
#include "server/directory_server.h"
#include "subtree_model.h"
#include "sync/content_tracker.h"

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
  for (int i = 0; i < 12; ++i) {
    master->load(make_entry("cn=E" + std::to_string(i) + ",o=xyz",
                            {{"objectclass", "person"},
                             {"dept", i % 2 == 0 ? "42" : "7"}}));
  }
  return master;
}

const Query kQuery = Query::parse("o=xyz", Scope::Subtree, "(dept=42)");

std::vector<std::string> master_truth(const server::DirectoryServer& master,
                                      const Query& query = kQuery) {
  sync::ContentTracker tracker(query);
  tracker.initialize(master.dit());
  return tracker.content_keys();
}

/// One random op applied identically to both masters (compacted world and
/// uncompacted twin), so their histories stay in lockstep.
void mutate_both(std::mt19937& rng, int& next_cn,
                 server::DirectoryServer& compacted,
                 server::DirectoryServer& twin) {
  const int op = std::uniform_int_distribution<int>(0, 99)(rng);
  const int pick = std::uniform_int_distribution<int>(0, 40)(rng);
  const Dn target = Dn::parse("cn=E" + std::to_string(pick) + ",o=xyz");
  const std::string dept = op % 2 == 0 ? "42" : "7";
  const auto apply = [&](server::DirectoryServer& master) {
    try {
      if (op < 30) {
        master.add(make_entry("cn=E" + std::to_string(next_cn) + ",o=xyz",
                              {{"objectclass", "person"}, {"dept", dept}}));
      } else if (op < 55) {
        master.remove(target);
      } else if (op < 90) {
        master.modify(target, {{Modification::Op::Replace, "dept", {dept}}});
      } else {
        master.modify_dn(target, Dn::parse("cn=R" + std::to_string(next_cn) +
                                           ",o=xyz"));
      }
    } catch (const ldap::OperationError&) {
      // Missing random target: identical noise on both masters.
    }
  };
  apply(compacted);
  apply(twin);
  ++next_cn;
}

struct CompactionSchedule {
  std::uint64_t seed;
  std::size_t retention;   // records kept by the compacted master
  int ops_per_round;       // journal appends between polls (>> retention)
};

// gtest prints parameters into the test listing; without this it would
// dump the struct's raw bytes, uninitialised padding included.
void PrintTo(const CompactionSchedule& s, std::ostream* os) {
  *os << "seed" << s.seed << "_retention" << s.retention << "_ops"
      << s.ops_per_round;
}

class SyncCompaction : public ::testing::TestWithParam<CompactionSchedule> {};

TEST_P(SyncCompaction, ConvergesExactlyLikeTheUncompactedTwin) {
  const CompactionSchedule schedule = GetParam();
  auto compacted_master = make_master();
  auto twin_master = make_master();
  ReSyncMaster compacted(*compacted_master);
  ReSyncMaster twin(*twin_master);
  ResourceLimits limits;
  limits.journal_retention_records = schedule.retention;
  compacted.set_resource_limits(limits);

  ReSyncReplica compacted_replica(compacted, kQuery);
  ReSyncReplica twin_replica(twin, kQuery);
  compacted_replica.start(Mode::Poll);
  twin_replica.start(Mode::Poll);

  std::mt19937 rng(schedule.seed);
  int next_cn = 100;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < schedule.ops_per_round; ++i) {
      mutate_both(rng, next_cn, *compacted_master, *twin_master);
    }
    compacted.pump();
    twin.pump();
    compacted_replica.poll();
    twin_replica.poll();
    ASSERT_EQ(compacted_replica.content().keys(),
              twin_replica.content().keys())
        << "compaction divergence at round " << round;
    ASSERT_EQ(compacted_replica.content().keys(),
              master_truth(*compacted_master))
        << "truth divergence at round " << round;
    EXPECT_LE(compacted_master->journal().size(), schedule.retention);
  }
  // The schedules are built so the window is always outrun between pumps:
  // convergence above must have come through the rebase path, not replay.
  EXPECT_GT(compacted.governor_stats().compaction_rebases, 0u);
  EXPECT_EQ(twin.governor_stats().compaction_rebases, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeededSchedules, SyncCompaction,
    ::testing::Values(CompactionSchedule{20240801, 3, 9},
                      CompactionSchedule{777, 5, 17},
                      CompactionSchedule{31337, 1, 6}));

// A replica that polls only after every record of its window was compacted
// away: the rebase must synthesize the net effect of the whole gap —
// including deletes of entries the replica still holds — through the normal
// history path (or the eq.(3) retains once budgets also kick in).
TEST(SyncCompactionGap, ReplicaPollingAfterItsWindowCompactedHeals) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  ResourceLimits limits;
  limits.journal_retention_records = 4;
  resync.set_resource_limits(limits);

  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);

  // 20 changes, no pump in between: the journal keeps only the last 4.
  master->remove(Dn::parse("cn=E0,o=xyz"));
  master->remove(Dn::parse("cn=E2,o=xyz"));
  master->modify(Dn::parse("cn=E4,o=xyz"),
                 {{Modification::Op::Replace, "title", {"kept"}}});
  for (int i = 0; i < 17; ++i) {
    master->add(make_entry("cn=N" + std::to_string(i) + ",o=xyz",
                           {{"objectclass", "person"},
                            {"dept", i % 2 == 0 ? "42" : "7"}}));
  }
  ASSERT_EQ(master->journal().size(), 4u);
  ASSERT_GT(master->journal().trimmed_up_to(), 0u);

  resync.pump();  // gap detected: sessions rebase from the DIT
  EXPECT_EQ(resync.governor_stats().compaction_rebases, 1u);

  replica.poll();
  EXPECT_EQ(replica.content().keys(), master_truth(*master));
  EXPECT_EQ(replica.content().find(Dn::parse("cn=E0,o=xyz")), nullptr);
  const ldap::EntryPtr kept = replica.content().find(Dn::parse("cn=E4,o=xyz"));
  ASSERT_NE(kept, nullptr);
  EXPECT_TRUE(kept->has_attribute("title"));
}

// Compaction and history budgets together: the rebase's synthesized events
// run through the same enforcement as pumped records, so an over-budget
// rebase degrades the session and the next poll converges via eq.(3).
TEST(SyncCompactionGap, RebaseRespectsHistoryBudgets) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  ResourceLimits limits;
  limits.journal_retention_records = 2;
  limits.max_session_history = 3;
  resync.set_resource_limits(limits);

  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);

  for (int i = 0; i < 12; ++i) {
    master->add(make_entry("cn=N" + std::to_string(i) + ",o=xyz",
                           {{"objectclass", "person"}, {"dept", "42"}}));
  }
  resync.pump();
  EXPECT_GE(resync.governor_stats().compaction_rebases, 1u);
  EXPECT_EQ(resync.degraded_sessions(), 1u);
  EXPECT_LE(resync.history_units(), 3u);

  replica.poll();
  EXPECT_EQ(replica.degraded_polls(), 1u);
  EXPECT_EQ(replica.content().keys(), master_truth(*master));
}

// The subtree baseline has no per-session history: a gap in the journal
// forces a full reload, after which the replica again mirrors the context.
TEST(SyncCompactionGap, SubtreeServiceReloadsAcrossTheGap) {
  auto master = std::make_shared<server::DirectoryServer>("ldap://master");
  server::NamingContext context;
  context.suffix = Dn::parse("o=xyz");
  master->add_context(std::move(context));
  master->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  for (int i = 0; i < 6; ++i) {
    master->load(make_entry("cn=E" + std::to_string(i) + ",o=xyz",
                            {{"objectclass", "person"}}));
  }
  master->journal().set_retention(2);

  core::SubtreeReplicationService service(master);
  service.add_context({Dn::parse("o=xyz"), {}});
  service.load();

  master->remove(Dn::parse("cn=E0,o=xyz"));
  for (int i = 6; i < 14; ++i) {
    master->add(make_entry("cn=E" + std::to_string(i) + ",o=xyz",
                           {{"objectclass", "person"}}));
  }
  ASSERT_GT(master->journal().trimmed_up_to(), 0u);

  service.sync();  // gap: full reload instead of replaying trimmed records
  std::vector<std::string> have;
  for (const ldap::EntryPtr& entry : service.entries()) {
    have.push_back(entry->dn().norm_key());
  }
  std::sort(have.begin(), have.end());
  const Query all = Query::parse("o=xyz", Scope::Subtree, "(objectclass=*)");
  std::vector<std::string> want = master_truth(*master, all);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(have, want);
}

}  // namespace
}  // namespace fbdr::resync
