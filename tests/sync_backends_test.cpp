// Unit and property tests for the synchronization back-ends (§5.2): the
// session-history (ReSync), tombstone, changelog and full-reload strategies
// must all converge the replica content to the master content; their traffic
// must be ordered as the paper argues (session history minimal; tombstones
// and changelogs ship every deleted DN).

#include <gtest/gtest.h>

#include <ostream>
#include <random>

#include "ldap/error.h"

#include "server/directory_server.h"
#include "sync/replica_content.h"
#include "sync_backends.h"

namespace fbdr::sync {
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
  for (int i = 0; i < 10; ++i) {
    const std::string name = "cn=P" + std::to_string(i) + ",o=xyz";
    const std::string dept = i % 2 == 0 ? "2406" : "2407";
    master->load(make_entry(name, {{"objectclass", "person"}, {"dept", dept}}));
  }
  return master;
}

const char* kFilter = "(dept=2406)";

/// Pumps every journal record into a backend (the core ReplicationManager
/// normally does this).
void pump(SyncBackend& backend, const server::DirectoryServer& master,
          std::uint64_t& seq) {
  for (const server::ChangeRecord* record : master.journal().since(seq)) {
    backend.on_change(*record);
    seq = record->seq;
  }
}

TEST(SessionHistoryBackend, InitialSendsFullContent) {
  auto master = make_master();
  SessionHistoryBackend backend(master->dit());
  const std::size_t id =
      backend.register_query(Query::parse("o=xyz", Scope::Subtree, kFilter));
  const UpdateBatch batch = backend.initial(id);
  EXPECT_TRUE(batch.full_reload);
  EXPECT_EQ(batch.adds.size(), 5u);  // P0, P2, P4, P6, P8
  EXPECT_EQ(batch.entries_sent(), 5u);
  EXPECT_EQ(batch.dns_sent(), 0u);
}

TEST(SessionHistoryBackend, PollSendsMinimalDelta) {
  auto master = make_master();
  SessionHistoryBackend backend(master->dit());
  const std::size_t id =
      backend.register_query(Query::parse("o=xyz", Scope::Subtree, kFilter));
  ReplicaContent replica;
  replica.apply(backend.initial(id));
  std::uint64_t seq = master->journal().last_seq();

  master->add(make_entry("cn=New,o=xyz", {{"objectclass", "person"}, {"dept", "2406"}}));
  master->remove(Dn::parse("cn=P0,o=xyz"));
  master->modify(Dn::parse("cn=P2,o=xyz"),
                 {{Modification::Op::AddValues, "mail", {"p2@x.com"}}});
  // Out-of-content noise must produce no traffic.
  master->modify(Dn::parse("cn=P1,o=xyz"),
                 {{Modification::Op::AddValues, "mail", {"p1@x.com"}}});
  pump(backend, *master, seq);

  const UpdateBatch batch = backend.poll(id);
  EXPECT_EQ(batch.adds.size(), 1u);
  EXPECT_EQ(batch.mods.size(), 1u);
  EXPECT_EQ(batch.deletes.size(), 1u);
  EXPECT_TRUE(batch.retains.empty());

  replica.apply(batch);
  EXPECT_EQ(replica.keys(), backend.tracker(id).content_keys());
}

TEST(SessionHistoryBackend, EnterAndLeaveBetweenPollsSendsNothing) {
  auto master = make_master();
  SessionHistoryBackend backend(master->dit());
  const std::size_t id =
      backend.register_query(Query::parse("o=xyz", Scope::Subtree, kFilter));
  backend.initial(id);
  std::uint64_t seq = master->journal().last_seq();

  master->add(make_entry("cn=Flash,o=xyz", {{"objectclass", "person"}, {"dept", "2406"}}));
  master->remove(Dn::parse("cn=Flash,o=xyz"));
  pump(backend, *master, seq);
  const UpdateBatch batch = backend.poll(id);
  EXPECT_TRUE(batch.empty());
}

TEST(SessionHistoryBackend, LeaveAndReenterIsSingleMod) {
  auto master = make_master();
  SessionHistoryBackend backend(master->dit());
  const std::size_t id =
      backend.register_query(Query::parse("o=xyz", Scope::Subtree, kFilter));
  backend.initial(id);
  std::uint64_t seq = master->journal().last_seq();

  master->modify(Dn::parse("cn=P0,o=xyz"),
                 {{Modification::Op::Replace, "dept", {"1111"}}});
  master->modify(Dn::parse("cn=P0,o=xyz"),
                 {{Modification::Op::Replace, "dept", {"2406"}}});
  pump(backend, *master, seq);
  const UpdateBatch batch = backend.poll(id);
  EXPECT_TRUE(batch.adds.empty());
  EXPECT_EQ(batch.mods.size(), 1u);
  EXPECT_TRUE(batch.deletes.empty());
}

TEST(SessionHistoryBackend, UnregisterStopsTracking) {
  auto master = make_master();
  SessionHistoryBackend backend(master->dit());
  const std::size_t id =
      backend.register_query(Query::parse("o=xyz", Scope::Subtree, kFilter));
  backend.initial(id);
  backend.unregister_query(id);
  std::uint64_t seq = master->journal().last_seq();
  master->remove(Dn::parse("cn=P0,o=xyz"));
  pump(backend, *master, seq);
  EXPECT_EQ(backend.pending_events(), 0u);
  EXPECT_THROW(backend.poll(id), ldap::ProtocolError);
}

TEST(TombstoneBackend, ShipsEveryDeletedDn) {
  auto master = make_master();
  TombstoneBackend backend(*master);
  const std::size_t id =
      backend.register_query(Query::parse("o=xyz", Scope::Subtree, kFilter));
  ReplicaContent replica;
  replica.apply(backend.initial(id));

  // Delete one in-content and one out-of-content entry: tombstones carry no
  // attributes, so both DNs are shipped.
  master->remove(Dn::parse("cn=P0,o=xyz"));  // dept=2406, in content
  master->remove(Dn::parse("cn=P1,o=xyz"));  // dept=2407, never in content
  const UpdateBatch batch = backend.poll(id);
  EXPECT_EQ(batch.deletes.size(), 2u);

  replica.apply(batch);
  ContentTracker truth(Query::parse("o=xyz", Scope::Subtree, kFilter));
  truth.initialize(master->dit());
  EXPECT_EQ(replica.keys(), truth.content_keys());
}

TEST(ChangelogBackend, ModifyThenDeleteStillShipsDelete) {
  // §5.2: "If an entry is first modified out of the content and then
  // deleted, change logs are not sufficient to determine whether the entry
  // moved out of the content."
  auto master = make_master();
  ChangelogBackend backend(*master);
  const std::size_t id =
      backend.register_query(Query::parse("o=xyz", Scope::Subtree, kFilter));
  ReplicaContent replica;
  replica.apply(backend.initial(id));

  master->modify(Dn::parse("cn=P0,o=xyz"),
                 {{Modification::Op::Replace, "dept", {"1111"}}});
  master->remove(Dn::parse("cn=P0,o=xyz"));
  const UpdateBatch batch = backend.poll(id);
  ASSERT_EQ(batch.deletes.size(), 1u);
  EXPECT_EQ(batch.deletes[0], Dn::parse("cn=P0,o=xyz"));

  replica.apply(batch);
  ContentTracker truth(Query::parse("o=xyz", Scope::Subtree, kFilter));
  truth.initialize(master->dit());
  EXPECT_EQ(replica.keys(), truth.content_keys());
}

TEST(ChangelogBackend, NonFilterModifyOfOutsideEntryShipsNothing) {
  auto master = make_master();
  ChangelogBackend backend(*master);
  const std::size_t id =
      backend.register_query(Query::parse("o=xyz", Scope::Subtree, kFilter));
  backend.initial(id);
  // P1 is outside the content; mail is not a filter attribute.
  master->modify(Dn::parse("cn=P1,o=xyz"),
                 {{Modification::Op::AddValues, "mail", {"p1@x.com"}}});
  EXPECT_TRUE(backend.poll(id).empty());
}

TEST(TombstoneBackend, NonFilterModifyOfOutsideEntryShipsConservativeDelete) {
  // Tombstone sync only sees "entry changed" (modifyTimestamp); it cannot
  // know whether the change affected membership, so it ships a conservative
  // delete — the extra traffic the changelog avoids.
  auto master = make_master();
  TombstoneBackend backend(*master);
  const std::size_t id =
      backend.register_query(Query::parse("o=xyz", Scope::Subtree, kFilter));
  backend.initial(id);
  master->modify(Dn::parse("cn=P1,o=xyz"),
                 {{Modification::Op::AddValues, "mail", {"p1@x.com"}}});
  const UpdateBatch batch = backend.poll(id);
  EXPECT_EQ(batch.deletes.size(), 1u);
}

TEST(FullReloadBackend, EveryPollShipsWholeContent) {
  auto master = make_master();
  FullReloadBackend backend(*master);
  const std::size_t id =
      backend.register_query(Query::parse("o=xyz", Scope::Subtree, kFilter));
  EXPECT_EQ(backend.poll(id).adds.size(), 5u);
  EXPECT_EQ(backend.poll(id).adds.size(), 5u);  // again, unchanged master
  master->remove(Dn::parse("cn=P0,o=xyz"));
  const UpdateBatch batch = backend.poll(id);
  EXPECT_TRUE(batch.full_reload);
  EXPECT_EQ(batch.adds.size(), 4u);
}

// ---------------------------------------------------------------------------
// Convergence property: all back-ends, random update streams, interleaved
// polls. TEST_P over the back-end factory.
// ---------------------------------------------------------------------------

struct BackendCase {
  const char* name;
  std::function<std::unique_ptr<SyncBackend>(server::DirectoryServer&)> make;
};

// gtest prints parameters into the test listing; without this it would
// dump the raw bytes of the name pointer and the std::function.
void PrintTo(const BackendCase& c, std::ostream* os) { *os << c.name; }

class BackendConvergence : public ::testing::TestWithParam<BackendCase> {};

TEST_P(BackendConvergence, RandomStreamsConverge) {
  std::mt19937 rng(20050100);
  for (int round = 0; round < 8; ++round) {
    auto master = make_master();
    auto backend = GetParam().make(*master);
    const Query query = Query::parse("o=xyz", Scope::Subtree, kFilter);
    const std::size_t id = backend->register_query(query);
    ReplicaContent replica;
    replica.apply(backend->initial(id));
    std::uint64_t seq = master->journal().last_seq();

    std::uniform_int_distribution<int> op_dist(0, 99);
    std::uniform_int_distribution<int> idx_dist(0, 199);
    int next_id = 100;
    for (int step = 0; step < 120; ++step) {
      const int op = op_dist(rng);
      const std::string target =
          "cn=P" + std::to_string(idx_dist(rng) % next_id) + ",o=xyz";
      const Dn dn = Dn::parse(target);
      try {
        if (op < 30) {
          const std::string dept = op % 2 == 0 ? "2406" : "2407";
          master->add(make_entry("cn=P" + std::to_string(next_id++) + ",o=xyz",
                                 {{"objectclass", "person"}, {"dept", dept}}));
        } else if (op < 55) {
          master->remove(dn);
        } else if (op < 85) {
          const std::string dept = op % 3 == 0 ? "2406" : "2407";
          master->modify(dn, {{Modification::Op::Replace, "dept", {dept}}});
        } else {
          master->modify_dn(
              dn, Dn::parse("cn=R" + std::to_string(next_id++) + ",o=xyz"));
        }
      } catch (const ldap::OperationError&) {
        // Random target may be missing; that is part of the stream.
      }
      if (step % 17 == 0) {
        pump(*backend, *master, seq);
        replica.apply(backend->poll(id));
      }
    }
    pump(*backend, *master, seq);
    replica.apply(backend->poll(id));

    ContentTracker truth(query);
    truth.initialize(master->dit());
    EXPECT_EQ(replica.keys(), truth.content_keys())
        << GetParam().name << " diverged in round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConvergence,
    ::testing::Values(
        BackendCase{"session-history",
                    [](server::DirectoryServer& m) -> std::unique_ptr<SyncBackend> {
                      return std::make_unique<SessionHistoryBackend>(m.dit());
                    }},
        BackendCase{"tombstone",
                    [](server::DirectoryServer& m) -> std::unique_ptr<SyncBackend> {
                      return std::make_unique<TombstoneBackend>(m);
                    }},
        BackendCase{"changelog",
                    [](server::DirectoryServer& m) -> std::unique_ptr<SyncBackend> {
                      return std::make_unique<ChangelogBackend>(m);
                    }},
        BackendCase{"full-reload",
                    [](server::DirectoryServer& m) -> std::unique_ptr<SyncBackend> {
                      return std::make_unique<FullReloadBackend>(m);
                    }}),
    [](const ::testing::TestParamInfo<BackendCase>& param_info) {
      std::string name = param_info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(BackendTrafficOrdering, SessionHistoryShipsFewestDeletes) {
  // One shared update stream; compare delete traffic across back-ends.
  auto master = make_master();
  SessionHistoryBackend session(master->dit());
  TombstoneBackend tombstone(*master);
  ChangelogBackend changelog(*master);
  const Query query = Query::parse("o=xyz", Scope::Subtree, kFilter);
  const auto sid = session.register_query(query);
  const auto tid = tombstone.register_query(query);
  const auto cid = changelog.register_query(query);
  session.initial(sid);
  tombstone.initial(tid);
  changelog.initial(cid);
  std::uint64_t seq = master->journal().last_seq();

  // Delete every odd entry (never in content) and P0 (in content).
  for (int i = 1; i < 10; i += 2) {
    master->remove(Dn::parse("cn=P" + std::to_string(i) + ",o=xyz"));
  }
  master->remove(Dn::parse("cn=P0,o=xyz"));
  pump(session, *master, seq);

  const UpdateBatch s = session.poll(sid);
  const UpdateBatch t = tombstone.poll(tid);
  const UpdateBatch c = changelog.poll(cid);
  EXPECT_EQ(s.deletes.size(), 1u);  // only the in-content delete
  EXPECT_EQ(t.deletes.size(), 6u);  // every deleted DN
  EXPECT_EQ(c.deletes.size(), 6u);  // every deleted DN
}

}  // namespace
}  // namespace fbdr::sync
