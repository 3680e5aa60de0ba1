// Reconciliation-based recovery (DESIGN.md §12): a replica that lost its
// session offers per-bucket digests of its local content instead of
// accepting a full reload, and the master answers in_sync / a bucket walk /
// a fallback reload. Covered here: O(diff) shipping for adds, mods and
// deletes, the divergence-threshold and walk-cap fallbacks, version gating
// against a master that does not speak reconciliation, replay-safe round-2
// cookies, governed admission of walks, paged diffs, seeded chaos against a
// fault-free twin, and the relay cascade (a reconcile heal journals a diff
// and does NOT bump the relay epoch, so descendants ride through).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ldap/error.h"
#include "net/channel.h"
#include "resync/master.h"
#include "resync/replica_client.h"
#include "server/directory_server.h"
#include "sync/content_digest.h"
#include "sync/content_tracker.h"
#include "topology/relay_node.h"
#include "topology/runtime.h"

namespace fbdr::resync {
namespace {

using ldap::Dn;
using ldap::make_entry;
using ldap::Query;
using ldap::Scope;
using server::Modification;

std::unique_ptr<server::DirectoryServer> make_master(int employees = 8) {
  auto master = std::make_unique<server::DirectoryServer>("ldap://master");
  server::NamingContext context;
  context.suffix = Dn::parse("o=xyz");
  master->add_context(std::move(context));
  master->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  for (int i = 0; i < employees; ++i) {
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

// Round 1 of a hand-driven walk: the root and bucket digests of a digest
// tree over the content snapshot, as a recovering client builds them.
std::shared_ptr<ReconcileRequest> round1_offer(
    const sync::ReplicaContent& content) {
  sync::ContentDigest digest;
  for (const ldap::EntryPtr& entry : content.entries()) {
    digest.upsert(entry->dn().norm_key(), *entry);
  }
  auto offer = std::make_shared<ReconcileRequest>();
  offer->root_digest = digest.root();
  offer->entry_count = digest.entry_count();
  offer->buckets = digest.bucket_digests();
  return offer;
}

// Round 2 of a hand-driven walk: fingerprints of the snapshot's entries in
// the buckets the master flagged.
std::vector<sync::EntryFingerprint> fingerprints_for(
    const sync::ReplicaContent& content,
    const std::vector<std::uint32_t>& buckets) {
  const std::set<std::uint32_t> wanted(buckets.begin(), buckets.end());
  std::vector<sync::EntryFingerprint> out;
  for (const ldap::EntryPtr& entry : content.entries()) {
    if (wanted.count(sync::ContentDigest::bucket_of(entry->dn().norm_key())) ==
        0) {
      continue;
    }
    out.push_back({entry->dn(), sync::ContentDigest::hash_entry(*entry)});
  }
  return out;
}

// Starts an auto-recovering replica and expires its session at the master.
struct Recovering {
  std::unique_ptr<server::DirectoryServer> master;
  std::unique_ptr<ReSyncMaster> resync;
  std::unique_ptr<ReSyncReplica> replica;
};

Recovering make_recovering(int employees = 8) {
  Recovering world;
  world.master = make_master(employees);
  world.resync = std::make_unique<ReSyncMaster>(*world.master);
  world.resync->set_session_time_limit(5);
  world.replica = std::make_unique<ReSyncReplica>(*world.resync, kQuery);
  world.replica->set_auto_recover(true);
  world.replica->start(Mode::Poll);
  return world;
}

TEST(ReSyncReconcile, InSyncRecoveryShipsNothing) {
  Recovering world = make_recovering();
  const auto after_start = world.resync->traffic().entries;

  world.resync->tick(10);  // expire; nothing changed meanwhile
  world.replica->poll();

  EXPECT_EQ(world.replica->recoveries(), 1u);
  EXPECT_EQ(world.replica->reconciles(), 1u);
  EXPECT_EQ(world.replica->full_reloads(), 0u);
  EXPECT_EQ(world.replica->reconcile_entries_shipped(), 0u);
  // No entry re-shipped at all — the whole point of the digest walk.
  EXPECT_EQ(world.resync->traffic().entries, after_start);
  EXPECT_EQ(world.replica->content().keys(), master_truth(*world.master));
  EXPECT_EQ(world.resync->governor_stats().reconciles_completed, 1u);

  // The promoted session is live: later changes flow as ordinary deltas.
  world.master->add(make_entry("cn=E8,o=xyz",
                               {{"objectclass", "person"}, {"dept", "42"}}));
  world.resync->pump();
  world.replica->poll();
  EXPECT_EQ(world.replica->recoveries(), 1u);
  EXPECT_EQ(world.replica->content().keys(), master_truth(*world.master));
}

TEST(ReSyncReconcile, DivergedRecoveryShipsOnlyTheDiff) {
  Recovering world = make_recovering();

  world.resync->tick(10);  // session gone; these changes are never journaled
  world.master->add(make_entry("cn=E8,o=xyz",
                               {{"objectclass", "person"}, {"dept", "42"}}));
  world.master->modify(Dn::parse("cn=E2,o=xyz"),
                       {{Modification::Op::Replace, "title", {"chief"}}});

  world.replica->poll();
  EXPECT_EQ(world.replica->recoveries(), 1u);
  EXPECT_EQ(world.replica->reconciles(), 1u);
  EXPECT_EQ(world.replica->full_reloads(), 0u);
  // Exactly the two divergent entries ship, not the five-entry content.
  EXPECT_EQ(world.replica->reconcile_entries_shipped(), 2u);
  EXPECT_EQ(world.resync->governor_stats().reconcile_entries_shipped, 2u);
  EXPECT_EQ(world.replica->content().keys(), master_truth(*world.master));
  EXPECT_TRUE(world.replica->content()
                  .find(Dn::parse("cn=E2,o=xyz"))
                  ->has_value("title", "chief"));
}

TEST(ReSyncReconcile, DeletesReconcileFromFingerprints) {
  Recovering world = make_recovering();
  ASSERT_TRUE(world.replica->content().contains(Dn::parse("cn=E4,o=xyz")));

  world.resync->tick(10);
  world.master->remove(Dn::parse("cn=E4,o=xyz"));

  world.replica->poll();
  EXPECT_EQ(world.replica->reconciles(), 1u);
  // The master holds nothing in E4's bucket; the delete is synthesized from
  // the replica's round-2 fingerprint alone.
  EXPECT_EQ(world.replica->reconcile_entries_shipped(), 1u);
  EXPECT_FALSE(world.replica->content().contains(Dn::parse("cn=E4,o=xyz")));
  EXPECT_EQ(world.replica->content().keys(), master_truth(*world.master));
}

// start() over content held from an ended session walks instead of
// reloading, and the walk's round 2 carries the persist mode: the promoted
// session is pushed to.
TEST(ReSyncReconcile, PersistRestartWalksAndStaysPersist) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  NotificationRouter router;
  router.attach(resync);
  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);
  replica.sync_end();
  master->modify(Dn::parse("cn=E2,o=xyz"),
                 {{Modification::Op::Replace, "title", {"chief"}}});

  replica.start(Mode::Persist);
  router.subscribe(replica);
  EXPECT_EQ(resync.governor_stats().reconciles_completed, 1u);
  EXPECT_EQ(resync.governor_stats().reconcile_entries_shipped, 1u);
  EXPECT_EQ(resync.open_connections(), 1u);
  EXPECT_EQ(replica.content().keys(), master_truth(*master));

  master->add(make_entry("cn=E8,o=xyz",
                         {{"objectclass", "person"}, {"dept", "42"}}));
  resync.pump();
  EXPECT_EQ(replica.content().keys(), master_truth(*master));
}

TEST(ReSyncReconcile, HighDivergenceFallsBackToFullReload) {
  Recovering world = make_recovering();
  world.resync->set_reconcile_fallback_fraction(0.25);

  world.resync->tick(10);
  // Rewrite more than a quarter of the content while the session is gone.
  for (int i = 0; i < 8; i += 2) {
    world.master->modify(Dn::parse("cn=E" + std::to_string(i) + ",o=xyz"),
                         {{Modification::Op::Replace, "title", {"rewritten"}}});
  }

  world.replica->poll();
  EXPECT_EQ(world.replica->recoveries(), 1u);
  EXPECT_EQ(world.replica->full_reloads(), 1u);
  EXPECT_EQ(world.replica->reconcile_fallbacks(), 1u);
  EXPECT_EQ(world.replica->reconciles(), 0u);
  EXPECT_EQ(world.resync->governor_stats().reconcile_fallbacks, 1u);
  EXPECT_EQ(world.replica->content().keys(), master_truth(*world.master));

  // The fallback session is an ordinary live session afterwards.
  world.master->remove(Dn::parse("cn=E0,o=xyz"));
  world.resync->pump();
  world.replica->poll();
  EXPECT_EQ(world.replica->content().keys(), master_truth(*world.master));
}

TEST(ReSyncReconcile, VersionGatedAgainstAMasterWithoutReconciliation) {
  Recovering world = make_recovering();
  // An old master: the reconcile offer is ignored, a plain full reload comes
  // back with no reconcile field, and the client must notice and adopt it.
  world.resync->set_reconcile_enabled(false);

  world.resync->tick(10);
  world.master->add(make_entry("cn=E8,o=xyz",
                               {{"objectclass", "person"}, {"dept", "42"}}));

  world.replica->poll();
  EXPECT_EQ(world.replica->recoveries(), 1u);
  EXPECT_EQ(world.replica->full_reloads(), 1u);
  EXPECT_EQ(world.replica->reconciles(), 0u);
  EXPECT_EQ(world.replica->reconcile_fallbacks(), 0u);
  EXPECT_EQ(world.resync->governor_stats().reconcile_walks, 0u);
  EXPECT_EQ(world.replica->content().keys(), master_truth(*world.master));
}

TEST(ReSyncReconcile, RecoveriesAlwaysSplitIntoReloadsPlusReconciles) {
  Recovering world = make_recovering();

  world.resync->tick(10);
  world.replica->poll();  // in-sync reconcile
  world.resync->tick(10);
  for (int i = 0; i < 8; ++i) {
    world.master->modify(Dn::parse("cn=E" + std::to_string(i) + ",o=xyz"),
                         {{Modification::Op::Replace, "title", {"x"}}});
  }
  world.replica->poll();  // diverged too far: fallback reload

  EXPECT_EQ(world.replica->recoveries(),
            world.replica->full_reloads() + world.replica->reconciles());
  EXPECT_EQ(world.replica->recoveries(), 2u);
}

// Round-2 walk cookies follow the session cookies' replay discipline: a
// duplicated round-2 request is re-answered verbatim from the walk's replay
// cache without re-running the diff, and an out-of-sequence one is rejected
// as a protocol error. Driven through handle() directly, modelling the
// retried request a lossy transport would duplicate.
TEST(ReSyncReconcile, Round2RepliesAreReplaySafe) {
  auto master = make_master();
  ReSyncMaster resync(*master);

  // Converge a content store, then lose the session.
  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);
  resync.reset();
  master->modify(Dn::parse("cn=E2,o=xyz"),
                 {{Modification::Op::Replace, "title", {"chief"}}});

  // Round 1 by hand, from the replica's own digest tree.
  auto offer = round1_offer(replica.content());
  ReSyncControl round1;
  round1.reconcile = offer;
  const ReSyncResponse walk = resync.handle(kQuery, round1);
  ASSERT_NE(walk.reconcile, nullptr);
  ASSERT_FALSE(walk.reconcile->need_buckets.empty());
  EXPECT_EQ(resync.pending_reconciles(), 1u);

  // Round 2: fingerprints for the flagged buckets -> the one-entry diff.
  auto upload = std::make_shared<ReconcileRequest>();
  upload->round = 2;
  upload->fingerprints =
      fingerprints_for(replica.content(), walk.reconcile->need_buckets);
  ReSyncControl round2{Mode::Poll, walk.cookie};
  round2.reconcile = upload;
  const ReSyncResponse diff = resync.handle(kQuery, round2);
  ASSERT_EQ(diff.pdus.size(), 1u);
  EXPECT_EQ(diff.pdus[0].dn.to_string(), "cn=E2,o=xyz");
  EXPECT_EQ(diff.cookie.rfind("rs-", 0), 0u) << diff.cookie;
  EXPECT_EQ(walk.cookie.substr(0, walk.cookie.find('#')),
            diff.cookie.substr(0, diff.cookie.find('#')))
      << "the walk and its diff must name one session";
  EXPECT_EQ(resync.pending_reconciles(), 0u) << "walk must be promoted";

  // The duplicated round-2 request replays identically: same diff, same
  // resumption cookie, and the promoted session's history is untouched.
  const std::uint64_t replays_before = resync.replays_suppressed();
  const ReSyncResponse replay = resync.handle(kQuery, round2);
  EXPECT_EQ(resync.replays_suppressed(), replays_before + 1);
  ASSERT_EQ(replay.pdus.size(), 1u);
  EXPECT_EQ(replay.pdus[0].dn.to_string(), "cn=E2,o=xyz");
  EXPECT_EQ(replay.cookie, diff.cookie);

  // The promoted session answers its next poll normally after the replay.
  const ReSyncResponse next = resync.handle(kQuery, {Mode::Poll, diff.cookie});
  EXPECT_TRUE(next.pdus.empty());

  // An out-of-sequence walk cookie is a protocol bug, not a stale session.
  ReSyncControl skewed{Mode::Poll, walk.cookie.substr(0, walk.cookie.find('#')) +
                                       "#7"};
  skewed.reconcile = upload;
  EXPECT_THROW(resync.handle(kQuery, skewed), ldap::ProtocolError);

  // A round-2 cookie without fingerprints is equally malformed.
  ReSyncControl round1b;
  round1b.reconcile = offer;
  const ReSyncResponse walk2 = resync.handle(kQuery, round1b);
  ASSERT_NE(walk2.reconcile, nullptr);
  EXPECT_THROW(resync.handle(kQuery, {Mode::Poll, walk2.cookie}),
               ldap::ProtocolError);
}

// A change committed and pumped between the two rounds of a walk never
// reached the provisional session (it is not routed until promoted), so the
// promoted session must catch up on it (a rebase from the DIT).
TEST(ReSyncReconcile, ChangesBetweenWalkRoundsReachThePromotedSession) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);
  resync.reset();
  master->modify(Dn::parse("cn=E2,o=xyz"),
                 {{Modification::Op::Replace, "title", {"chief"}}});

  auto offer = round1_offer(replica.content());
  ReSyncControl round1;
  round1.reconcile = offer;
  const ReSyncResponse walk = resync.handle(kQuery, round1);
  ASSERT_NE(walk.reconcile, nullptr);
  ASSERT_FALSE(walk.reconcile->need_buckets.empty());

  // Between the rounds: E4 (in content) changes and the master pumps.
  master->modify(Dn::parse("cn=E4,o=xyz"),
                 {{Modification::Op::Replace, "title", {"lead"}}});
  master->modify(Dn::parse("cn=E3,o=xyz"),
                 {{Modification::Op::Replace, "title", {"intern"}}});
  resync.pump();

  auto upload = std::make_shared<ReconcileRequest>();
  upload->round = 2;
  upload->fingerprints =
      fingerprints_for(replica.content(), walk.reconcile->need_buckets);
  ReSyncControl round2{Mode::Poll, walk.cookie};
  round2.reconcile = upload;
  const ReSyncResponse diff = resync.handle(kQuery, round2);
  ASSERT_EQ(diff.pdus.size(), 1u);
  EXPECT_EQ(diff.pdus[0].dn, Dn::parse("cn=E2,o=xyz"));

  // The next poll carries E4's change; E3 is outside the content.
  const ReSyncResponse next = resync.handle(kQuery, {Mode::Poll, diff.cookie});
  ASSERT_EQ(next.pdus.size(), 1u);
  EXPECT_EQ(next.pdus[0].action, Action::Modify);
  EXPECT_EQ(next.pdus[0].dn, Dn::parse("cn=E4,o=xyz"));
  ASSERT_NE(next.pdus[0].entry, nullptr);
  EXPECT_EQ(next.pdus[0].entry->first("title"), "lead");

  // And nothing is delivered twice afterwards.
  resync.pump();
  EXPECT_TRUE(resync.handle(kQuery, {Mode::Poll, next.cookie}).pdus.empty());
}

TEST(ReSyncReconcile, AbandonedWalkExpiresLikeASession) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  resync.set_session_time_limit(5);

  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);
  resync.reset();
  master->modify(Dn::parse("cn=E2,o=xyz"),
                 {{Modification::Op::Replace, "title", {"chief"}}});

  auto offer = round1_offer(replica.content());
  ReSyncControl round1;
  round1.reconcile = offer;
  const ReSyncResponse walk = resync.handle(kQuery, round1);
  ASSERT_NE(walk.reconcile, nullptr);
  EXPECT_EQ(resync.pending_reconciles(), 1u);

  // The client crashed between rounds: the walk idles past the admin limit
  // and its provisional state is reclaimed; the late round 2 sees a stale
  // cookie and the client restarts recovery from scratch.
  resync.tick(10);
  EXPECT_EQ(resync.pending_reconciles(), 0u);
  ReSyncControl late{Mode::Poll, walk.cookie};
  auto upload = std::make_shared<ReconcileRequest>();
  upload->round = 2;
  late.reconcile = upload;
  EXPECT_THROW(resync.handle(kQuery, late), ldap::StaleCookieError);

  // SyncEnd against a live walk releases it without a session.
  const ReSyncResponse walk2 = resync.handle(kQuery, round1);
  ASSERT_EQ(resync.pending_reconciles(), 1u);
  resync.handle(kQuery, {Mode::SyncEnd, walk2.cookie});
  EXPECT_EQ(resync.pending_reconciles(), 0u);
  EXPECT_EQ(resync.session_count(), 0u);
}

// A persist-mode walk whose round 2 never comes expires at the admin limit
// exactly like a poll-mode one: no open connection holds it, and it is not
// counted as a governor eviction.
TEST(ReSyncReconcile, AbandonedPersistWalkExpiresAtTheDeadline) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  resync.set_session_time_limit(5);

  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);
  resync.reset();
  master->modify(Dn::parse("cn=E2,o=xyz"),
                 {{Modification::Op::Replace, "title", {"chief"}}});

  ReSyncControl round1{Mode::Persist, ""};
  round1.reconcile = round1_offer(replica.content());
  const ReSyncResponse walk = resync.handle(kQuery, round1);
  ASSERT_NE(walk.reconcile, nullptr);
  ASSERT_FALSE(walk.reconcile->need_buckets.empty());
  EXPECT_EQ(resync.pending_reconciles(), 1u);
  EXPECT_EQ(resync.session_count(), 0u);
  EXPECT_EQ(resync.open_connections(), 0u);

  resync.tick(5);  // at the limit, not past it
  EXPECT_EQ(resync.pending_reconciles(), 1u);
  resync.tick(1);
  EXPECT_EQ(resync.pending_reconciles(), 0u);
  EXPECT_EQ(resync.governor_stats().sessions_evicted, 0u);
  auto upload = std::make_shared<ReconcileRequest>();
  upload->round = 2;
  ReSyncControl late{Mode::Persist, walk.cookie};
  late.reconcile = upload;
  EXPECT_THROW(resync.handle(kQuery, late), ldap::StaleCookieError);
}

// With no idle limit nothing expires, so a completed walk must leave no
// state behind once its session ends: the round-2 answer is not replayable
// after sync_end, and no walk or replay cache outlives the session.
TEST(ReSyncReconcile, CompletedWalkLeavesNoStateBehind) {
  auto master = make_master();
  ReSyncMaster resync(*master);

  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);
  resync.reset();
  master->modify(Dn::parse("cn=E2,o=xyz"),
                 {{Modification::Op::Replace, "title", {"chief"}}});

  ReSyncControl round1;
  round1.reconcile = round1_offer(replica.content());
  const ReSyncResponse walk = resync.handle(kQuery, round1);
  ASSERT_NE(walk.reconcile, nullptr);
  ASSERT_FALSE(walk.reconcile->need_buckets.empty());

  auto upload = std::make_shared<ReconcileRequest>();
  upload->round = 2;
  upload->fingerprints =
      fingerprints_for(replica.content(), walk.reconcile->need_buckets);
  ReSyncControl round2{Mode::Poll, walk.cookie};
  round2.reconcile = upload;
  const ReSyncResponse diff = resync.handle(kQuery, round2);
  ASSERT_EQ(diff.pdus.size(), 1u);
  EXPECT_EQ(resync.session_count(), 1u);

  const ReSyncResponse next = resync.handle(kQuery, {Mode::Poll, diff.cookie});
  EXPECT_TRUE(next.pdus.empty());
  resync.handle(kQuery, {Mode::SyncEnd, next.cookie});
  EXPECT_EQ(resync.session_count(), 0u);
  EXPECT_EQ(resync.pending_reconciles(), 0u);
  EXPECT_EQ(resync.replay_cache_bytes(), 0u);

  EXPECT_THROW(resync.handle(kQuery, round2), ldap::StaleCookieError);
}

TEST(ReSyncReconcile, GovernedMasterBouncesAndCapsWalks) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);
  resync.reset();

  auto offer = round1_offer(replica.content());

  // At the session cap, a reconcile offer is bounced busy exactly like a
  // plain initial request — no provisional state is created.
  ResourceLimits limits;
  limits.max_sessions = 1;
  resync.set_resource_limits(limits);
  ReSyncControl round1;
  round1.reconcile = offer;
  resync.handle(kQuery, {Mode::Poll, ""});  // occupies the only slot
  const ReSyncResponse bounced = resync.handle(kQuery, round1);
  EXPECT_TRUE(bounced.busy);
  EXPECT_EQ(bounced.reconcile, nullptr);
  EXPECT_EQ(resync.pending_reconciles(), 0u);

  // Past the walk cap, the offer is answered with a fallback reload instead
  // of holding more provisional diff state.
  limits.max_sessions = 0;
  limits.max_pending_reconciles = 1;
  resync.set_resource_limits(limits);
  master->modify(Dn::parse("cn=E2,o=xyz"),
                 {{Modification::Op::Replace, "title", {"chief"}}});
  const ReSyncResponse walk = resync.handle(kQuery, round1);
  ASSERT_NE(walk.reconcile, nullptr);
  ASSERT_FALSE(walk.reconcile->fallback);
  EXPECT_EQ(resync.pending_reconciles(), 1u);
  const ReSyncResponse capped = resync.handle(kQuery, round1);
  ASSERT_NE(capped.reconcile, nullptr);
  EXPECT_TRUE(capped.reconcile->fallback);
  EXPECT_TRUE(capped.full_reload);
  EXPECT_EQ(resync.governor_stats().reconcile_fallbacks, 1u);
  EXPECT_EQ(resync.pending_reconciles(), 1u) << "no second walk held";
}

TEST(ReSyncReconcile, PagedDiffDrainsAcrossContinuationPolls) {
  Recovering world = make_recovering(40);
  ResourceLimits limits;
  limits.max_page_entries = 3;
  world.resync->set_resource_limits(limits);

  world.resync->tick(10);
  for (int i = 0; i < 16; i += 2) {  // 8 of 20 replicated entries change
    world.master->modify(Dn::parse("cn=E" + std::to_string(i) + ",o=xyz"),
                         {{Modification::Op::Replace, "title", {"paged"}}});
  }

  world.replica->poll();
  EXPECT_EQ(world.replica->reconciles(), 1u);
  EXPECT_EQ(world.replica->reconcile_entries_shipped(), 8u);
  EXPECT_GE(world.replica->pages_fetched(), 2u) << "diff should paginate";
  EXPECT_EQ(world.replica->content().keys(), master_truth(*world.master));
}

// Seeded chaos: random churn with repeated session expiry, a reconciling
// replica against a fault-free twin on an unexpiring master. The replica
// must match the twin exactly after every recovery, the recovery split must
// stay exact, and the walks must ship far less than recoveries-times-content
// (the O(diff) contract).
TEST(ReSyncReconcileChaos, ConvergesToFaultFreeTwinShippingTheDiff) {
  std::mt19937 rng(20050612);
  auto master = make_master(24);
  ReSyncMaster flaky(*master);
  flaky.set_session_time_limit(3);
  ReSyncMaster steady(*master);

  ReSyncReplica replica(flaky, kQuery);
  replica.set_auto_recover(true);
  replica.start(Mode::Poll);
  ReSyncReplica twin(steady, kQuery);
  twin.start(Mode::Poll);

  std::uniform_int_distribution<int> op(0, 99);
  std::uniform_int_distribution<int> pick(0, 60);
  int next = 100;
  for (int round = 0; round < 60; ++round) {
    for (int burst = 0; burst < 3; ++burst) {
      const Dn target = Dn::parse("cn=E" + std::to_string(pick(rng)) + ",o=xyz");
      const int choice = op(rng);
      if (choice < 35) {
        master->add(make_entry("cn=E" + std::to_string(next++) + ",o=xyz",
                               {{"objectclass", "person"},
                                {"dept", choice % 2 == 0 ? "42" : "7"}}));
      } else if (choice < 60 && master->dit().find(target)) {
        master->modify(target, {{Modification::Op::Replace, "title",
                                 {"t" + std::to_string(round)}}});
      } else if (choice < 75 && master->dit().find(target)) {
        master->remove(target);
      } else if (master->dit().find(target)) {
        master->modify(target,
                       {{Modification::Op::Replace, "dept",
                         {choice % 2 == 0 ? "42" : "7"}}});
      }
    }
    flaky.pump();
    steady.pump();
    // Every third round idles past the admin limit, forcing a recovery.
    flaky.tick(round % 3 == 2 ? 5 : 1);
    steady.tick(1);
    replica.poll();
    twin.poll();
    ASSERT_EQ(replica.content().keys(), twin.content().keys())
        << "diverged from the fault-free twin at round " << round;
  }

  EXPECT_EQ(replica.content().keys(), master_truth(*master));
  EXPECT_GE(replica.recoveries(), 10u) << "chaos schedule went soft";
  EXPECT_EQ(replica.recoveries(),
            replica.full_reloads() + replica.reconciles());
  EXPECT_GE(replica.reconciles(), 5u);
  // O(diff): across all reconciles, the walks shipped a small multiple of
  // the per-recovery churn, nowhere near recoveries x content size.
  EXPECT_LT(replica.reconcile_entries_shipped(),
            replica.reconciles() * replica.content().size() / 2);
}

// --- the relay cascade ---

Query serial_query(const std::string& prefix) {
  return Query::parse("o=xyz", Scope::Subtree,
                      "(serialnumber=" + prefix + "*)");
}

std::unique_ptr<server::DirectoryServer> make_serial_master() {
  auto master = std::make_unique<server::DirectoryServer>("ldap://root");
  master->add_context({Dn::parse("o=xyz"), {}});
  master->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  master->load(make_entry("ou=eng,o=xyz",
                          {{"objectclass", "organizationalunit"}}));
  for (int i = 0; i < 8; ++i) {
    const std::string serial = "00" + std::to_string(i);
    master->load(make_entry("cn=e" + serial + ",ou=eng,o=xyz",
                            {{"objectclass", "person"},
                             {"serialnumber", serial},
                             {"mail", "e" + serial + "@xyz.com"}}));
  }
  return master;
}

// An upstream recovery healed by reconciliation journals the diff as
// ordinary mirror changes: descendants receive it as a delta under their
// existing cookies — no epoch bump, no cascaded reload (the counterpart of
// TopologyRelay.UpstreamStaleCookieCascadesAsEpochBump, which pins the
// reconcile-off behavior).
TEST(TopologyReconcile, RelayHealsWithoutCascadingAnEpochBump) {
  auto master = make_serial_master();
  auto root = std::make_unique<ReSyncMaster>(*master);
  root->set_session_time_limit(5);

  topology::RelayNode::Config config;
  config.name = "relay1";
  config.suffix = Dn::parse("o=xyz");
  topology::RelayNode relay(config);
  relay.add_filter(serial_query("00"));
  relay.connect(std::make_shared<net::DirectChannel>(*root), master->url());
  ASSERT_TRUE(relay.install_all());

  const ReSyncResponse downstream =
      relay.handle(serial_query("000"), {Mode::Poll, ""});
  ASSERT_FALSE(downstream.cookie.empty());

  // The upstream session idles away while one entry changes at the root.
  root->tick(50);
  master->modify(Dn::parse("cn=e000,ou=eng,o=xyz"),
                 {{Modification::Op::Replace, "mail", {"new@xyz.com"}}});
  relay.sync();

  EXPECT_EQ(relay.upstream_total().recoveries, 1u);
  EXPECT_EQ(relay.epoch(), 0u) << "reconcile heal must not bump the epoch";
  const net::FilterHealth upstream = relay.upstream_total();
  EXPECT_EQ(upstream.reconciles, 1u);
  EXPECT_EQ(upstream.full_reloads, 0u) << "the install is no recovery";
  EXPECT_EQ(upstream.reconcile_entries_shipped, 1u);

  // The downstream cookie is still valid and the change arrives as a delta.
  const ReSyncResponse delta =
      relay.handle(serial_query("000"), {Mode::Poll, downstream.cookie});
  ASSERT_EQ(delta.pdus.size(), 1u);
  EXPECT_TRUE(delta.pdus[0].entry->has_value("mail", "new@xyz.com"));
}

TEST(TopologyReconcile, RuntimeHealthReportsTheRecoverySplit) {
  auto master = std::make_shared<server::DirectoryServer>("ldap://root");
  master->add_context({Dn::parse("o=xyz"), {}});
  master->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  for (int i = 0; i < 8; ++i) {
    const std::string serial = "00" + std::to_string(i);
    master->load(make_entry("cn=e" + serial + ",o=xyz",
                            {{"objectclass", "person"},
                             {"serialnumber", serial}}));
  }
  topology::TopologyRuntime::Options options;
  topology::TopologyRuntime runtime(master, options);
  runtime.root_master().set_session_time_limit(10);
  runtime.add_node("relay", "", {serial_query("00")});
  runtime.add_node("leaf", "relay", {serial_query("000")});
  ASSERT_TRUE(runtime.install());
  runtime.run(2);

  // The root drops the relay's session; churn lands; the next round heals
  // the relay via a walk and the leaf rides through on its relay session.
  runtime.root_master().tick(50);
  master->modify(Dn::parse("cn=e001,o=xyz"),
                 {{Modification::Op::Replace, "serialnumber", {"0010"}}});
  runtime.run(2);

  for (const topology::NodeHealth& row : runtime.health()) {
    if (row.name == "relay") {
      EXPECT_GE(row.reconciles, 1u);
      EXPECT_EQ(row.recoveries, row.reconciles + row.full_reloads)
          << "recoveries must split into reconciles + full reloads";
      EXPECT_GE(row.reconcile_entries_shipped, 1u);
      EXPECT_EQ(row.epoch, 0u);
    }
    if (row.name == "leaf") {
      EXPECT_EQ(row.recoveries, 0u) << "the heal must not cascade";
    }
  }
  // Both hops converged on the changed entry.
  EXPECT_NE(runtime.node("relay").mirror().dit().find(
                Dn::parse("cn=e001,o=xyz")),
            nullptr);
}

// A digest walk whose round 2 crosses a relay: the leaf's session at the
// relay expires after the relay has taken a change the leaf has not seen,
// so the leaf's recovery diverges at round 1 and uploads fingerprints in
// round 2 — a continuation, which the framed tree ships by cookie alone and
// the relay forwards under its unwrapped cookie. The framed chain must
// converge exactly like its DirectChannel twin, on the same recovery split.
TEST(TopologyReconcile, FramedRound2ThroughRelayMatchesDirectTwin) {
  struct Chain {
    std::shared_ptr<server::DirectoryServer> master;
    std::unique_ptr<topology::TopologyRuntime> runtime;
  };
  const auto make_chain = [](bool framed) {
    Chain chain;
    chain.master = make_serial_master();
    topology::TopologyRuntime::Options options;
    options.session_time_limit = 10;  // relay downstream sessions idle out
    if (framed) options.faults = net::FaultConfig{};
    chain.runtime =
        std::make_unique<topology::TopologyRuntime>(chain.master, options);
    chain.runtime->add_node("relay", "", {serial_query("00")});
    chain.runtime->add_node("leaf", "relay", {serial_query("00")});
    return chain;
  };
  Chain framed = make_chain(true);
  Chain direct = make_chain(false);
  ASSERT_NE(framed.runtime->framed_link("leaf"), nullptr);
  ASSERT_EQ(direct.runtime->framed_link("leaf"), nullptr);

  for (Chain* chain : {&framed, &direct}) {
    topology::TopologyRuntime& runtime = *chain->runtime;
    ASSERT_TRUE(runtime.install());
    runtime.run(2);
    // The relay takes a change; the leaf's session at the relay then idles
    // out before it polls, so its recovery starts behind the relay.
    chain->master->modify(
        Dn::parse("cn=e003,ou=eng,o=xyz"),
        {{Modification::Op::Replace, "mail", {"moved@xyz.com"}}});
    runtime.root_master().pump();
    runtime.node("relay").sync();
    runtime.node("relay").tick(50);
    runtime.run(3);
  }

  const Query query = serial_query("00");
  const std::vector<std::string> truth = master_truth(*framed.master, query);
  ASSERT_EQ(truth.size(), 8u);
  for (const char* name : {"relay", "leaf"}) {
    std::vector<std::string> framed_keys;
    std::vector<std::string> direct_keys;
    for (const auto& entry :
         framed.runtime->node(name).mirror().evaluate(query)) {
      framed_keys.push_back(entry->dn().norm_key());
      const ldap::EntryPtr twin =
          direct.runtime->node(name).mirror().dit().find(entry->dn());
      ASSERT_NE(twin, nullptr) << name << " " << entry->dn().to_string();
      EXPECT_EQ(sync::ContentDigest::hash_entry(*entry),
                sync::ContentDigest::hash_entry(*twin))
          << name << " " << entry->dn().to_string();
    }
    for (const auto& entry :
         direct.runtime->node(name).mirror().evaluate(query)) {
      direct_keys.push_back(entry->dn().norm_key());
    }
    std::sort(framed_keys.begin(), framed_keys.end());
    std::sort(direct_keys.begin(), direct_keys.end());
    EXPECT_EQ(framed_keys, truth) << name;
    EXPECT_EQ(direct_keys, truth) << name;
  }
  EXPECT_TRUE(framed.runtime->node("leaf").mirror().dit().find(
                  Dn::parse("cn=e003,ou=eng,o=xyz"))
                  ->has_value("mail", "moved@xyz.com"));

  // The leaf healed by a walk that reached round 2 (only a round-2 diff
  // ships entries), the same way on both transports.
  const net::FilterHealth leaf =
      framed.runtime->node("leaf").upstream_total();
  const net::FilterHealth twin_leaf =
      direct.runtime->node("leaf").upstream_total();
  EXPECT_EQ(leaf.reconciles, 1u);
  EXPECT_EQ(leaf.full_reloads, 0u);
  EXPECT_EQ(leaf.reconcile_entries_shipped, 1u);
  EXPECT_EQ(twin_leaf.reconciles, leaf.reconciles);
  EXPECT_EQ(twin_leaf.reconcile_entries_shipped,
            leaf.reconcile_entries_shipped);
  EXPECT_EQ(framed.runtime->node("relay").upstream_total().recoveries, 0u);
}

}  // namespace
}  // namespace fbdr::resync
