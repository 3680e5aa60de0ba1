// Resource-governed ReSync: admission control (busy + client backoff),
// per-session and global history budgets degrading sessions to the
// equation-(3) retain enumeration, replay-cache stripping with snapshot
// replays, response paging under continuation cookies, slow-poller
// eviction, and retuning budgets on live sessions.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "ldap/error.h"
#include "net/channel.h"
#include "resync/replica_client.h"
#include "server/directory_server.h"
#include "sync/content_tracker.h"

namespace fbdr::resync {
namespace {

using ldap::Dn;
using ldap::make_entry;
using ldap::Query;
using ldap::Scope;
using server::Modification;

std::unique_ptr<server::DirectoryServer> make_master(int entries = 8) {
  auto master = std::make_unique<server::DirectoryServer>("ldap://master");
  server::NamingContext context;
  context.suffix = Dn::parse("o=xyz");
  master->add_context(std::move(context));
  master->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  for (int i = 0; i < entries; ++i) {
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

TEST(GovernorAdmission, SessionCapAnswersBusyWithoutCreatingASession) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  ResourceLimits limits;
  limits.max_sessions = 1;
  resync.set_resource_limits(limits);

  ReSyncReplica first(resync, kQuery);
  first.start(Mode::Poll);
  EXPECT_EQ(resync.session_count(), 1u);

  // Default policy = one attempt: the busy rejection surfaces immediately.
  ReSyncReplica second(resync, kQuery);
  EXPECT_THROW(second.start(Mode::Poll), ldap::BusyError);
  EXPECT_FALSE(second.active());
  EXPECT_EQ(resync.session_count(), 1u);
  EXPECT_EQ(resync.governor_stats().sessions_rejected_busy, 1u);
}

TEST(GovernorAdmission, BusyClientRetriesWithBackoffAndGetsIn) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  ResourceLimits limits;
  limits.max_sessions = 1;
  resync.set_resource_limits(limits);
  resync.set_session_time_limit(5);

  ReSyncReplica first(resync, kQuery);
  first.start(Mode::Poll);

  // The backoff elapses master ticks; the idle first session expires under
  // the admin limit, freeing the slot for the retried initial request.
  ReSyncReplica second(resync, kQuery);
  net::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_backoff_ticks = 8;
  second.set_retry_policy(retry);
  second.start(Mode::Poll);

  EXPECT_TRUE(second.active());
  EXPECT_EQ(second.busy_rejections(), 1u);
  EXPECT_EQ(resync.governor_stats().sessions_rejected_busy, 1u);
  EXPECT_EQ(second.content().keys(), master_truth(*master));
}

TEST(GovernorHistory, OverBudgetSessionDegradesToRetainsAndHeals) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  ResourceLimits limits;
  limits.max_session_history = 3;
  resync.set_resource_limits(limits);

  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);

  for (int i = 0; i < 8; ++i) {
    master->modify(Dn::parse("cn=E0,o=xyz"),
                   {{Modification::Op::Replace, "dept",
                     {i % 2 == 0 ? "7" : "42"}}});
    resync.pump();
  }
  EXPECT_EQ(resync.degraded_sessions(), 1u);
  EXPECT_GE(resync.governor_stats().sessions_degraded, 1u);

  // The next poll answers with the equation-(3) complete enumeration and
  // heals the session back to complete-history mode.
  replica.poll();
  EXPECT_EQ(replica.degraded_polls(), 1u);
  EXPECT_EQ(replica.content().keys(), master_truth(*master));
  EXPECT_EQ(resync.degraded_sessions(), 0u);

  // Healed: small deltas flow normally again.
  master->remove(Dn::parse("cn=E2,o=xyz"));
  resync.pump();
  replica.poll();
  EXPECT_EQ(replica.degraded_polls(), 1u);
  EXPECT_EQ(replica.content().keys(), master_truth(*master));
}

TEST(GovernorHistory, DegradedTouchedEntriesShipAsMods) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  ResourceLimits limits;
  limits.max_session_history = 1;
  resync.set_resource_limits(limits);

  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);

  // E0 changes value but stays matching: the degraded enumeration must ship
  // its body (a touched entry retained by DN alone would go stale).
  master->modify(Dn::parse("cn=E0,o=xyz"),
                 {{Modification::Op::Replace, "title", {"boss"}}});
  master->modify(Dn::parse("cn=E2,o=xyz"),
                 {{Modification::Op::Replace, "dept", {"7"}}});
  resync.pump();
  ASSERT_EQ(resync.degraded_sessions(), 1u);

  replica.poll();
  EXPECT_EQ(replica.content().keys(), master_truth(*master));
  const ldap::EntryPtr entry = replica.content().find(Dn::parse("cn=E0,o=xyz"));
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->has_attribute("title"));
}

TEST(GovernorHistory, GlobalBudgetDegradesTheLargestSessions) {
  auto master = make_master(12);
  ReSyncMaster resync(*master);
  ResourceLimits limits;
  limits.max_total_history = 4;
  resync.set_resource_limits(limits);

  const Query other = Query::parse("o=xyz", Scope::Subtree, "(dept=7)");
  ReSyncReplica hot(resync, kQuery);
  hot.start(Mode::Poll);
  ReSyncReplica cold(resync, other);
  cold.start(Mode::Poll);

  // Only dept=42 entries churn: the hot session's history grows, the cold
  // one stays tiny and must keep its complete history.
  for (int i = 0; i < 10; ++i) {
    master->modify(Dn::parse("cn=E" + std::to_string((i % 3) * 2) + ",o=xyz"),
                   {{Modification::Op::Replace, "title",
                     {"t" + std::to_string(i)}}});
  }
  resync.pump();

  EXPECT_LE(resync.history_units(), 4u);
  EXPECT_GE(resync.governor_stats().sessions_degraded, 1u);
  EXPECT_EQ(resync.degraded_sessions(), 1u);

  hot.poll();
  cold.poll();
  EXPECT_EQ(hot.degraded_polls(), 1u);
  EXPECT_EQ(cold.degraded_polls(), 0u);
  EXPECT_EQ(hot.content().keys(), master_truth(*master));
  EXPECT_EQ(cold.content().keys(), master_truth(*master, other));
}

TEST(GovernorReplay, StrippedReplayAnswersWithASnapshotEnumeration) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  ResourceLimits limits;
  limits.max_replay_bytes = 1;  // any body-bearing response overflows
  resync.set_resource_limits(limits);

  const ReSyncResponse initial = resync.handle(kQuery, {Mode::Poll, ""});
  master->modify(Dn::parse("cn=E0,o=xyz"),
                 {{Modification::Op::Replace, "title", {"boss"}}});
  resync.pump();

  const ReSyncResponse fresh = resync.handle(kQuery, {Mode::Poll, initial.cookie});
  EXPECT_GE(resync.governor_stats().replay_caches_stripped, 1u);

  // The duplicate poll cannot be replayed verbatim (bodies were stripped);
  // the master answers with a fresh complete enumeration under the same
  // cookie, which converges whether or not the original was applied.
  const ReSyncResponse replayed =
      resync.handle(kQuery, {Mode::Poll, initial.cookie});
  EXPECT_EQ(replayed.cookie, fresh.cookie);
  EXPECT_TRUE(replayed.complete_enumeration);

  sync::ReplicaContent saw_fresh;
  saw_fresh.apply(to_batch(initial));
  saw_fresh.apply(to_batch(fresh));
  sync::ReplicaContent saw_replay;
  saw_replay.apply(to_batch(initial));
  saw_replay.apply(to_batch(replayed));
  EXPECT_EQ(saw_fresh.keys(), master_truth(*master));
  EXPECT_EQ(saw_replay.keys(), master_truth(*master));
}

TEST(GovernorPaging, InitialLoadPagesUnderContinuationCookies) {
  auto master = make_master(16);
  ReSyncMaster resync(*master);
  ResourceLimits limits;
  limits.max_page_entries = 3;
  resync.set_resource_limits(limits);

  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);
  EXPECT_GE(replica.pages_fetched(), 2u);
  EXPECT_GE(resync.governor_stats().pages_served, 2u);
  EXPECT_EQ(replica.content().keys(), master_truth(*master));

  // Later deltas below the page size flow unpaged.
  master->remove(Dn::parse("cn=E0,o=xyz"));
  resync.pump();
  const auto pages_before = replica.pages_fetched();
  replica.poll();
  EXPECT_EQ(replica.pages_fetched(), pages_before);
  EXPECT_EQ(replica.content().keys(), master_truth(*master));
}

// A persist session opened over a paging master stays persist: every
// continuation page carries the mode, so the master keeps pushing to it.
TEST(GovernorPaging, PersistSessionStaysPersistAcrossPages) {
  auto master = make_master(16);
  ReSyncMaster resync(*master);
  ResourceLimits limits;
  limits.max_page_entries = 2;
  resync.set_resource_limits(limits);
  NotificationRouter router;
  router.attach(resync);

  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Persist);
  router.subscribe(replica);
  ASSERT_GE(replica.pages_fetched(), 2u);
  EXPECT_EQ(resync.open_connections(), 1u);

  master->remove(Dn::parse("cn=E0,o=xyz"));
  resync.pump();
  EXPECT_EQ(replica.content().keys(), master_truth(*master));
}

TEST(GovernorPaging, PagedEnumerationDropsUnmentionedOnlyOnTheLastPage) {
  auto master = make_master(16);
  ReSyncMaster resync(*master);
  ResourceLimits limits;
  limits.max_page_entries = 2;
  limits.max_session_history = 1;
  resync.set_resource_limits(limits);

  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);
  ASSERT_EQ(replica.content().keys(), master_truth(*master));

  // Force degradation with removals in the mix: the paged equation-(3)
  // enumeration must still drop exactly the unmentioned entries.
  master->remove(Dn::parse("cn=E0,o=xyz"));
  master->remove(Dn::parse("cn=E6,o=xyz"));
  master->modify(Dn::parse("cn=E2,o=xyz"),
                 {{Modification::Op::Replace, "title", {"kept"}}});
  resync.pump();
  ASSERT_EQ(resync.degraded_sessions(), 1u);

  replica.poll();
  EXPECT_GE(replica.pages_fetched(), 2u);
  EXPECT_EQ(replica.content().keys(), master_truth(*master));
}

TEST(GovernorPaging, DuplicatedPageRequestReplaysSafely) {
  auto master = make_master(10);
  ReSyncMaster resync(*master);
  ResourceLimits limits;
  limits.max_page_entries = 2;
  resync.set_resource_limits(limits);

  // Drive the pagination by hand so one page request can be duplicated;
  // the pages that "arrived" (the duplicates) are merged, then applied once.
  ReSyncResponse page = resync.handle(kQuery, {Mode::Poll, ""});
  ReSyncResponse merged = page;
  while (page.more) {
    const std::string cookie = page.cookie;
    page = resync.handle(kQuery, {Mode::Poll, cookie});
    const ReSyncResponse dup = resync.handle(kQuery, {Mode::Poll, cookie});
    EXPECT_EQ(dup.cookie, page.cookie);
    ASSERT_EQ(dup.pdus.size(), page.pdus.size());
    merged.pdus.insert(merged.pdus.end(), dup.pdus.begin(), dup.pdus.end());
  }
  sync::ReplicaContent content;
  content.apply(to_batch(merged));
  EXPECT_EQ(content.keys(), master_truth(*master));
}

TEST(GovernorEviction, SlowPollerIsEvictedAndHealsOnResume) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  ResourceLimits limits;
  limits.poll_deadline_ticks = 5;
  resync.set_resource_limits(limits);

  ReSyncReplica replica(resync, kQuery);
  replica.set_auto_recover(true);
  replica.start(Mode::Poll);
  ASSERT_EQ(resync.session_count(), 1u);

  master->remove(Dn::parse("cn=E0,o=xyz"));
  resync.pump();
  resync.tick(10);  // idles past the poll deadline
  EXPECT_EQ(resync.session_count(), 0u);
  EXPECT_EQ(resync.governor_stats().sessions_evicted, 1u);

  replica.poll();  // stale cookie -> full-reload recovery
  EXPECT_EQ(replica.recoveries(), 1u);
  EXPECT_EQ(replica.content().keys(), master_truth(*master));
}

TEST(GovernorEviction, TighterOfPollDeadlineAndAdminLimitWins) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  resync.set_session_time_limit(100);
  ResourceLimits limits;
  limits.poll_deadline_ticks = 4;
  resync.set_resource_limits(limits);

  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);
  resync.tick(6);  // past the governor deadline, far under the admin limit
  EXPECT_EQ(resync.session_count(), 0u);
  EXPECT_EQ(resync.governor_stats().sessions_evicted, 1u);
}

TEST(GovernorRetune, BudgetsInstalledOnLiveSessionsDegradeOnNextPump) {
  auto master = make_master();
  ReSyncMaster resync(*master);

  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);

  // Tighten the budget while the session is already established: the next
  // pump that finds it over budget degrades it, no restart needed.
  ResourceLimits limits;
  limits.max_session_history = 1;
  resync.set_resource_limits(limits);

  // Two in-content events overflow the one-unit budget.
  master->modify(Dn::parse("cn=E0,o=xyz"),
                 {{Modification::Op::Replace, "title", {"boss"}}});
  master->modify(Dn::parse("cn=E2,o=xyz"),
                 {{Modification::Op::Replace, "title", {"chief"}}});
  resync.pump();
  EXPECT_EQ(resync.degraded_sessions(), 1u);

  replica.poll();
  EXPECT_EQ(replica.degraded_polls(), 1u);
  EXPECT_EQ(replica.content().keys(), master_truth(*master));

  // The enumeration healed the session, but sustained pressure re-degrades
  // it round after round while the budget stays tight.
  master->remove(Dn::parse("cn=E2,o=xyz"));
  master->modify(Dn::parse("cn=E4,o=xyz"),
                 {{Modification::Op::Replace, "title", {"lead"}}});
  resync.pump();
  EXPECT_EQ(resync.degraded_sessions(), 1u);
  replica.poll();
  EXPECT_EQ(replica.degraded_polls(), 2u);
  EXPECT_EQ(replica.content().keys(), master_truth(*master));
}

// Every budget on at once, random update stream: the governed master must
// stay within its budgets at every pump and the replica must converge at
// every poll regardless of which enforcement path fired.
TEST(GovernorRandomized, FullyGovernedMasterConvergesUnderRandomStreams) {
  std::mt19937 rng(424242);
  auto master = make_master();
  ReSyncMaster resync(*master);
  ResourceLimits limits;
  limits.max_sessions = 4;
  limits.max_session_history = 5;
  limits.max_total_history = 8;
  limits.max_replay_bytes = 256;
  limits.max_page_entries = 3;
  limits.poll_deadline_ticks = 50;
  limits.journal_retention_records = 16;
  resync.set_resource_limits(limits);

  ReSyncReplica replica(resync, kQuery);
  replica.set_auto_recover(true);
  replica.start(Mode::Poll);

  std::uniform_int_distribution<int> op(0, 99);
  std::uniform_int_distribution<int> pick(0, 30);
  int next = 100;
  for (int step = 0; step < 160; ++step) {
    const Dn target = Dn::parse("cn=E" + std::to_string(pick(rng)) + ",o=xyz");
    try {
      const int t = op(rng);
      if (t < 35) {
        master->add(make_entry("cn=E" + std::to_string(next++) + ",o=xyz",
                               {{"objectclass", "person"},
                                {"dept", t % 2 == 0 ? "42" : "7"}}));
      } else if (t < 60) {
        master->remove(target);
      } else {
        master->modify(target, {{Modification::Op::Replace, "dept",
                                 {t % 3 == 0 ? "42" : "7"}}});
      }
    } catch (const ldap::OperationError&) {
    }
    if (step % 9 == 0) {
      resync.pump();
      resync.tick(1);
      EXPECT_LE(resync.history_units(), limits.max_total_history);
      EXPECT_LE(resync.replay_cache_bytes(), limits.max_replay_bytes);
      replica.poll();
      EXPECT_EQ(replica.content().keys(), master_truth(*master))
          << "governed divergence at step " << step;
    }
  }
}

}  // namespace
}  // namespace fbdr::resync
