// Failure injection and randomized convergence for the ReSync protocol:
// session expiry with and without auto-recovery, the equation-(3) retain
// mode under random update streams, and interleaved persist/poll sessions.

#include <gtest/gtest.h>

#include <random>

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

std::unique_ptr<server::DirectoryServer> make_master() {
  auto master = std::make_unique<server::DirectoryServer>("ldap://master");
  server::NamingContext context;
  context.suffix = Dn::parse("o=xyz");
  master->add_context(std::move(context));
  master->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  for (int i = 0; i < 8; ++i) {
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

TEST(ReSyncRecovery, ExpiredSessionThrowsWithoutRecovery) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  resync.set_session_time_limit(5);
  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);
  resync.tick(10);  // expire
  EXPECT_THROW(replica.poll(), ldap::StaleCookieError);
}

// The session-expiry/poll race, throwing mode: tick() crosses the admin
// limit just before the replica's next poll arrives with the now-stale
// cookie. The poll must fail with the recoverable stale-cookie error and
// leave the recovery counter untouched.
TEST(ReSyncRecovery, ExpiryRacingPollThrowingMode) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  resync.set_session_time_limit(5);
  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);

  master->add(make_entry("cn=E8,o=xyz",
                         {{"objectclass", "person"}, {"dept", "42"}}));
  resync.pump();
  resync.tick(6);  // crosses the limit right before the poll lands

  EXPECT_THROW(replica.poll(), ldap::StaleCookieError);
  EXPECT_EQ(replica.recoveries(), 0u);
  // The replica can still recover explicitly by restarting the session.
  replica.start(Mode::Poll);
  EXPECT_EQ(replica.content().keys(), master_truth(*master));
}

// The same race in auto-recover mode: exactly one full-reload recovery and
// converged content, even with further polls afterwards.
TEST(ReSyncRecovery, ExpiryRacingPollAutoRecoverMode) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  resync.set_session_time_limit(5);
  ReSyncReplica replica(resync, kQuery);
  replica.set_auto_recover(true);
  replica.start(Mode::Poll);

  master->add(make_entry("cn=E8,o=xyz",
                         {{"objectclass", "person"}, {"dept", "42"}}));
  resync.pump();
  resync.tick(6);

  replica.poll();
  EXPECT_EQ(replica.recoveries(), 1u);
  EXPECT_EQ(replica.content().keys(), master_truth(*master));

  master->remove(Dn::parse("cn=E8,o=xyz"));
  resync.pump();
  replica.poll();
  EXPECT_EQ(replica.recoveries(), 1u);  // no further reloads
  EXPECT_EQ(replica.content().keys(), master_truth(*master));
}

// A channel whose master accepts the initial request but rejects every
// later exchange with a non-cookie protocol error — models server-side
// rejections that are not a lost session.
class RejectingChannel final : public net::Channel {
 public:
  explicit RejectingChannel(ReSyncMaster& master) : master_(&master) {}
  resync::ReSyncResponse exchange(const ldap::Query& query,
                                  const ReSyncControl& control) override {
    if (control.initial()) return master_->handle(query, control);
    throw ldap::ProtocolError("unwilling to perform");
  }
  void abandon(const std::string& cookie) override { master_->abandon(cookie); }
  void elapse(std::uint64_t ticks) override { master_->tick(ticks); }

 private:
  ReSyncMaster* master_;
};

// Auto-recover must be scoped to stale cookies: any other protocol error
// (malformed request, server-side rejection) propagates even when recovery
// is enabled — blindly reloading would mask real bugs.
TEST(ReSyncRecovery, AutoRecoverDoesNotSwallowOtherProtocolErrors) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  RejectingChannel channel(resync);
  ReSyncReplica replica(channel, kQuery);
  replica.set_auto_recover(true);
  replica.start(Mode::Poll);

  EXPECT_THROW(replica.poll(), ldap::ProtocolError);
  EXPECT_EQ(replica.recoveries(), 0u);

  // poll() before start() is a client bug and must propagate too.
  ReSyncReplica unstarted(resync, kQuery);
  unstarted.set_auto_recover(true);
  EXPECT_THROW(unstarted.poll(), ldap::ProtocolError);
  EXPECT_EQ(unstarted.recoveries(), 0u);
}

// A link that drops the next `drops` requests before they reach the master.
// elapse() runs the master clock, so a retry's backoff can outlast the
// session's admin limit.
class DroppingChannel final : public net::Channel {
 public:
  explicit DroppingChannel(ReSyncMaster& master) : master_(&master) {}
  resync::ReSyncResponse exchange(const ldap::Query& query,
                                  const ReSyncControl& control) override {
    if (drops > 0) {
      --drops;
      throw net::TransportError("dropped");
    }
    return master_->handle(query, control);
  }
  void abandon(const std::string& cookie) override { master_->abandon(cookie); }
  void elapse(std::uint64_t ticks) override { master_->tick(ticks); }

  int drops = 0;

 private:
  ReSyncMaster* master_;
};

// The session expires while a poll backs off after a lost request, so the
// stale answer comes to the retry, not the first send. Without auto-recover
// it still reaches the caller and nothing is healed; with it, the poll heals.
TEST(ReSyncRecovery, StaleAnswerToARetriedPollReachesTheCaller) {
  for (const bool auto_recover : {false, true}) {
    SCOPED_TRACE(auto_recover ? "auto-recover" : "throwing");
    auto master = make_master();
    ReSyncMaster resync(*master);
    resync.set_session_time_limit(5);
    DroppingChannel channel(resync);
    ReSyncReplica replica(channel, kQuery);
    net::RetryPolicy retry;
    retry.max_attempts = 3;
    retry.base_backoff_ticks = 10;
    replica.set_retry_policy(retry);
    replica.set_auto_recover(auto_recover);
    replica.start(Mode::Poll);

    master->add(make_entry("cn=E8,o=xyz",
                           {{"objectclass", "person"}, {"dept", "42"}}));
    resync.pump();
    channel.drops = 1;
    if (auto_recover) {
      replica.poll();
      EXPECT_EQ(replica.recoveries(), 1u);
    } else {
      EXPECT_THROW(replica.poll(), ldap::StaleCookieError);
      EXPECT_EQ(replica.recoveries(), 0u);
      replica.start(Mode::Poll);  // the caller heals explicitly
    }
    EXPECT_EQ(replica.retries(), 1u);
    EXPECT_EQ(replica.content().keys(), master_truth(*master));
  }
}

// A link to a master that can be cut and replaced: a respawned upstream is
// a fresh ReSyncMaster over the same directory behind the same link.
class SwitchableChannel final : public net::Channel {
 public:
  explicit SwitchableChannel(ReSyncMaster& master) : master(&master) {}
  resync::ReSyncResponse exchange(const ldap::Query& query,
                                  const ReSyncControl& control) override {
    if (down) throw net::TransportError("link down");
    return master->handle(query, control);
  }
  void abandon(const std::string& cookie) override { master->abandon(cookie); }
  void elapse(std::uint64_t ticks) override { master->tick(ticks); }

  ReSyncMaster* master;
  bool down = false;
};

// A restarted upstream hands out its session ids again from rs-1, so a
// degraded consumer's old cookie can name a session another consumer has
// just opened there. Ending the old session on re-establish must spare it.
TEST(ReSyncRecovery, OldCookieSparesTheNewIncarnationsSession) {
  auto master = make_master();
  ReSyncMaster first(*master);
  SwitchableChannel link(first);
  ReSyncReplica a(link, kQuery);
  ReSyncReplica b(link, kQuery);
  for (ReSyncReplica* replica : {&a, &b}) {
    replica->set_auto_recover(true);
    replica->start(Mode::Poll);
    replica->poll();
  }
  ASSERT_EQ(a.cookie(), "rs-1#2");
  ASSERT_EQ(b.cookie(), "rs-2#2");

  // The upstream dies: both polls fail past the (empty) retry budget.
  link.down = true;
  EXPECT_THROW(a.poll(), net::TransportError);
  EXPECT_THROW(b.poll(), net::TransportError);

  // It comes back as a new incarnation; the consumers heal in crossed order.
  ReSyncMaster second(*master);
  link.master = &second;
  link.down = false;
  b.poll();
  ASSERT_EQ(b.cookie().rfind("rs-1#", 0), 0u);  // a's old id
  a.poll();  // ends "rs-1#2" of the old incarnation first
  EXPECT_EQ(second.session_count(), 2u);

  master->add(make_entry("cn=E8,o=xyz",
                         {{"objectclass", "person"}, {"dept", "42"}}));
  second.pump();
  a.poll();
  b.poll();
  // One recovery each, the re-establishment; no stale cookie afterwards.
  EXPECT_EQ(a.recoveries(), 1u);
  EXPECT_EQ(b.recoveries(), 1u);
  EXPECT_EQ(a.content().keys(), master_truth(*master));
  EXPECT_EQ(b.content().keys(), master_truth(*master));
}

TEST(ReSyncRecovery, AutoRecoveryReloadsAndConverges) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  resync.set_session_time_limit(5);
  ReSyncReplica replica(resync, kQuery);
  replica.set_auto_recover(true);
  replica.start(Mode::Poll);
  const std::string first_cookie = replica.cookie();

  // Changes land while the session expires.
  resync.tick(10);
  master->add(make_entry("cn=E8,o=xyz",
                         {{"objectclass", "person"}, {"dept", "42"}}));
  master->remove(Dn::parse("cn=E0,o=xyz"));
  resync.pump();

  replica.poll();
  EXPECT_EQ(replica.recoveries(), 1u);
  EXPECT_NE(replica.cookie(), first_cookie);
  EXPECT_EQ(replica.content().keys(), master_truth(*master));

  // Subsequent polls use the fresh session without further reloads.
  master->remove(Dn::parse("cn=E2,o=xyz"));
  resync.pump();
  replica.poll();
  EXPECT_EQ(replica.recoveries(), 1u);
  EXPECT_EQ(replica.content().keys(), master_truth(*master));
}

TEST(ReSyncRecovery, RecoveryCostsAFullReload) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  resync.set_session_time_limit(5);
  ReSyncReplica replica(resync, kQuery);
  replica.set_auto_recover(true);
  // Documents the pre-reconciliation recovery path: with digest walks off,
  // recovery re-ships the whole content (resync_reconcile_test covers the
  // O(diff) path).
  replica.set_reconcile(false);
  replica.start(Mode::Poll);
  const auto after_start = resync.traffic().entries;

  resync.tick(10);
  replica.poll();  // recovery: whole content again
  EXPECT_EQ(resync.traffic().entries, after_start * 2);
}

TEST(ReSyncRandomized, PollModeConvergesUnderRandomStreams) {
  std::mt19937 rng(20050501);
  for (int round = 0; round < 6; ++round) {
    auto master = make_master();
    ReSyncMaster resync(*master);
    ReSyncReplica replica(resync, kQuery);
    replica.start(Mode::Poll);

    std::uniform_int_distribution<int> op(0, 99);
    std::uniform_int_distribution<int> pick(0, 40);
    int next = 100;
    for (int step = 0; step < 80; ++step) {
      const Dn target = Dn::parse("cn=E" + std::to_string(pick(rng)) + ",o=xyz");
      try {
        const int t = op(rng);
        if (t < 30) {
          master->add(make_entry("cn=E" + std::to_string(next++) + ",o=xyz",
                                 {{"objectclass", "person"},
                                  {"dept", t % 2 == 0 ? "42" : "7"}}));
        } else if (t < 55) {
          master->remove(target);
        } else if (t < 85) {
          master->modify(target, {{Modification::Op::Replace, "dept",
                                   {t % 3 == 0 ? "42" : "7"}}});
        } else {
          master->modify_dn(target,
                            Dn::parse("cn=R" + std::to_string(next++) + ",o=xyz"));
        }
      } catch (const ldap::OperationError&) {
        // Missing random target: acceptable stream noise.
      }
      if (step % 13 == 0) {
        resync.pump();
        replica.poll();
      }
    }
    resync.pump();
    replica.poll();
    EXPECT_EQ(replica.content().keys(), master_truth(*master))
        << "diverged in round " << round;
  }
}

TEST(ReSyncRandomized, GovernedRetainModeConverges) {
  std::mt19937 rng(777);
  auto master = make_master();
  ReSyncMaster resync(*master);
  // A one-unit history budget keeps the session degraded to equation-(3)
  // retain enumerations on nearly every poll round (any round accumulating
  // two or more events re-degrades the healed session), mixed with the
  // occasional eq.(2) delta when a round produced at most one event.
  ResourceLimits limits;
  limits.max_session_history = 1;
  resync.set_resource_limits(limits);
  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);

  std::uniform_int_distribution<int> op(0, 99);
  std::uniform_int_distribution<int> pick(0, 30);
  int next = 100;
  for (int step = 0; step < 120; ++step) {
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
    if (step % 11 == 0) {
      resync.pump();
      replica.poll();
      EXPECT_EQ(replica.content().keys(), master_truth(*master))
          << "retain-mode divergence at step " << step;
    }
  }
}

TEST(ReSyncRandomized, PersistAndPollSessionsAgree) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  NotificationRouter router;
  router.attach(resync);

  ReSyncReplica poller(resync, kQuery);
  poller.start(Mode::Poll);
  ReSyncReplica pusher(resync, kQuery);
  pusher.start(Mode::Persist);
  router.subscribe(pusher);

  std::mt19937 rng(31337);
  std::uniform_int_distribution<int> op(0, 2);
  int next = 100;
  for (int step = 0; step < 60; ++step) {
    try {
      switch (op(rng)) {
        case 0:
          master->add(make_entry("cn=E" + std::to_string(next++) + ",o=xyz",
                                 {{"objectclass", "person"}, {"dept", "42"}}));
          break;
        case 1:
          master->remove(Dn::parse("cn=E" + std::to_string(next - 2) + ",o=xyz"));
          break;
        default:
          master->modify(Dn::parse("cn=E2,o=xyz"),
                         {{Modification::Op::Replace, "dept", {"42"}}});
          break;
      }
    } catch (const ldap::OperationError&) {
    }
    resync.pump();  // pushes to the persist session immediately
  }
  poller.poll();
  EXPECT_EQ(pusher.content().keys(), master_truth(*master));
  EXPECT_EQ(poller.content().keys(), pusher.content().keys());
}

}  // namespace
}  // namespace fbdr::resync
