// Tests for the ReSync protocol layer (§5.2): control semantics, cookies,
// poll/persist modes, session end and timeout, the governed retain mode of
// equation (3), and a reenactment of the Figure 3 message sequence.

#include <gtest/gtest.h>

#include <map>

#include "ldap/error.h"

#include "resync/replica_client.h"
#include "server/directory_server.h"

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
  return master;
}

ldap::EntryPtr person(const std::string& cn, const std::string& dept) {
  return make_entry("cn=" + cn + ",o=xyz",
                    {{"objectclass", "person"}, {"dept", dept}});
}

const Query kQuery = Query::parse("o=xyz", Scope::Subtree, "(dept=42)");

TEST(ReSyncControl, StringForms) {
  EXPECT_EQ(ReSyncControl{}.to_string(), "(poll, null)");
  EXPECT_EQ((ReSyncControl{Mode::Persist, "rs-1"}).to_string(), "(persist, rs-1)");
  EXPECT_EQ(to_string(Mode::SyncEnd), "sync_end");
  EXPECT_EQ(to_string(Action::Retain), "retain");
}

TEST(ReSyncMaster, InitialRequestSendsEntireContent) {
  auto master = make_master();
  master->load(person("E1", "42"));
  master->load(person("E2", "42"));
  master->load(person("E3", "7"));
  ReSyncMaster resync(*master);

  const ReSyncResponse response = resync.handle(kQuery, {Mode::Poll, ""});
  EXPECT_TRUE(response.full_reload);
  EXPECT_EQ(response.entries_sent(), 2u);
  EXPECT_FALSE(response.cookie.empty());
  EXPECT_FALSE(response.persistent);
  EXPECT_EQ(resync.session_count(), 1u);
}

TEST(ReSyncMaster, PollWithCookieSendsAccumulatedUpdates) {
  auto master = make_master();
  master->load(person("E1", "42"));
  ReSyncMaster resync(*master);
  const std::string cookie = resync.handle(kQuery, {Mode::Poll, ""}).cookie;

  master->add(person("E2", "42"));
  master->modify(Dn::parse("cn=E1,o=xyz"),
                 {{Modification::Op::AddValues, "mail", {"e1@x.com"}}});
  resync.pump();

  const ReSyncResponse response = resync.handle(kQuery, {Mode::Poll, cookie});
  EXPECT_FALSE(response.full_reload);
  EXPECT_EQ(response.entries_sent(), 2u);  // one add, one mod
  // Fig. 3: each poll returns a fresh resumption cookie (cookie -> cookie1);
  // the sequence number it embeds is what makes retries replay-safe.
  EXPECT_NE(response.cookie, cookie);
  EXPECT_EQ(resync.session_count(), 1u);

  std::size_t adds = 0;
  std::size_t mods = 0;
  for (const EntryPdu& pdu : response.pdus) {
    if (pdu.action == Action::Add) ++adds;
    if (pdu.action == Action::Modify) ++mods;
  }
  EXPECT_EQ(adds, 1u);
  EXPECT_EQ(mods, 1u);
}

TEST(ReSyncMaster, UnknownCookieIsRejected) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  EXPECT_THROW(resync.handle(kQuery, {Mode::Poll, "rs-999"}), ldap::ProtocolError);
}

TEST(ReSyncMaster, LegacyCookieWithoutSequenceIsRejectedAsStale) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  const std::string cookie = resync.handle(kQuery, {Mode::Poll, ""}).cookie;
  ASSERT_NE(cookie.find('#'), std::string::npos);

  // A '#'-less cookie (pre-sequence-number format, or one mangled in
  // transit) used to parse as sequence 0, bypass the replay cache, and die
  // on the out-of-sequence check. It must be rejected as stale so the
  // replica falls back to a full reload instead of retrying forever.
  const std::string legacy = cookie.substr(0, cookie.find('#'));
  EXPECT_THROW(resync.handle(kQuery, {Mode::Poll, legacy}),
               ldap::StaleCookieError);

  // The rejection leaves the session intact: the genuine cookie still works.
  EXPECT_EQ(resync.session_count(), 1u);
  EXPECT_NO_THROW(resync.handle(kQuery, {Mode::Poll, cookie}));
}

// A cookie's sequence number is the whole field after '#', digits only.
// Forms that a lenient integer parse would read as the live sequence number
// (a trailing byte, a sign, a space, a negative that wraps around to it) are
// malformed: they neither poll nor end the session.
TEST(ReSyncMaster, MalformedCookieSequenceIsRefused) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  const std::string cookie = resync.handle(kQuery, {Mode::Poll, ""}).cookie;
  const std::string id = cookie.substr(0, cookie.find('#'));
  ASSERT_EQ(cookie, id + "#1");
  master->add(person("E1", "42"));
  resync.pump();

  for (const std::string& bad :
       {id + "#1x", id + "#+1", id + "# 1", id + "#1 trailing",
        id + "#-18446744073709551615", id + "#"}) {
    EXPECT_THROW(resync.handle(kQuery, {Mode::Poll, bad}), ldap::ProtocolError)
        << bad;
    EXPECT_THROW(resync.handle(kQuery, {Mode::SyncEnd, bad}),
                 ldap::ProtocolError)
        << bad;
  }

  // The session was neither advanced nor ended: its real cookie polls the
  // pending change as a fresh delta, not as a replay.
  EXPECT_EQ(resync.session_count(), 1u);
  const ReSyncResponse response = resync.handle(kQuery, {Mode::Poll, cookie});
  EXPECT_EQ(response.entries_sent(), 1u);
  EXPECT_EQ(resync.replays_suppressed(), 0u);
}

TEST(ReSyncMaster, SyncEndRemovesSession) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  const std::string cookie = resync.handle(kQuery, {Mode::Poll, ""}).cookie;
  EXPECT_EQ(resync.session_count(), 1u);
  resync.handle(kQuery, {Mode::SyncEnd, cookie});
  EXPECT_EQ(resync.session_count(), 0u);
  EXPECT_THROW(resync.handle(kQuery, {Mode::Poll, cookie}), ldap::ProtocolError);
}

// SyncEnd ends a session only for a cookie the session could still be
// holding: its query, and a sequence number it issued or last answered. A
// restarted endpoint reuses its ids, so anything else may be a cookie from
// an earlier incarnation naming another consumer's session.
TEST(ReSyncMaster, SyncEndSparesASessionTheCookieDoesNotHold) {
  auto master = make_master();
  master->load(person("E1", "42"));
  ReSyncMaster resync(*master);
  const std::string first = resync.handle(kQuery, {Mode::Poll, ""}).cookie;
  const std::string second = resync.handle(kQuery, {Mode::Poll, first}).cookie;
  const Query other = Query::parse("o=xyz", Scope::Subtree, "(dept=7)");

  resync.handle(kQuery, {Mode::SyncEnd, "rs-1#7"});  // never issued
  resync.handle(other, {Mode::SyncEnd, second});      // another query
  EXPECT_EQ(resync.session_count(), 1u);
  EXPECT_NO_THROW(resync.handle(kQuery, {Mode::Poll, second}));

  // The cookie of the last answered poll (its reply was lost) still ends it.
  resync.handle(kQuery, {Mode::SyncEnd, second});
  EXPECT_EQ(resync.session_count(), 0u);
}

TEST(ReSyncMaster, PersistModePushesNotifications) {
  auto master = make_master();
  master->load(person("E1", "42"));
  ReSyncMaster resync(*master);

  std::vector<std::pair<std::uint64_t, ReSyncResponse>> pushed;
  resync.set_notification_sink(
      [&](std::uint64_t link, const ReSyncResponse& push) {
        pushed.emplace_back(link, push);
      });

  const ReSyncResponse response = resync.handle(kQuery, {Mode::Persist, ""});
  EXPECT_TRUE(response.persistent);
  EXPECT_EQ(resync.open_connections(), 1u);

  // Unbound, the session keeps its history like a poll session.
  master->add(person("E3", "42"));
  resync.pump();
  EXPECT_TRUE(pushed.empty());
  const ReSyncResponse polled =
      resync.handle(kQuery, {Mode::Persist, response.cookie});
  ASSERT_EQ(polled.pdus.size(), 1u);

  resync.bind(polled.cookie, 7);
  EXPECT_EQ(resync.bound_sessions(), 1u);
  master->add(person("E2", "42"));
  master->remove(Dn::parse("cn=E1,o=xyz"));
  resync.pump();

  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_EQ(pushed[0].first, 7u);
  // The push answers the held seq and carries the cookie after it.
  EXPECT_EQ(split_cookie(pushed[0].second.cookie)->seq,
            split_cookie(polled.cookie)->seq + 1);
  ASSERT_EQ(pushed[0].second.pdus.size(), 2u);

  // Quiet pump pushes nothing; a tick sends a heartbeat.
  resync.pump();
  EXPECT_EQ(pushed.size(), 1u);
  resync.tick();
  ASSERT_EQ(pushed.size(), 2u);
  EXPECT_TRUE(pushed[1].second.pdus.empty());
  EXPECT_EQ(pushed[1].second.cookie, pushed[0].second.cookie);
  EXPECT_EQ(pushed[1].second.origin_time, resync.now());

  // A lost push comes back from the replay cache.
  const ReSyncResponse replay =
      resync.handle(kQuery, {Mode::Persist, polled.cookie});
  EXPECT_EQ(replay.cookie, pushed[0].second.cookie);
  EXPECT_EQ(replay.pdus.size(), 2u);

  // Unbound again, the session is not pushed to.
  resync.unbind(7);
  EXPECT_EQ(resync.bound_sessions(), 0u);
  master->add(person("E4", "42"));
  resync.pump();
  resync.tick();
  EXPECT_EQ(pushed.size(), 2u);
}

TEST(ReSyncMaster, PollBehindMoreThanOnePushIsStale) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  resync.set_notification_sink([](std::uint64_t, const ReSyncResponse&) {});
  const ReSyncResponse response = resync.handle(kQuery, {Mode::Persist, ""});
  resync.bind(response.cookie, 1);
  master->add(person("E1", "42"));
  resync.pump();
  master->add(person("E2", "42"));
  resync.pump();
  EXPECT_THROW(resync.handle(kQuery, {Mode::Persist, response.cookie}),
               ldap::StaleCookieError);
  EXPECT_EQ(resync.session_count(), 0u);
}

TEST(ReSyncMaster, AbandonClosesPersistentSearch) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  const ReSyncResponse response = resync.handle(kQuery, {Mode::Persist, ""});
  EXPECT_EQ(resync.open_connections(), 1u);
  resync.abandon(response.cookie);
  EXPECT_EQ(resync.open_connections(), 0u);
  EXPECT_EQ(resync.session_count(), 0u);
}

TEST(ReSyncMaster, IdlePollSessionsTimeOut) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  resync.set_session_time_limit(10);
  const std::string poll_cookie = resync.handle(kQuery, {Mode::Poll, ""}).cookie;
  resync.bind(resync.handle(kQuery, {Mode::Persist, ""}).cookie, 1);
  resync.handle(kQuery, {Mode::Persist, ""});  // never bound
  EXPECT_EQ(resync.session_count(), 3u);

  resync.tick(11);
  EXPECT_EQ(resync.session_count(), 1u);  // the bound persist session survives
  EXPECT_THROW(resync.handle(kQuery, {Mode::Poll, poll_cookie}),
               ldap::ProtocolError);
}

TEST(ReSyncMaster, ZeroTimeLimitDisablesExpiry) {
  // An administrative time limit of 0 (the default) means sessions never
  // expire, no matter how far the clock advances between polls.
  auto master = make_master();
  ReSyncMaster resync(*master);
  const std::string cookie = resync.handle(kQuery, {Mode::Poll, ""}).cookie;
  ASSERT_EQ(resync.session_count(), 1u);

  resync.tick(1'000'000);
  EXPECT_EQ(resync.session_count(), 1u) << "idle session expired at limit 0";
  const ReSyncResponse after = resync.handle(kQuery, {Mode::Poll, cookie});
  EXPECT_TRUE(after.pdus.empty());

  // Setting the limit back to 0 after a non-zero value disables expiry again.
  resync.set_session_time_limit(10);
  resync.set_session_time_limit(0);
  resync.tick(1'000'000);
  EXPECT_EQ(resync.session_count(), 1u);
  EXPECT_NO_THROW(resync.handle(kQuery, {Mode::Poll, after.cookie}));
}

TEST(ReSyncMaster, ModeSwitchFromPollToPersist) {
  // Figure 3's session switches from poll to persist with the same cookie.
  auto master = make_master();
  ReSyncMaster resync(*master);
  const std::string cookie = resync.handle(kQuery, {Mode::Poll, ""}).cookie;
  const ReSyncResponse response = resync.handle(kQuery, {Mode::Persist, cookie});
  EXPECT_TRUE(response.persistent);
  EXPECT_EQ(resync.open_connections(), 1u);
}

TEST(ReSyncMaster, GovernedHistoryBudgetUsesRetains) {
  auto master = make_master();
  master->load(person("E1", "42"));
  master->load(person("E2", "42"));
  ReSyncMaster resync(*master);
  // A two-unit history budget: three pending events degrade the session to
  // the equation-(3) retain enumeration on the next pump, while the two
  // touched keys still fit the budget (no collapse to ship-everything).
  ResourceLimits limits;
  limits.max_session_history = 2;
  resync.set_resource_limits(limits);
  const std::string cookie = resync.handle(kQuery, {Mode::Poll, ""}).cookie;

  // Modify E1 out of the content and add E3 into it (twice touched);
  // E2 unchanged.
  master->modify(Dn::parse("cn=E1,o=xyz"),
                 {{Modification::Op::Replace, "dept", {"7"}}});
  master->add(person("E3", "42"));
  master->modify(Dn::parse("cn=E3,o=xyz"),
                 {{Modification::Op::Replace, "title", {"new"}}});
  resync.pump();
  ASSERT_EQ(resync.degraded_sessions(), 1u);
  const ReSyncResponse response = resync.handle(kQuery, {Mode::Poll, cookie});
  EXPECT_TRUE(response.complete_enumeration);
  // No delete PDU is possible without leave history: E2 is retained, E1
  // simply unmentioned, and the touched E3 ships with its body.
  std::size_t retains = 0;
  bool saw_e3 = false;
  for (const EntryPdu& pdu : response.pdus) {
    EXPECT_NE(pdu.action, Action::Delete);
    if (pdu.action == Action::Retain) ++retains;
    if (pdu.entry != nullptr && pdu.dn == Dn::parse("cn=E3,o=xyz")) saw_e3 = true;
  }
  EXPECT_EQ(retains, 1u);
  EXPECT_TRUE(saw_e3);
}

TEST(ReSyncMaster, TrafficAccounting) {
  auto master = make_master();
  master->load(person("E1", "42"));
  ReSyncMaster resync(*master);
  const std::string cookie = resync.handle(kQuery, {Mode::Poll, ""}).cookie;
  master->remove(Dn::parse("cn=E1,o=xyz"));
  resync.pump();
  resync.handle(kQuery, {Mode::Poll, cookie});
  EXPECT_EQ(resync.traffic().round_trips, 2u);
  EXPECT_EQ(resync.traffic().entries, 1u);   // initial content
  EXPECT_EQ(resync.traffic().dns_only, 1u);  // the delete
  resync.reset_traffic();
  EXPECT_EQ(resync.traffic().round_trips, 0u);
}

TEST(ReSyncMaster, DuplicatedPollIsAnsweredFromReplayCache) {
  auto master = make_master();
  master->load(person("E1", "42"));
  ReSyncMaster resync(*master);
  const std::string cookie = resync.handle(kQuery, {Mode::Poll, ""}).cookie;

  master->add(person("E2", "42"));
  resync.pump();

  const ReSyncResponse first = resync.handle(kQuery, {Mode::Poll, cookie});
  ASSERT_EQ(first.entries_sent(), 1u);

  // The same poll again (a retry after a lost response, or a duplicate on
  // the wire): identical answer, session history not consumed twice.
  const ReSyncResponse replay = resync.handle(kQuery, {Mode::Poll, cookie});
  EXPECT_EQ(resync.replays_suppressed(), 1u);
  EXPECT_EQ(replay.entries_sent(), first.entries_sent());
  EXPECT_EQ(replay.cookie, first.cookie);

  // A replay after the clock advanced is stamped with the CURRENT origin
  // time: handing back the original exchange's stamp would roll a
  // downstream relay's root-time view backwards and inflate its lag.
  resync.tick(3);
  const ReSyncResponse late = resync.handle(kQuery, {Mode::Poll, cookie});
  EXPECT_EQ(resync.replays_suppressed(), 2u);
  EXPECT_EQ(late.origin_time, first.origin_time + 3);

  // The next fresh poll carries only what happened since — the E2 add was
  // not dropped from history by the replay.
  master->add(person("E3", "42"));
  resync.pump();
  const ReSyncResponse next = resync.handle(kQuery, {Mode::Poll, first.cookie});
  EXPECT_EQ(next.entries_sent(), 1u);
  EXPECT_EQ(next.pdus.at(0).dn.to_string(), "cn=E3,o=xyz");
}

TEST(ReSyncMaster, OutOfSequenceCookieIsRejected) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  const std::string cookie = resync.handle(kQuery, {Mode::Poll, ""}).cookie;
  const std::string future = cookie.substr(0, cookie.rfind('#')) + "#7";
  EXPECT_THROW(resync.handle(kQuery, {Mode::Poll, future}), ldap::ProtocolError);
  // The rejection is not a stale cookie: recovery must not be triggered.
  EXPECT_THROW(
      {
        try {
          resync.handle(kQuery, {Mode::Poll, future});
        } catch (const ldap::StaleCookieError&) {
          ADD_FAILURE() << "out-of-sequence must not read as stale";
          throw;
        }
      },
      ldap::ProtocolError);
  EXPECT_EQ(resync.replays_suppressed(), 0u);
}

TEST(ReSyncMaster, ResetWipesSessionsAndStalesCookies) {
  auto master = make_master();
  master->load(person("E1", "42"));
  ReSyncMaster resync(*master);
  const std::string cookie = resync.handle(kQuery, {Mode::Poll, ""}).cookie;
  EXPECT_EQ(resync.session_count(), 1u);

  resync.reset();  // master restarted: session state is gone
  EXPECT_EQ(resync.session_count(), 0u);
  EXPECT_THROW(resync.handle(kQuery, {Mode::Poll, cookie}),
               ldap::StaleCookieError);

  // A fresh initial request works and returns the full content again.
  const ReSyncResponse fresh = resync.handle(kQuery, {Mode::Poll, ""});
  EXPECT_TRUE(fresh.full_reload);
  EXPECT_EQ(fresh.entries_sent(), 1u);
}

TEST(ReSyncReplica, EndToEndPollLoopConverges) {
  auto master = make_master();
  for (int i = 0; i < 6; ++i) {
    master->load(person("E" + std::to_string(i), i % 2 == 0 ? "42" : "7"));
  }
  ReSyncMaster resync(*master);
  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Poll);
  EXPECT_EQ(replica.content().size(), 3u);

  master->add(person("E6", "42"));
  master->remove(Dn::parse("cn=E0,o=xyz"));
  master->modify(Dn::parse("cn=E2,o=xyz"),
                 {{Modification::Op::Replace, "dept", {"7"}}});
  resync.pump();
  replica.poll();
  EXPECT_EQ(replica.content().size(), 2u);  // E4, E6
  EXPECT_TRUE(replica.content().contains(Dn::parse("cn=E6,o=xyz")));
  EXPECT_FALSE(replica.content().contains(Dn::parse("cn=E2,o=xyz")));

  replica.sync_end();
  EXPECT_FALSE(replica.active());
  EXPECT_EQ(resync.session_count(), 0u);
}

TEST(ReSyncReplica, PersistDeliveryViaRouter) {
  auto master = make_master();
  master->load(person("E1", "42"));
  ReSyncMaster resync(*master);
  NotificationRouter router;
  router.attach(resync);

  ReSyncReplica replica(resync, kQuery);
  replica.start(Mode::Persist);
  router.subscribe(replica);
  EXPECT_EQ(replica.content().size(), 1u);

  master->add(person("E2", "42"));
  resync.pump();
  EXPECT_EQ(replica.content().size(), 2u);

  replica.abandon();
  EXPECT_EQ(resync.open_connections(), 0u);
}

TEST(Figure3, MessageSequenceReenactment) {
  // Entries E1..E5 and the operations of Figure 3:
  //   Session starts (poll, null): E1, E2, E3 are in the content -> 3 adds.
  //   Interval 1: E4 added (A); E1 modified out and E2 deleted (D, M);
  //               E3 modified but stays in (M).
  //   Poll (poll, cookie): E4 add; E1, E2 delete; E3 mod.
  //   Interval 2: E3 renamed to E5 (R) - stays in content.
  //   Request (persist, cookie1): E3 delete, E5 add; then abandon.
  auto master = make_master();
  master->load(person("E1", "42"));
  master->load(person("E2", "42"));
  master->load(person("E3", "42"));
  ReSyncMaster resync(*master);

  // S, (poll, null) -> E1, E2, E3 add + cookie.
  const ReSyncResponse first = resync.handle(kQuery, {Mode::Poll, ""});
  ASSERT_EQ(first.pdus.size(), 3u);
  for (const EntryPdu& pdu : first.pdus) EXPECT_EQ(pdu.action, Action::Add);
  const std::string cookie = first.cookie;

  // Interval 1.
  master->add(person("E4", "42"));                                   // A
  master->modify(Dn::parse("cn=E1,o=xyz"),
                 {{Modification::Op::Replace, "dept", {"7"}}});      // M (out)
  master->remove(Dn::parse("cn=E2,o=xyz"));                          // D
  master->modify(Dn::parse("cn=E3,o=xyz"),
                 {{Modification::Op::AddValues, "mail", {"e3@x"}}}); // M (in)
  resync.pump();

  // S, (poll, cookie) -> E4 add; E1, E2 delete; E3 mod; cookie1.
  const ReSyncResponse second = resync.handle(kQuery, {Mode::Poll, cookie});
  std::map<std::string, Action> actions;
  for (const EntryPdu& pdu : second.pdus) {
    actions[pdu.dn.to_string()] = pdu.action;
  }
  EXPECT_EQ(actions.at("cn=E4,o=xyz"), Action::Add);
  EXPECT_EQ(actions.at("cn=E1,o=xyz"), Action::Delete);
  EXPECT_EQ(actions.at("cn=E2,o=xyz"), Action::Delete);
  EXPECT_EQ(actions.at("cn=E3,o=xyz"), Action::Modify);

  // Interval 2: rename E3 -> E5 (update corresponding to a modify DN which
  // does not move an in-content entry out is a delete action for the old DN
  // followed by an add action for the new DN).
  master->modify_dn(Dn::parse("cn=E3,o=xyz"), Dn::parse("cn=E5,o=xyz"));
  resync.pump();

  // S, (persist, cookie1) -> E3 delete, E5 add; connection stays open.
  const ReSyncResponse third = resync.handle(kQuery, {Mode::Persist, second.cookie});
  EXPECT_TRUE(third.persistent);
  actions.clear();
  for (const EntryPdu& pdu : third.pdus) {
    actions[pdu.dn.to_string()] = pdu.action;
  }
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions.at("cn=E3,o=xyz"), Action::Delete);
  EXPECT_EQ(actions.at("cn=E5,o=xyz"), Action::Add);

  // abandon.
  resync.abandon(cookie);
  EXPECT_EQ(resync.session_count(), 0u);
}

}  // namespace
}  // namespace fbdr::resync
