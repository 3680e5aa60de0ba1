// Threaded-vs-serial equivalence twin for the sharded master pump
// (DESIGN.md §13): a serial master (shards=1, threads=0 — the reference
// implementation) and a sharded multi-threaded master receive the identical
// seeded workload in lockstep. After every exchange and every pump/tick
// barrier the two must agree on everything externally observable — response
// bytes, cookies, persist-push sequences, session/history/degradation
// aggregates, governor counters and shipped traffic. Schedules cover session
// expiry racing the poll cadence, governor busy/degrade/collapse under tight
// caps, pagination, abandons and a mid-run master reset.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ldap/error.h"
#include "resync/master.h"
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
  for (int i = 0; i < 30; ++i) {
    master->load(make_entry(
        "cn=E" + std::to_string(i) + ",o=xyz",
        {{"objectclass", "person"}, {"dept", std::to_string(i % 4 * 25 + 5)}}));
  }
  return master;
}

const std::vector<Query>& queries() {
  static const std::vector<Query> kQueries = {
      Query::parse("o=xyz", Scope::Subtree, "(dept=5)"),
      Query::parse("o=xyz", Scope::Subtree, "(dept=30)"),
      Query::parse("o=xyz", Scope::Subtree, "(dept=55)"),
      Query::parse("o=xyz", Scope::Subtree, "(objectclass=person)"),
      Query::parse("o=xyz", Scope::Subtree, "(&(objectclass=person)(dept=80))"),
  };
  return kQueries;
}

/// Everything a replica could observe from one response, as one string.
std::string fingerprint(const ReSyncResponse& response) {
  std::ostringstream out;
  out << "cookie=" << response.cookie << " persistent=" << response.persistent
      << " full=" << response.full_reload
      << " enum=" << response.complete_enumeration
      << " busy=" << response.busy << " more=" << response.more
      << " cont=" << response.continued << " origin=" << response.origin_time
      << " referral=" << response.referral_url;
  if (response.reconcile) {
    out << " rec(in_sync=" << response.reconcile->in_sync
        << ",fallback=" << response.reconcile->fallback << ")";
  }
  for (const EntryPdu& pdu : response.pdus) out << "\n  " << pdu.to_string();
  return out.str();
}

std::string governor_fingerprint(const GovernorStats& stats) {
  return stats.to_string();
}

/// Identical op stream on both directory masters.
void mutate_both(std::mt19937& rng, int& next_cn, server::DirectoryServer& a,
                 server::DirectoryServer& b) {
  const int op = std::uniform_int_distribution<int>(0, 99)(rng);
  const int pick = std::uniform_int_distribution<int>(0, 80)(rng);
  const std::string dept = std::to_string(pick % 4 * 25 + 5);
  const Dn target = Dn::parse("cn=E" + std::to_string(pick) + ",o=xyz");
  const auto apply = [&](server::DirectoryServer& master) {
    try {
      if (op < 35) {
        master.add(make_entry("cn=E" + std::to_string(next_cn) + ",o=xyz",
                              {{"objectclass", "person"}, {"dept", dept}}));
      } else if (op < 55) {
        master.remove(target);
      } else if (op < 90) {
        master.modify(target, {{Modification::Op::Replace, "dept", {dept}}});
      } else {
        master.modify_dn(target,
                         Dn::parse("cn=R" + std::to_string(next_cn) + ",o=xyz"));
      }
    } catch (const ldap::OperationError&) {
      // Missing random target: identical noise on both sides.
    }
  };
  apply(a);
  apply(b);
  ++next_cn;
}

struct ShardSchedule {
  std::uint64_t seed;
  std::size_t shards;
  std::size_t threads;
  bool governed;   // tight caps: busy admission, degrade/collapse, paging
  int reset_step;  // -1 disables the mid-run master restart
};

/// The twin harness: one client-side session slot tracked against both
/// masters in lockstep. Cookies are compared on every exchange, so the
/// slots never drift apart.
struct SessionSlot {
  std::size_t query_index = 0;
  Mode mode = Mode::Poll;
  std::string cookie_a;
  std::string cookie_b;
  bool alive = false;
};

class ShardEquivalence : public ::testing::TestWithParam<ShardSchedule> {};

TEST_P(ShardEquivalence, ThreadedPumpMatchesSerialTwin) {
  const ShardSchedule schedule = GetParam();

  auto dir_a = make_master();
  auto dir_b = make_master();
  ReSyncMaster serial(*dir_a);
  ReSyncMaster sharded(*dir_b);
  sharded.set_pump_shards(schedule.shards);
  sharded.set_pump_threads(schedule.threads);

  // Expiry races: short admin limit, so sessions that miss a few poll
  // rounds die between exchanges and later polls must go stale on BOTH.
  serial.set_session_time_limit(12);
  sharded.set_session_time_limit(12);

  if (schedule.governed) {
    ResourceLimits limits;
    limits.max_sessions = 4;          // busy bounces
    limits.max_session_history = 6;   // eq.(3) degradation + collapse
    limits.max_total_history = 18;    // cross-shard global victim selection
    limits.max_page_entries = 8;      // pagination
    limits.max_replay_bytes = 512;    // replay-cache stripping
    serial.set_resource_limits(limits);
    sharded.set_resource_limits(limits);
  }

  // Persist pushes must arrive in the identical global order.
  std::vector<std::string> pushes_a;
  std::vector<std::string> pushes_b;
  serial.set_notification_sink(
      [&](const std::string& cookie, const std::vector<EntryPdu>& pdus) {
        std::string line = cookie;
        for (const EntryPdu& pdu : pdus) line += "|" + pdu.to_string();
        pushes_a.push_back(std::move(line));
      });
  sharded.set_notification_sink(
      [&](const std::string& cookie, const std::vector<EntryPdu>& pdus) {
        std::string line = cookie;
        for (const EntryPdu& pdu : pdus) line += "|" + pdu.to_string();
        pushes_b.push_back(std::move(line));
      });

  std::vector<SessionSlot> slots(10);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].query_index = i % queries().size();
    slots[i].mode = (i % 3 == 2) ? Mode::Persist : Mode::Poll;
  }

  // Both sides must take the same action and observe the same outcome —
  // including the same exception class.
  const auto exchange_both = [&](const Query& query, const ReSyncControl& ctl_a,
                                 const ReSyncControl& ctl_b,
                                 ReSyncResponse& out_a, ReSyncResponse& out_b) {
    int threw_a = 0;
    int threw_b = 0;
    try {
      out_a = serial.handle(query, ctl_a);
    } catch (const ldap::StaleCookieError&) {
      threw_a = 1;
    } catch (const ldap::ProtocolError&) {
      threw_a = 2;
    }
    try {
      out_b = sharded.handle(query, ctl_b);
    } catch (const ldap::StaleCookieError&) {
      threw_b = 1;
    } catch (const ldap::ProtocolError&) {
      threw_b = 2;
    }
    EXPECT_EQ(threw_a, threw_b) << "exception class diverged";
    return threw_a == 0 && threw_b == 0;
  };

  const auto start_slot = [&](SessionSlot& slot) {
    const Query& query = queries()[slot.query_index];
    ReSyncResponse ra, rb;
    if (!exchange_both(query, {slot.mode, ""}, {slot.mode, ""}, ra, rb)) return;
    ASSERT_EQ(fingerprint(ra), fingerprint(rb));
    if (ra.busy) return;  // identically bounced at the cap
    slot.cookie_a = ra.cookie;
    slot.cookie_b = rb.cookie;
    slot.alive = true;
    // Drain initial pagination so the session starts clean.
    while (ra.more) {
      ASSERT_TRUE(exchange_both(query, {Mode::Poll, slot.cookie_a},
                                {Mode::Poll, slot.cookie_b}, ra, rb));
      ASSERT_EQ(fingerprint(ra), fingerprint(rb));
      slot.cookie_a = ra.cookie;
      slot.cookie_b = rb.cookie;
    }
  };

  const auto poll_slot = [&](SessionSlot& slot) {
    const Query& query = queries()[slot.query_index];
    ReSyncResponse ra, rb;
    if (!exchange_both(query, {Mode::Poll, slot.cookie_a},
                       {Mode::Poll, slot.cookie_b}, ra, rb)) {
      slot.alive = false;  // stale on both: the session expired
      return;
    }
    ASSERT_EQ(fingerprint(ra), fingerprint(rb));
    slot.cookie_a = ra.cookie;
    slot.cookie_b = rb.cookie;
  };

  const auto compare_masters = [&](int step) {
    ASSERT_EQ(serial.session_count(), sharded.session_count()) << "step " << step;
    ASSERT_EQ(serial.open_connections(), sharded.open_connections())
        << "step " << step;
    ASSERT_EQ(serial.history_size(), sharded.history_size()) << "step " << step;
    ASSERT_EQ(serial.history_units(), sharded.history_units()) << "step " << step;
    ASSERT_EQ(serial.degraded_sessions(), sharded.degraded_sessions())
        << "step " << step;
    ASSERT_EQ(serial.replay_cache_bytes(), sharded.replay_cache_bytes())
        << "step " << step;
    ASSERT_EQ(serial.replays_suppressed(), sharded.replays_suppressed())
        << "step " << step;
    ASSERT_EQ(governor_fingerprint(serial.governor_stats()),
              governor_fingerprint(sharded.governor_stats()))
        << "step " << step;
    ASSERT_EQ(serial.traffic().entries, sharded.traffic().entries)
        << "step " << step;
    ASSERT_EQ(serial.traffic().dns_only, sharded.traffic().dns_only)
        << "step " << step;
    ASSERT_EQ(serial.traffic().pdus, sharded.traffic().pdus) << "step " << step;
    // Folded candidate counts equal the global router's (routed_changes is
    // per-shard invocations, so it is intentionally not compared).
    ASSERT_EQ(serial.routing_stats().candidates,
              sharded.routing_stats().candidates)
        << "step " << step;
    ASSERT_EQ(serial.routing_stats().exhaustive,
              sharded.routing_stats().exhaustive)
        << "step " << step;
    ASSERT_EQ(pushes_a, pushes_b) << "persist push order diverged at step "
                                  << step;
  };

  for (SessionSlot& slot : slots) start_slot(slot);

  std::mt19937 rng(static_cast<unsigned>(schedule.seed));
  int next_cn = 100;
  for (int step = 0; step < 160 && !::testing::Test::HasFatalFailure(); ++step) {
    mutate_both(rng, next_cn, *dir_a, *dir_b);
    serial.pump();
    sharded.pump();
    serial.tick();
    sharded.tick();
    compare_masters(step);

    if (step == schedule.reset_step) {
      // Master restart: all session state is lost on both; every live
      // cookie goes stale and the slots re-establish from scratch.
      serial.reset();
      sharded.reset();
      for (SessionSlot& slot : slots) slot.alive = false;
      for (SessionSlot& slot : slots) start_slot(slot);
      continue;
    }

    // Rotating poll cadence: some slots poll often, some rarely enough to
    // race the 12-tick expiry; dead or bounced slots periodically retry.
    for (std::size_t i = 0; i < slots.size(); ++i) {
      SessionSlot& slot = slots[i];
      const int cadence = 2 + static_cast<int>(i % 5) * 4;  // 2..18 ticks
      if (slot.alive && slot.mode == Mode::Poll &&
          step % cadence == static_cast<int>(i) % cadence) {
        poll_slot(slot);
      } else if (!slot.alive && step % 9 == static_cast<int>(i) % 9) {
        start_slot(slot);
      }
    }

    // Occasional client-side teardown exercises drop paths on both.
    if (step % 37 == 17) {
      SessionSlot& slot = slots[step % slots.size()];
      if (slot.alive) {
        serial.abandon(slot.cookie_a);
        sharded.abandon(slot.cookie_b);
        slot.alive = false;
      }
    }
  }

  // Final barrier: drain once more and compare everything.
  serial.pump();
  sharded.pump();
  compare_masters(-1);
  for (SessionSlot& slot : slots) {
    if (slot.alive && slot.mode == Mode::Poll) poll_slot(slot);
  }
  ASSERT_EQ(pushes_a, pushes_b);
  EXPECT_EQ(serial.pump_shards(), 1u);
  EXPECT_EQ(sharded.pump_shards(), schedule.shards);
}

std::vector<ShardSchedule> schedules() {
  std::vector<ShardSchedule> all;
  for (const std::uint64_t seed : {20050501ull, 31337ull, 777ull, 424242ull}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{8}}) {
      // Ungoverned with a mid-run reset, and governed (busy/degrade/paging)
      // without — both against a 4-thread pump.
      all.push_back({seed, shards, 4, false, 80});
      all.push_back({seed, shards, 4, true, -1});
    }
  }
  return all;
}

INSTANTIATE_TEST_SUITE_P(
    SeededTwins, ShardEquivalence, ::testing::ValuesIn(schedules()),
    [](const ::testing::TestParamInfo<ShardSchedule>& info) {
      return "seed" + std::to_string(info.param.seed) + "_shards" +
             std::to_string(info.param.shards) +
             (info.param.governed ? "_governed" : "_reset");
    });

// Repartitioning with live sessions must be refused: router registrations
// cannot be rehashed in place.
TEST(ShardConfig, RejectsRepartitionWithLiveSessions) {
  auto dir = make_master();
  ReSyncMaster master(*dir);
  ASSERT_EQ(master.pump_shards(), 1u);
  master.set_pump_shards(4);
  ASSERT_EQ(master.pump_shards(), 4u);
  const ReSyncResponse r =
      master.handle(queries()[0], {Mode::Poll, ""});
  ASSERT_FALSE(r.cookie.empty());
  EXPECT_THROW(master.set_pump_shards(2), std::logic_error);
  EXPECT_EQ(master.pump_shards(), 4u);
  // After the sessions are gone, repartitioning is allowed again.
  master.reset();
  master.set_pump_shards(2);
  EXPECT_EQ(master.pump_shards(), 2u);
  // shards=0 is normalized to the serial single shard.
  master.set_pump_shards(0);
  EXPECT_EQ(master.pump_shards(), 1u);
}

// A worker that throws must not wedge the pool: the exception surfaces from
// pump() and the master keeps working afterwards.
TEST(ShardConfig, ThreadCountIsReconfigurable) {
  auto dir = make_master();
  ReSyncMaster master(*dir);
  master.set_pump_shards(8);
  master.set_pump_threads(4);
  EXPECT_EQ(master.pump_threads(), 4u);
  const ReSyncResponse r = master.handle(queries()[3], {Mode::Persist, ""});
  ASSERT_FALSE(r.cookie.empty());
  dir->add(make_entry("cn=X1,o=xyz",
                      {{"objectclass", "person"}, {"dept", "5"}}));
  master.pump();
  master.set_pump_threads(2);
  dir->add(make_entry("cn=X2,o=xyz",
                      {{"objectclass", "person"}, {"dept", "5"}}));
  master.pump();
  master.set_pump_threads(0);
  dir->add(make_entry("cn=X3,o=xyz",
                      {{"objectclass", "person"}, {"dept", "5"}}));
  master.pump();
  EXPECT_EQ(master.session_count(), 1u);
}

}  // namespace
}  // namespace fbdr::resync
