// Chaos/soak test for the fault-injectable ReSync transport: N replicas run
// against a mutating master over a FramedChannel whose FaultyPipe drops,
// duplicates, reorders, delays and resets exchanges (and, on the corrupting
// schedules, flips bits in and truncates frames) and crashes/restarts the
// master, while a fault-free twin master receives the identical update
// stream over DirectChannels. After quiescence every faulty-side replica
// must be byte-equivalent to its twin (and to the master truth), with
// replays detected-and-suppressed on the faulty run and zero on the twin.

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/replication_service.h"
#include "ldap/error.h"
#include "net/fault_injector.h"
#include "net/framed_channel.h"
#include "wire/codec.h"
#include "resync/replica_client.h"
#include "server/directory_server.h"
#include "sync/content_tracker.h"
#include "workload/directory_gen.h"

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
    master->load(make_entry(
        "cn=E" + std::to_string(i) + ",o=xyz",
        {{"objectclass", "person"}, {"dept", std::to_string(i % 3 * 35 + 7)}}));
  }
  return master;
}

const std::vector<Query> kQueries = {
    Query::parse("o=xyz", Scope::Subtree, "(dept=7)"),
    Query::parse("o=xyz", Scope::Subtree, "(dept=42)"),
    Query::parse("o=xyz", Scope::Subtree, "(objectclass=person)"),
};

std::vector<std::string> master_truth(const server::DirectoryServer& master,
                                      const Query& query) {
  sync::ContentTracker tracker(query);
  tracker.initialize(master.dit());
  return tracker.content_keys();
}

/// One operation drawn from `rng`, applied identically to every master so
/// the faulty worlds and the fault-free twin see the same history.
void mutate_all(std::mt19937& rng, int& next_cn,
                std::initializer_list<server::DirectoryServer*> masters) {
  const int op = std::uniform_int_distribution<int>(0, 99)(rng);
  const int pick = std::uniform_int_distribution<int>(0, 60)(rng);
  const std::string dept = std::to_string(pick % 3 * 35 + 7);
  const Dn target = Dn::parse("cn=E" + std::to_string(pick) + ",o=xyz");
  const auto apply = [&](server::DirectoryServer& master) {
    try {
      if (op < 35) {
        master.add(make_entry("cn=E" + std::to_string(next_cn) + ",o=xyz",
                              {{"objectclass", "person"}, {"dept", dept}}));
      } else if (op < 60) {
        master.remove(target);
      } else if (op < 90) {
        master.modify(target, {{Modification::Op::Replace, "dept", {dept}}});
      } else {
        master.modify_dn(target, Dn::parse("cn=R" + std::to_string(next_cn) +
                                           ",o=xyz"));
      }
    } catch (const ldap::OperationError&) {
      // Missing random target: acceptable stream noise (identical on every
      // master, so the histories stay in lockstep).
    }
  };
  for (server::DirectoryServer* master : masters) apply(*master);
  ++next_cn;
}

struct ChaosSchedule {
  std::uint64_t seed;
  net::FaultConfig faults;
  int crash_step;    // -1 disables the master crash
  int restart_step;

  bool damages_bytes() const {
    return faults.corrupt > 0.0 || faults.truncate > 0.0;
  }
  std::string name() const {
    return (damages_bytes() ? "corrupt_seed" : "lossy_seed") +
           std::to_string(seed);
  }
};

// gtest prints parameters into the test listing; without this it would
// dump the struct's raw bytes.
void PrintTo(const ChaosSchedule& schedule, std::ostream* os) {
  *os << schedule.name();
  if (schedule.crash_step < 0) {
    *os << " no crash";
  } else {
    *os << " crash " << schedule.crash_step << ".." << schedule.restart_step;
  }
}

class ReSyncChaos : public ::testing::TestWithParam<ChaosSchedule> {};

TEST_P(ReSyncChaos, ConvergesToFaultFreeTwinAfterQuiescence) {
  const ChaosSchedule schedule = GetParam();

  auto faulty_master = make_master();
  auto twin_master = make_master();
  ReSyncMaster faulty_resync(*faulty_master);
  ReSyncMaster twin_resync(*twin_master);
  faulty_resync.set_session_time_limit(60);
  twin_resync.set_session_time_limit(60);

  auto pipe = std::make_shared<net::FaultyPipe>(faulty_resync, schedule.faults);
  net::FramedChannel faulty_channel(pipe);
  net::DirectChannel twin_channel(twin_resync);

  net::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.base_backoff_ticks = 1;
  retry.multiplier = 2.0;
  retry.max_backoff_ticks = 6;
  retry.jitter_seed = schedule.seed;

  std::vector<std::unique_ptr<ReSyncReplica>> faulty_replicas;
  std::vector<std::unique_ptr<ReSyncReplica>> twin_replicas;
  for (const Query& query : kQueries) {
    auto faulty = std::make_unique<ReSyncReplica>(faulty_channel, query);
    faulty->set_auto_recover(true);
    faulty->set_retry_policy(retry);
    while (true) {
      try {
        faulty->start(Mode::Poll);
        break;
      } catch (const net::TransportError&) {
        // Even session establishment may be retried by a real deployment.
      }
    }
    faulty_replicas.push_back(std::move(faulty));

    auto twin = std::make_unique<ReSyncReplica>(twin_channel, query);
    twin->set_auto_recover(true);
    twin->start(Mode::Poll);
    twin_replicas.push_back(std::move(twin));
  }

  std::mt19937 rng(static_cast<unsigned>(schedule.seed));
  int next_cn = 100;
  for (int step = 0; step < 240; ++step) {
    mutate_all(rng, next_cn, {faulty_master.get(), twin_master.get()});
    faulty_resync.pump();
    twin_resync.pump();
    faulty_resync.tick();
    twin_resync.tick();

    if (step == schedule.crash_step) pipe->crash_master();
    if (step == schedule.restart_step) pipe->restart_master();

    if (step % 7 == 0) {
      for (std::size_t i = 0; i < kQueries.size(); ++i) {
        twin_replicas[i]->poll();
        try {
          faulty_replicas[i]->poll();
        } catch (const net::TransportError&) {
          // Retry budget exhausted this round (possibly by a damaged
          // frame) — the replica stays behind and catches up on a later
          // poll.
        }
      }
    }
  }

  // Quiescence: the link heals, stray duplicates drain, and every replica
  // completes one clean poll (recovering first if the crash ate its
  // session).
  net::FaultConfig clean;
  clean.seed = schedule.faults.seed;
  pipe->set_config(clean);
  if (pipe->master_down()) pipe->restart_master();
  pipe->flush_replays();
  faulty_resync.pump();
  twin_resync.pump();
  for (std::size_t i = 0; i < kQueries.size(); ++i) {
    faulty_replicas[i]->poll();
    twin_replicas[i]->poll();
  }

  for (std::size_t i = 0; i < kQueries.size(); ++i) {
    const auto truth = master_truth(*faulty_master, kQueries[i]);
    EXPECT_EQ(faulty_replicas[i]->content().keys(), truth)
        << "faulty replica " << i << " diverged (" << schedule.name() << ")";
    EXPECT_EQ(twin_replicas[i]->content().keys(),
              master_truth(*twin_master, kQueries[i]))
        << "twin replica " << i << " diverged (" << schedule.name() << ")";
    // Identical update streams => identical content on both sides.
    EXPECT_EQ(faulty_replicas[i]->content().keys(),
              twin_replicas[i]->content().keys())
        << "faulty/twin mismatch for replica " << i;
  }

  // The schedule must actually have hurt, and the replay protection must
  // have fired: duplicated/retried polls were answered from the replay
  // cache, never applied twice (content equality above proves the latter).
  EXPECT_GT(pipe->counters().faults(), 0u);
  EXPECT_GT(faulty_resync.replays_suppressed(), 0u)
      << "schedule produced no suppressed replays (" << schedule.name() << ")";
  if (schedule.damages_bytes()) {
    // The byte faults actually fired and were detected, not silently
    // decoded into divergent content (equality above proves the latter).
    EXPECT_GT(pipe->counters().corrupted + pipe->counters().truncated, 0u)
        << "corrupting schedule produced no damaged frames ("
        << schedule.name() << ")";
  }
  EXPECT_EQ(twin_resync.replays_suppressed(), 0u);
  if (schedule.crash_step >= 0) {
    std::uint64_t recoveries = 0;
    for (const auto& replica : faulty_replicas) {
      recoveries += replica->recoveries();
    }
    EXPECT_GT(recoveries, 0u) << "master restart forced no recoveries";
  }
  // Every recovery is accounted as exactly one heal mode (DESIGN.md §12):
  // a digest-walk reconcile or a full reload (version gate, divergence
  // fallback, or an empty local content).
  for (const auto& replica : faulty_replicas) {
    EXPECT_EQ(replica->recoveries(),
              replica->full_reloads() + replica->reconciles())
        << "recovery split drifted (" << schedule.name() << ")";
    EXPECT_LE(replica->reconcile_fallbacks(), replica->full_reloads());
  }
}

net::FaultConfig lossy(std::uint64_t seed) {
  net::FaultConfig config;
  config.seed = seed;
  config.drop_request = 0.10;
  config.drop_response = 0.10;
  config.duplicate = 0.20;
  config.reorder = 0.50;
  config.reset = 0.10;
  config.delay = 0.15;
  config.max_delay_ticks = 3;
  return config;
}

/// lossy() plus the byte faults: flipped bits and truncated frames surface
/// as checksum/decoder failures and must heal through the same retry and
/// replay-cookie machinery.
net::FaultConfig corrupting(std::uint64_t seed) {
  net::FaultConfig config = lossy(seed);
  config.corrupt = 0.08;
  config.truncate = 0.05;
  return config;
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ReSyncChaos,
    ::testing::Values(
        // drop + duplicate + reorder + delay + reset, master crash mid-run
        ChaosSchedule{20050501, lossy(20050501), 80, 95},
        // heavier loss, later crash with a longer outage
        ChaosSchedule{31337, lossy(31337), 150, 190},
        // no crash: pure link chaos
        ChaosSchedule{777, lossy(777), -1, -1},
        // crash while a poll burst is due
        ChaosSchedule{424242, lossy(424242), 63, 70},
        // the same four worlds with flipped bits and truncated frames
        ChaosSchedule{20050501, corrupting(20050501), 80, 95},
        ChaosSchedule{31337, corrupting(31337), 150, 190},
        ChaosSchedule{777, corrupting(777), -1, -1},
        ChaosSchedule{424242, corrupting(424242), 63, 70}),
    [](const ::testing::TestParamInfo<ChaosSchedule>& param_info) {
      return param_info.param.name();
    });

// Records the canonical wire encoding of every response a channel returns,
// so two runs can be compared response-by-response: identical logs mean
// every PDU, cookie, flag and origin time crossed the seam bit-identically.
class RecordingChannel final : public net::Channel {
 public:
  explicit RecordingChannel(net::Channel& inner) : inner_(&inner) {}

  ReSyncResponse exchange(const ldap::Query& query,
                          const ReSyncControl& control) override {
    ReSyncResponse response = inner_->exchange(query, control);
    log_.push_back(wire::Codec::encode_response(response));
    return response;
  }
  void abandon(const std::string& cookie) override { inner_->abandon(cookie); }
  void elapse(std::uint64_t ticks) override { inner_->elapse(ticks); }

  const std::vector<wire::Bytes>& log() const noexcept { return log_; }

 private:
  net::Channel* inner_;
  std::vector<wire::Bytes> log_;
};

// The codec transparency property: a fault-free framed link must be
// observationally identical to a DirectChannel — every response of every
// poll (compared in canonical wire encoding, cookies included) and the
// final replica entries match bit for bit across the existing chaos seeds'
// update streams.
class FramedTwin : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FramedTwin, FramedAndDirectRunsAreBitIdentical) {
  const std::uint64_t seed = GetParam();

  auto framed_master = make_master();
  auto direct_master = make_master();
  ReSyncMaster framed_resync(*framed_master);
  ReSyncMaster direct_resync(*direct_master);

  net::FramedChannel framed_channel(framed_resync);
  net::DirectChannel direct_channel(direct_resync);
  RecordingChannel framed_log(framed_channel);
  RecordingChannel direct_log(direct_channel);

  std::vector<std::unique_ptr<ReSyncReplica>> framed_replicas;
  std::vector<std::unique_ptr<ReSyncReplica>> direct_replicas;
  for (const Query& query : kQueries) {
    framed_replicas.push_back(std::make_unique<ReSyncReplica>(framed_log, query));
    framed_replicas.back()->start(Mode::Poll);
    direct_replicas.push_back(std::make_unique<ReSyncReplica>(direct_log, query));
    direct_replicas.back()->start(Mode::Poll);
  }

  std::mt19937 rng(static_cast<unsigned>(seed));
  int next_cn = 100;
  for (int step = 0; step < 120; ++step) {
    mutate_all(rng, next_cn, {framed_master.get(), direct_master.get()});
    framed_resync.pump();
    direct_resync.pump();
    if (step % 7 == 0) {
      for (std::size_t i = 0; i < kQueries.size(); ++i) {
        framed_replicas[i]->poll();
        direct_replicas[i]->poll();
      }
    }
  }
  framed_resync.pump();
  direct_resync.pump();
  for (std::size_t i = 0; i < kQueries.size(); ++i) {
    framed_replicas[i]->poll();
    direct_replicas[i]->poll();
  }

  // Every response that crossed either link, in canonical encoding.
  ASSERT_EQ(framed_log.log().size(), direct_log.log().size());
  for (std::size_t i = 0; i < framed_log.log().size(); ++i) {
    EXPECT_EQ(framed_log.log()[i], direct_log.log()[i])
        << "response " << i << " differs across the seam (seed " << seed << ")";
  }

  // Final replica content, entry by entry.
  for (std::size_t i = 0; i < kQueries.size(); ++i) {
    EXPECT_EQ(framed_replicas[i]->content().keys(),
              master_truth(*framed_master, kQueries[i]));
    const auto framed_entries = framed_replicas[i]->content().entries();
    const auto direct_entries = direct_replicas[i]->content().entries();
    ASSERT_EQ(framed_entries.size(), direct_entries.size());
    for (std::size_t j = 0; j < framed_entries.size(); ++j) {
      EXPECT_EQ(*framed_entries[j], *direct_entries[j])
          << "entry " << j << " of replica " << i << " differs";
    }
    EXPECT_EQ(framed_replicas[i]->cookie(), direct_replicas[i]->cookie());
  }

  // The framed link measured real frames: two per exchange, exact bytes.
  EXPECT_EQ(framed_channel.traffic().frames, 2 * framed_log.log().size());
  EXPECT_GT(framed_channel.traffic().bytes,
            framed_log.log().size() * wire::Codec::kFrameHeaderBytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FramedTwin,
                         ::testing::Values(20050501u, 31337u, 777u, 424242u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& p) {
                           return "seed" + std::to_string(p.param);
                         });

// Records every frame a pipe hands back (an empty frame where the
// transfer failed), so two runs can be compared byte for byte — damaged
// frames included.
class RecordingPipe final : public net::BytePipe {
 public:
  explicit RecordingPipe(std::shared_ptr<net::BytePipe> inner)
      : inner_(std::move(inner)) {}

  wire::Bytes transfer(const wire::Bytes& frame) override {
    try {
      wire::Bytes response = inner_->transfer(frame);
      log_.push_back(response);
      return response;
    } catch (const net::TransportError&) {
      log_.emplace_back();
      throw;
    }
  }
  void send(const wire::Bytes& frame) override { inner_->send(frame); }
  void elapse(std::uint64_t ticks) override { inner_->elapse(ticks); }

  const std::vector<wire::Bytes>& log() const noexcept { return log_; }

 private:
  std::shared_ptr<net::BytePipe> inner_;
  std::vector<wire::Bytes> log_;
};

struct FaultRun {
  net::FaultCounters counters;
  std::vector<wire::Bytes> responses;
};

/// Every counter, comparable and printable as one value.
auto fields(const net::FaultCounters& c) {
  return std::make_tuple(c.exchanges, c.dropped_requests, c.dropped_responses,
                         c.duplicated, c.replayed, c.delayed, c.resets,
                         c.rejected_while_down, c.outages, c.corrupted,
                         c.truncated);
}

/// One faulty world from scratch: a fresh master, replicas polling it over
/// a FaultyPipe configured by `faults`, and a fixed mutation stream. The
/// request sequence depends only on what the pipe does to it.
FaultRun run_faulty_world(const net::FaultConfig& faults) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  resync.set_session_time_limit(60);
  auto pipe = std::make_shared<net::FaultyPipe>(resync, faults);
  auto recorder = std::make_shared<RecordingPipe>(pipe);
  net::FramedChannel channel(recorder);

  net::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.jitter_seed = 99;

  std::vector<std::unique_ptr<ReSyncReplica>> replicas;
  for (const Query& query : kQueries) {
    auto replica = std::make_unique<ReSyncReplica>(channel, query);
    replica->set_auto_recover(true);
    replica->set_retry_policy(retry);
    while (!replica->active()) {
      try {
        replica->start(Mode::Poll);
      } catch (const net::TransportError&) {
      }
    }
    replicas.push_back(std::move(replica));
  }

  std::mt19937 rng(2005);
  int next_cn = 100;
  for (int step = 0; step < 120; ++step) {
    mutate_all(rng, next_cn, {master.get()});
    resync.pump();
    resync.tick();
    if (step % 5 != 0) continue;
    for (auto& replica : replicas) {
      try {
        replica->poll();
      } catch (const net::TransportError&) {
      }
    }
  }
  pipe->flush_replays();

  return {pipe->counters(), recorder->log()};
}

// FaultConfig's promise: a (seed, schedule) pair replays the exact same
// fault sequence. Twin worlds under one lossy+corrupting config end with
// identical counters and byte-identical responses; another seed does not.
TEST(FaultReplay, SameSeedReplaysTheExactFaultSequence) {
  const FaultRun first = run_faulty_world(corrupting(20050501));
  const FaultRun second = run_faulty_world(corrupting(20050501));
  const FaultRun other = run_faulty_world(corrupting(31337));

  EXPECT_GT(first.counters.corrupted + first.counters.truncated, 0u)
      << "the schedule damaged no frames";
  EXPECT_EQ(fields(first.counters), fields(second.counters));
  ASSERT_EQ(first.responses.size(), second.responses.size());
  for (std::size_t i = 0; i < first.responses.size(); ++i) {
    EXPECT_EQ(first.responses[i], second.responses[i]) << "response " << i;
  }
  EXPECT_NE(fields(first.counters), fields(other.counters));
  EXPECT_NE(first.responses, other.responses);
}

// Service-level graceful degradation: a FilterReplicationService whose
// master goes down keeps serving containment hits from stale local content,
// surfaces the degradation through HealthStats, and heals with a full
// reload on reconnect.
TEST(ServiceDegradation, DegradedFilterServesStaleContentAndHeals) {
  workload::DirectoryConfig config;
  config.employees = 300;
  config.countries = 3;
  config.divisions = 4;
  config.depts_per_division = 4;
  config.locations = 6;
  workload::EnterpriseDirectory dir = workload::generate_directory(config);

  auto registry = std::make_shared<ldap::TemplateRegistry>();
  registry->add("(serialnumber=_*)");

  core::FilterReplicationService::Config service_config;
  service_config.retry.max_attempts = 3;
  service_config.retry.base_backoff_ticks = 1;
  core::FilterReplicationService service(dir.master, service_config, registry);

  net::FaultConfig quiet;
  quiet.seed = 7;
  auto pipe = std::make_shared<net::FaultyPipe>(service.resync(), quiet);
  service.set_channel(std::make_shared<net::FramedChannel>(pipe));

  const Query block = Query::parse("", Scope::Subtree, "(serialnumber=00*)");
  service.install(block);
  const std::string key = block.key();

  // Healthy baseline: a contained query (an employee of division 0, serial
  // prefix "00") hits and is not stale.
  const workload::EmployeeInfo& target =
      dir.employees[dir.division_members[0][0]];
  ASSERT_EQ(target.serial.substr(0, 2), "00");
  const Query probe =
      Query::parse("", Scope::Subtree, "(serialnumber=" + target.serial + ")");
  core::ServeOutcome outcome = service.serve(probe);
  EXPECT_TRUE(outcome.hit);
  EXPECT_FALSE(outcome.stale);
  EXPECT_FALSE(service.health().any_degraded());

  // The master goes down; changes keep landing that the replica cannot see.
  pipe->crash_master();
  dir.master->modify(target.dn,
                     {{Modification::Op::Replace, "mail", {"moved@x.com"}}});
  service.sync();  // transport fails past the retry budget -> degraded

  net::HealthStats health = service.health();
  ASSERT_TRUE(health.filters.count(key) > 0);
  EXPECT_TRUE(health.filters.at(key).degraded);
  EXPECT_EQ(health.degraded_count(), 1u);

  // Degraded serve: still a containment hit, flagged stale, answered from
  // the pre-outage content.
  outcome = service.serve(probe);
  EXPECT_TRUE(outcome.hit);
  EXPECT_TRUE(outcome.stale);
  bool stale_mail = false;
  for (const auto& entry : service.filter_replica().answer(probe)) {
    stale_mail = !entry->has_value("mail", "moved@x.com");
  }
  EXPECT_TRUE(stale_mail) << "degraded filter should serve pre-outage content";

  // Staleness grows while the outage lasts.
  pipe->elapse(10);
  service.sync();  // still down
  health = service.health();
  EXPECT_TRUE(health.filters.at(key).degraded);
  EXPECT_GE(health.filters.at(key).ticks_behind, 10u);
  EXPECT_GT(health.filters.at(key).failed_syncs, 0u);

  // Reconnect: the next sync heals the filter — via a reconcile walk, since
  // the local content survived the outage (DESIGN.md §12).
  pipe->restart_master();
  service.sync();
  health = service.health();
  EXPECT_FALSE(health.filters.at(key).degraded);
  EXPECT_GT(health.filters.at(key).recoveries, 0u);
  EXPECT_EQ(health.filters.at(key).recoveries,
            health.filters.at(key).full_reloads +
                health.filters.at(key).reconciles);
  EXPECT_GT(health.filters.at(key).reconciles, 0u);
  outcome = service.serve(probe);
  EXPECT_TRUE(outcome.hit);
  EXPECT_FALSE(outcome.stale);
  bool fresh_mail = false;
  for (const auto& entry : service.filter_replica().answer(probe)) {
    fresh_mail = entry->has_value("mail", "moved@x.com");
  }
  EXPECT_TRUE(fresh_mail) << "healed filter should serve the missed update";
}

// Session expiry racing the service's poll cadence: the master's admin
// limit expires the session between syncs; the service recovers in place
// (a reconcile walk — the link itself is healthy) instead of degrading.
TEST(ServiceDegradation, ExpiredSessionHealsWithoutDegrading) {
  workload::DirectoryConfig config;
  config.employees = 120;
  config.countries = 2;
  config.geo_countries = 1;
  config.divisions = 2;
  config.depts_per_division = 3;
  config.locations = 4;
  workload::EnterpriseDirectory dir = workload::generate_directory(config);

  auto registry = std::make_shared<ldap::TemplateRegistry>();
  registry->add("(serialnumber=_*)");
  core::FilterReplicationService service(
      dir.master, core::FilterReplicationService::Config{}, registry);
  service.resync().set_session_time_limit(5);

  const Query block = Query::parse("", Scope::Subtree, "(serialnumber=00*)");
  service.install(block);

  const workload::EmployeeInfo& target =
      dir.employees[dir.division_members[0][0]];
  ASSERT_EQ(target.serial.substr(0, 2), "00");
  dir.master->modify(target.dn,
                     {{Modification::Op::Replace, "mail", {"late@x.com"}}});
  service.resync().tick(10);  // expire the session before the poll lands
  service.sync();

  const net::HealthStats health = service.health();
  EXPECT_FALSE(health.any_degraded());
  EXPECT_EQ(health.filters.at(block.key()).recoveries, 1u);
  // The recovery reconciled: only the one divergent entry shipped, not the
  // whole block.
  EXPECT_EQ(health.filters.at(block.key()).reconciles, 1u);
  EXPECT_EQ(health.filters.at(block.key()).full_reloads, 0u);
  EXPECT_EQ(health.filters.at(block.key()).reconcile_entries_shipped, 1u);
  bool found = false;
  for (const auto& entry : service.filter_replica().query_content(0)) {
    if (entry->dn() == target.dn) {
      found = entry->has_value("mail", "late@x.com");
    }
  }
  EXPECT_TRUE(found) << "recovery should carry the missed update";
}

}  // namespace
}  // namespace fbdr::resync
