// The replication protocol over real processes: a depth-3 chain of
// fork/exec'd fbdr_node binaries (root -> d1 -> d2 -> leaf, Unix-domain
// sockets, serialnumber bit-prefix containment filters) receives the same
// journaled mutation stream as a fault-free in-process twin chain, through
// the same deepest-first tick discipline. After quiescence every process
// node's content must equal its twin's and the master truth. A second
// schedule SIGKILLs the mid-chain relay mid-run and respawns it: the
// descendants heal through the unknown-session StaleCookieError /
// full-reload path, which is the entire point of the cookie lineage design.
//
// (Shared fixtures live in netio_test_util.h; netio_chaos_test.cpp drives
// the same chain through ChaosProxy fault schedules and supervision.)
//
// Skips loudly when the sandbox forbids sockets or fork/exec.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "netio/process_topology.h"
#include "netio_test_util.h"
#include "topology/runtime.h"

#ifndef FBDR_NODE_BIN
#error "netio_process_test needs FBDR_NODE_BIN (path to the fbdr_node binary)"
#endif

namespace fbdr::netio {
namespace {

using testutil::assert_converged;
using testutil::build_tree;
using testutil::make_workdir;
using testutil::master_truth;
using testutil::mirror_keys;
using testutil::MutationStream;
using testutil::serial_of;
using testutil::serial_query;
using testutil::serial_spec;
using testutil::topology_options;
using testutil::RuntimeTwin;

TEST(ProcessTopologyTest, DepthThreeChainConvergesToInProcessTwin) {
  SKIP_WITHOUT_SOCKETS();
  const std::string workdir = make_workdir();
  ASSERT_FALSE(workdir.empty());

  ProcessTopology procs(topology_options(workdir, FBDR_NODE_BIN));
  build_tree(procs);
  ASSERT_NO_THROW(procs.start());

  RuntimeTwin twin;
  MutationStream stream(procs, twin);
  stream.seed();

  // Install top-down on both sides, then interleave mutations with ticks.
  for (const char* name : {"d1", "d2", "leaf"}) {
    procs.control(name).request("installall");
  }
  ASSERT_TRUE(twin.runtime.install());

  for (int round = 0; round < 12; ++round) {
    stream.add(0, 10 + round);           // inside every chain filter
    stream.add(7, 10 + round);           // outside d1's subtree entirely
    if (round % 3 == 0) stream.remove(0, round / 3);
    if (round % 4 == 0) {
      stream.relabel(1, round / 4, serial_of(0, 40 + round));
    }
    procs.tick();
    twin.runtime.tick();
  }
  // Quiescence: no new mutations, a few healing rounds.
  for (int round = 0; round < 4; ++round) {
    procs.tick();
    twin.runtime.tick();
  }

  assert_converged(procs, twin, "fault-free chain");

  // The frame plane really carried the tree's sessions.
  const auto d1_health = procs.health("d1");
  EXPECT_EQ(d1_health.at("role"), "relay");
  EXPECT_EQ(d1_health.at("degraded"), "0");
  EXPECT_GT(std::stoul(procs.health("root").at("frames_in")), 0u);
  EXPECT_GT(std::stoul(d1_health.at("frames_in")), 0u);

  procs.stop();
}

TEST(ProcessTopologyTest, MidChainRelayCrashHealsThroughStaleCookies) {
  SKIP_WITHOUT_SOCKETS();
  const std::string workdir = make_workdir();
  ASSERT_FALSE(workdir.empty());

  ProcessTopology procs(topology_options(workdir, FBDR_NODE_BIN));
  build_tree(procs);
  ASSERT_NO_THROW(procs.start());

  RuntimeTwin twin;
  MutationStream stream(procs, twin);
  stream.seed();
  for (const char* name : {"d1", "d2", "leaf"}) {
    procs.control(name).request("installall");
  }
  ASSERT_TRUE(twin.runtime.install());
  for (int round = 0; round < 4; ++round) {
    procs.tick();
    twin.runtime.tick();
  }
  const auto leaf_before = procs.health("leaf");

  // SIGKILL the mid-chain relay: no goodbye, its mirror and every
  // downstream session die with the process. The twin stays healthy — it
  // is the reference the crashed world must converge back to.
  procs.crash("d2");
  EXPECT_FALSE(procs.running("d2"));

  // The world keeps moving while d2 is down; the leaf's upstream exchanges
  // fail fast (connection refused) and it degrades.
  for (int round = 0; round < 3; ++round) {
    stream.add(0, 20 + round);
    procs.tick();
    twin.runtime.tick();
  }

  // Back — as a FRESH process: empty mirror, no sessions, no memory of the
  // cookies it issued. Its own sync rebuilds from d1; the leaf's next poll
  // presents a cookie the new process never issued and gets
  // StaleCookieError, the full-reload recovery, and fresh content.
  procs.respawn("d2");
  procs.control("d2").request("installall");
  for (int round = 0; round < 6; ++round) {
    stream.add(0, 30 + round);
    procs.tick();
    twin.runtime.tick();
  }
  for (int round = 0; round < 4; ++round) {
    procs.tick();
    twin.runtime.tick();
  }

  assert_converged(procs, twin, "after mid-chain crash + respawn");

  // The heal went through the recovery surface, not silent resumption:
  // the leaf re-established at least one upstream session, every one of
  // its recoveries accounted as a full reload or a reconciliation walk.
  const auto leaf_after = procs.health("leaf");
  const unsigned long recoveries = std::stoul(leaf_after.at("recoveries"));
  EXPECT_GT(recoveries, std::stoul(leaf_before.at("recoveries")));
  EXPECT_EQ(leaf_after.at("degraded"), "0");

  procs.stop();
}

// Journals are bounded by their readers: every node's journal (the root's
// store, each relay's mirror) drops what its master has pumped, so over 200
// rounds of 4 commits no node holds more than one round's records, and the
// health plane shows it while the tree runs.
TEST(ProcessTopologyTest, JournalsHoldAtMostOneRoundOfCommits) {
  SKIP_WITHOUT_SOCKETS();
  const std::string workdir = make_workdir();
  ASSERT_FALSE(workdir.empty());

  ProcessTopology procs(topology_options(workdir, FBDR_NODE_BIN));
  build_tree(procs);
  ASSERT_NO_THROW(procs.start());

  RuntimeTwin twin;
  MutationStream stream(procs, twin);
  stream.seed();
  for (const char* name : {"d1", "d2", "leaf"}) {
    procs.control(name).request("installall");
  }
  ASSERT_TRUE(twin.runtime.install());
  procs.tick();  // pumps the seed adds
  twin.runtime.tick();

  const auto journal_records = [&](const char* name) {
    return std::stoul(procs.health(name).at("journal_records"));
  };
  constexpr unsigned long kCommitsPerRound = 4;
  for (int round = 0; round < 200; ++round) {
    // Four modifies inside every chain filter: each reaches every mirror.
    for (int rank = 0; rank < 4; ++rank) {
      stream.relabel(0, rank, serial_of(0, (round * 4 + rank) % 90 + 10));
    }
    ASSERT_LE(journal_records("root"), kCommitsPerRound) << "round " << round;
    procs.tick();
    twin.runtime.tick();
    for (const char* name : {"root", "d1", "d2", "leaf"}) {
      ASSERT_LE(journal_records(name), kCommitsPerRound)
          << name << " after round " << round;
    }
  }
  assert_converged(procs, twin, "bounded journals");
  // The root journaled 32 seed adds and 800 modifies and has dropped them
  // all. A mirror journals a little less: a relabel to the serial an entry
  // already holds reaches it as an equal re-delivery, which it skips.
  EXPECT_EQ(procs.health("root").at("journal_trimmed_up_to"), "832");
  for (const char* name : {"d1", "d2", "leaf"}) {
    EXPECT_GE(std::stoul(procs.health(name).at("journal_trimmed_up_to")), 780u)
        << name;
  }

  procs.stop();
}

// Startup is a handshake, not a poll: a node that dies before binding its
// listeners closes its end of the readiness pipe, and start() fails on that
// EOF at once instead of retrying until spawn_timeout_ms.
TEST(ProcessTopologyTest, NodeDyingAtStartupFailsStartAtOnce) {
  SKIP_WITHOUT_SOCKETS();
  const std::string workdir = make_workdir();
  ASSERT_FALSE(workdir.empty());

  ProcessTopology::Options options = topology_options(workdir, FBDR_NODE_BIN);
  options.spawn_timeout_ms = 20000;
  ProcessTopology procs(options);
  build_tree(procs);
  procs.set_extra_args("d2", {"--crash-on-start"});

  const auto begin = std::chrono::steady_clock::now();
  try {
    procs.start();
    ADD_FAILURE() << "start() succeeded with a node that cannot start";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exited during startup"),
              std::string::npos)
        << e.what();
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - begin);
  EXPECT_LT(elapsed.count(), options.spawn_timeout_ms / 4)
      << "start() waited for the deadline instead of the readiness EOF";
  EXPECT_FALSE(procs.running("d2"));
  EXPECT_TRUE(procs.running("d1")) << "nodes before d2 were spawned normally";
  procs.stop();
}

// --- same-depth fan-out ---------------------------------------------------

// root -> relay "r" -> three sibling leaves, in processes and as an
// in-process TopologyRuntime twin. tick() syncs the siblings as one fan-out
// (every "sync" line sent before any reply is read); the twin syncs them one
// after another. The processes hold their sessions in persist mode and end
// each round taking their pushes, so after every round every node holds the
// master truth; the polled twin reaches the same content a hop per round
// later, and the two must agree once the writes stop.
const char* const kSiblings[] = {"a", "b", "c"};

// r and c replicate the same filter.
const std::vector<testutil::RelaySpec> kFan = {
    {"r", "", "0"}, {"a", "r", "00"}, {"b", "r", "01"}, {"c", "r", "0"}};

std::string sibling_prefix(const std::string& name) {
  for (const testutil::RelaySpec& relay : kFan) {
    if (name == relay.name) return relay.prefix;
  }
  return "";
}

/// A seeded stream of adds (inside and outside the relay's filter),
/// deletes and relabels, applied to both roots.
class SeededStream {
 public:
  SeededStream(MutationStream& stream, unsigned seed)
      : stream_(&stream), rng_(seed) {}

  void step() {
    const int group = pick(0, 7);
    switch (pick(0, 3)) {
      case 0:
      case 1:
        stream_->add(group, next_rank_++);
        break;
      case 2:
        stream_->remove(group, pick(0, next_rank_));
        break;
      default:
        stream_->relabel(group, pick(0, next_rank_),
                         serial_of(pick(0, 7), pick(0, 99)));
        break;
    }
  }

 private:
  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  MutationStream* stream_;
  std::mt19937 rng_;
  int next_rank_ = 4;  // MutationStream::seed() adds ranks 0..3
};

const std::vector<std::string> kFanNodes = {"r", "a", "b", "c"};

/// Every fan node's content after a round: the master truth.
void expect_fan_truth(ProcessTopology& procs, RuntimeTwin& twin,
                      const std::string& note) {
  ASSERT_TRUE(testutil::pushes_arrived(procs, kFanNodes)) << note;
  for (const std::string& name : kFanNodes) {
    const ldap::Query query = serial_query(sibling_prefix(name));
    const std::vector<std::string> keys =
        procs.keys(name, serial_spec(sibling_prefix(name)));
    EXPECT_EQ(keys, master_truth(*twin.master, query))
        << name << " diverged from master truth (" << note << ")";
    EXPECT_FALSE(keys.empty()) << name << " holds nothing (" << note << ")";
  }
}

void expect_fan_matches(ProcessTopology& procs, RuntimeTwin& twin,
                        const std::string& note) {
  for (const char* name : {"r", "a", "b", "c"}) {
    const ldap::Query query = serial_query(sibling_prefix(name));
    const std::vector<std::string> keys =
        procs.keys(name, serial_spec(sibling_prefix(name)));
    EXPECT_EQ(keys, mirror_keys(twin.runtime.node(name), query))
        << name << " diverged from its TopologyRuntime twin (" << note << ")";
    EXPECT_FALSE(keys.empty()) << name << " holds nothing (" << note << ")";
  }
}

TEST(ProcessTopologyFanOut, SiblingsMatchRuntimeTwinEveryRound) {
  SKIP_WITHOUT_SOCKETS();
  const std::string workdir = make_workdir();
  ASSERT_FALSE(workdir.empty());

  ProcessTopology procs(topology_options(workdir, FBDR_NODE_BIN));
  build_tree(procs, kFan);
  ASSERT_NO_THROW(procs.start());

  RuntimeTwin twin(kFan);
  MutationStream stream(procs, *twin.master);
  stream.seed();
  for (const char* name : {"r", "a", "b", "c"}) {
    ASSERT_EQ(procs.control(name).request("installall"),
              std::vector<std::string>{"1"});
  }
  ASSERT_TRUE(twin.runtime.install());

  SeededStream seeded(stream, 2024);
  for (int round = 0; round < 24; ++round) {
    for (int op = 0; op < 3; ++op) seeded.step();
    procs.tick();
    twin.runtime.tick();
    expect_fan_truth(procs, twin, "round " + std::to_string(round));
    if (::testing::Test::HasFailure()) break;
  }
  for (int round = 0; round < 3; ++round) {
    procs.tick();
    twin.runtime.tick();
  }
  expect_fan_matches(procs, twin, "quiescent");
  expect_fan_truth(procs, twin, "quiescent");
  // No push path fell back to a recovery.
  for (const std::string& name : kFanNodes) {
    EXPECT_EQ(procs.health(name).at("recoveries"), "0") << name;
  }
  procs.stop();
}

// A sibling SIGKILLed between send and finish: its finish may read its
// reply or fail, but the other siblings' streams stay in step — the next
// command on each reads its own reply, not a leftover — and the supervisor
// respawns the dead node, which heals into the same content.
TEST(ProcessTopologyFanOut, SiblingKilledMidFanOutKeepsStreamsInStep) {
  SKIP_WITHOUT_SOCKETS();
  const std::string workdir = make_workdir();
  ASSERT_FALSE(workdir.empty());

  ProcessTopology procs(topology_options(workdir, FBDR_NODE_BIN));
  build_tree(procs, kFan);
  ProcessTopology::SupervisorOptions supervisor;
  supervisor.enabled = true;
  supervisor.seed = 7;
  procs.set_supervisor(supervisor);
  ASSERT_NO_THROW(procs.start());

  RuntimeTwin twin(kFan);
  MutationStream stream(procs, *twin.master);
  stream.seed();
  for (const char* name : {"r", "a", "b", "c"}) {
    procs.control(name).request("installall");
  }
  ASSERT_TRUE(twin.runtime.install());
  SeededStream seeded(stream, 99);
  for (int round = 0; round < 6; ++round) {
    for (int op = 0; op < 3; ++op) seeded.step();
    procs.tick();
    twin.runtime.tick();
  }
  // The siblings' content before the hand-driven level: the writes below
  // stay at the root, which does not pump until the next tick.
  ASSERT_TRUE(testutil::pushes_arrived(procs, kFanNodes));
  std::map<std::string, std::vector<std::string>> held;
  for (const char* leaf : {"a", "c"}) {
    held[leaf] = master_truth(*twin.master, serial_query(sibling_prefix(leaf)));
  }

  // The leaf level of one round, by hand: every sibling gets its line, then
  // "b" dies before any reply is read.
  for (int op = 0; op < 3; ++op) seeded.step();
  for (const char* leaf : kSiblings) procs.control(leaf).send({"sync"});
  procs.crash("b", /*reap_now=*/false);
  EXPECT_NO_THROW(procs.control("a").finish());
  EXPECT_NO_THROW(procs.control("c").finish());
  try {
    procs.control("b").finish();  // the reply may have left before the kill
  } catch (const std::runtime_error&) {
  }
  for (const char* leaf : kSiblings) twin.runtime.node(leaf).sync();
  for (const char* leaf : {"a", "c"}) {
    EXPECT_EQ(procs.control(leaf).request("ping"), std::vector<std::string>{});
    const std::vector<std::string> keys =
        procs.keys(leaf, serial_spec(sibling_prefix(leaf)));
    EXPECT_EQ(keys, held[leaf]) << leaf;
    EXPECT_FALSE(keys.empty()) << leaf;
  }

  // The rest of the round, then rounds until the supervisor has respawned
  // "b" and it has healed.
  for (int round = 0; round < 12; ++round) {
    if (round < 4) {
      for (int op = 0; op < 3; ++op) seeded.step();
    }
    procs.tick();
    twin.runtime.tick();
  }
  // Died once, came back (its restart budget may already be refunded).
  EXPECT_EQ(procs.unexpected_exits("b"), 1u);
  EXPECT_EQ(procs.state("b"), ProcessTopology::NodeState::Running);
  EXPECT_TRUE(procs.running("b"));
  expect_fan_matches(procs, twin, "after the respawn");
  for (const char* name : {"r", "a", "c"}) {
    EXPECT_EQ(procs.unexpected_exits(name), 0u) << name;
  }
  procs.stop();
}

}  // namespace
}  // namespace fbdr::netio
