// One set of tree scenarios, run on both TreeDriver backends from one spec:
// in-process (TopologyRuntime over RelayNodes) and in processes
// (ProcessTopology over fork/exec'd fbdr_node binaries and Unix sockets).
// The two share the round order. In-process links poll, so content moves
// one tick per hop; the processes hold persist sessions over their
// sockets, so a change reaches every depth in the tick whose pump routed
// it. With that one difference (Tree::lag) the same assertions hold both
// ways: a write reaches depth d on tick lag(d) + 1, a mid-chain crash and
// restart heals through the recovery path, and sibling leaves that sync as
// one level each hold exactly the master content of lag(d) rounds before.
//
// The process backend skips loudly when the sandbox forbids sockets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netio/process_topology.h"
#include "netio_test_util.h"
#include "topology/runtime.h"

#ifndef FBDR_NODE_BIN
#error "topology_backend_test needs FBDR_NODE_BIN (path to the fbdr_node binary)"
#endif

namespace fbdr::topology {
namespace {

using netio::testutil::kChain;
using netio::testutil::master_truth;
using netio::testutil::MutationStream;
using netio::testutil::RelaySpec;
using netio::testutil::serial_of;
using netio::testutil::serial_query;

/// A tree built from a spec, driven the same way on either backend.
class Tree {
 public:
  explicit Tree(const std::vector<RelaySpec>& spec) : spec_(spec) {}
  virtual ~Tree() = default;

  virtual void tick() = 0;
  virtual void crash(const std::string& name) = 0;
  virtual void restart(const std::string& name) = 0;
  /// Sorted norm keys `relay` holds for its filter.
  virtual std::vector<std::string> keys(const RelaySpec& relay) = 0;
  virtual std::uint64_t recoveries(const std::string& name) = 0;
  /// Applies writes at the root; truth() sees them too.
  virtual MutationStream& writes() = 0;
  /// The master content every node converges to.
  virtual const server::DirectoryServer& truth() = 0;

  /// Rounds a node at `depth` trails the root by: one per hop when links
  /// poll, none when every hop pushes.
  virtual std::size_t lag(std::size_t depth) const = 0;

  const std::vector<RelaySpec>& spec() const { return spec_; }

  std::size_t depth(const std::string& name) const {
    for (const RelaySpec& relay : spec_) {
      if (name == relay.name) return 1 + (*relay.parent ? depth(relay.parent) : 0);
    }
    return 0;
  }

 private:
  std::vector<RelaySpec> spec_;
};

class InProcessTree final : public Tree {
 public:
  explicit InProcessTree(const std::vector<RelaySpec>& spec)
      : Tree(spec), twin_(spec), writes_(*twin_.master) {
    writes_.seed();
    EXPECT_TRUE(twin_.runtime.install());
  }

  void tick() override { twin_.runtime.tick(); }
  std::size_t lag(std::size_t depth) const override { return depth; }
  void crash(const std::string& name) override { twin_.runtime.crash_node(name); }
  void restart(const std::string& name) override {
    twin_.runtime.restart_node(name);
  }
  std::vector<std::string> keys(const RelaySpec& relay) override {
    return netio::testutil::mirror_keys(twin_.runtime.node(relay.name),
                                        serial_query(relay.prefix));
  }
  std::uint64_t recoveries(const std::string& name) override {
    return twin_.runtime.node(name).upstream_total().recoveries;
  }
  MutationStream& writes() override { return writes_; }
  const server::DirectoryServer& truth() override { return *twin_.master; }

 private:
  netio::testutil::RuntimeTwin twin_;
  MutationStream writes_;
};

class ProcessTree final : public Tree {
 public:
  ProcessTree(const std::vector<RelaySpec>& spec, const std::string& workdir)
      : Tree(spec),
        workdir_(workdir),
        procs_(netio::testutil::topology_options(workdir, FBDR_NODE_BIN)),
        master_(netio::testutil::make_master()),
        writes_(procs_, *master_) {
    netio::testutil::build_tree(procs_, spec);
    procs_.start();
    writes_.seed();
    for (const RelaySpec& relay : spec) {
      EXPECT_EQ(procs_.control(relay.name).request("installall"),
                std::vector<std::string>{"1"})
          << relay.name;
    }
  }
  ~ProcessTree() override {
    procs_.stop();
    std::system(("rm -rf " + workdir_).c_str());
  }

  /// One round; its closing pass has carried the round's pushes to every
  /// node whose path from the root is up.
  void tick() override {
    procs_.tick();
    std::vector<std::string> nodes;
    for (const RelaySpec& relay : spec()) {
      if (reachable(relay)) nodes.push_back(relay.name);
    }
    EXPECT_TRUE(netio::testutil::pushes_arrived(procs_, nodes));
  }
  std::size_t lag(std::size_t /*depth*/) const override { return 0; }
  void crash(const std::string& name) override { procs_.crash(name); }
  void restart(const std::string& name) override { procs_.respawn(name); }
  std::vector<std::string> keys(const RelaySpec& relay) override {
    return procs_.keys(relay.name, netio::testutil::serial_spec(relay.prefix));
  }
  std::uint64_t recoveries(const std::string& name) override {
    return std::stoull(procs_.health(name).at("recoveries"));
  }
  MutationStream& writes() override { return writes_; }
  const server::DirectoryServer& truth() override { return *master_; }

 private:
  bool reachable(const RelaySpec& relay) const {
    if (!procs_.running(relay.name)) return false;
    for (const RelaySpec& parent : spec()) {
      if (parent.name == std::string(relay.parent)) return reachable(parent);
    }
    return true;  // hangs off the root
  }

  std::string workdir_;
  netio::ProcessTopology procs_;
  std::shared_ptr<server::DirectoryServer> master_;
  MutationStream writes_;
};

enum class Backend { InProcess, Process };

class TreeBackend : public ::testing::TestWithParam<Backend> {
 protected:
  /// The tree on this test's backend, its master seeded and every relay's
  /// sessions installed.
  std::unique_ptr<Tree> build(const std::vector<RelaySpec>& spec) {
    if (GetParam() == Backend::InProcess) {
      return std::make_unique<InProcessTree>(spec);
    }
    const std::string workdir = netio::testutil::make_workdir();
    EXPECT_FALSE(workdir.empty());
    return std::make_unique<ProcessTree>(spec, workdir);
  }

  void SetUp() override {
    if (GetParam() == Backend::Process) SKIP_WITHOUT_SOCKETS();
  }
};

std::vector<std::string> truth_keys(Tree& tree, const RelaySpec& relay) {
  return master_truth(tree.truth(), serial_query(relay.prefix));
}

void expect_master_truth(Tree& tree, const std::string& note) {
  for (const RelaySpec& relay : tree.spec()) {
    const std::vector<std::string> keys = tree.keys(relay);
    EXPECT_EQ(keys, truth_keys(tree, relay))
        << relay.name << " diverged from master truth (" << note << ")";
    EXPECT_FALSE(keys.empty()) << relay.name << " holds nothing (" << note << ")";
  }
}

bool holds(const std::vector<std::string>& keys, const std::string& key) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

TEST_P(TreeBackend, ChainReachesMasterTruthOneTickPerHop) {
  std::unique_ptr<Tree> tree = build(kChain);
  for (int round = 0; round < 2; ++round) tree->tick();
  expect_master_truth(*tree, "installed");

  // A write inside every chain filter reaches depth d on tick lag(d) + 1:
  // the root routes it into sessions at the end of the first tick, and each
  // polled hop below takes one more.
  tree->writes().add(0, 50);
  const std::string key = "cn=e" + serial_of(0, 50) + ",o=xyz";
  for (std::size_t ticks = 1; ticks <= 4; ++ticks) {
    tree->tick();
    for (const RelaySpec& relay : kChain) {
      EXPECT_EQ(holds(tree->keys(relay), key),
                ticks >= tree->lag(tree->depth(relay.name)) + 1)
          << relay.name << " after " << ticks << " ticks";
    }
  }
  expect_master_truth(*tree, "after the write");
}

TEST_P(TreeBackend, MidChainCrashAndRestartHeals) {
  std::unique_ptr<Tree> tree = build(kChain);
  for (int round = 0; round < 4; ++round) tree->tick();
  const std::uint64_t leaf_recoveries = tree->recoveries("leaf");

  // d2 goes down with its mirror and every session it serves; the world
  // keeps moving, and the leaf's exchanges with d2 fail meanwhile.
  tree->crash("d2");
  for (int round = 0; round < 3; ++round) {
    tree->writes().add(0, 20 + round);
    tree->tick();
  }
  // Back with no sessions and a new lineage: the leaf's next poll presents
  // a cookie d2 cannot resume and recovers.
  tree->restart("d2");
  for (int round = 0; round < 6; ++round) {
    tree->writes().add(0, 30 + round);
    tree->tick();
  }
  for (int round = 0; round < 4; ++round) tree->tick();

  expect_master_truth(*tree, "after the mid-chain crash and restart");
  EXPECT_GT(tree->recoveries("leaf"), leaf_recoveries);
}

TEST_P(TreeBackend, SiblingLeavesHoldTheMasterTruthOfTwoRoundsBefore) {
  // root -> r -> three sibling leaves that sync as one level; c replicates
  // r's own filter.
  const std::vector<RelaySpec> fan = {
      {"r", "", "0"}, {"a", "r", "00"}, {"b", "r", "01"}, {"c", "r", "0"}};
  std::unique_ptr<Tree> tree = build(fan);
  tree->tick();

  // before[i]: each node's master truth just before tick i. After tick i a
  // node at depth d holds before[i - lag(d)].
  std::vector<std::map<std::string, std::vector<std::string>>> before;
  for (int round = 0; round < 16; ++round) {
    tree->writes().add(round % 8, 10 + round);  // groups 4-7: outside r
    if (round % 3 == 2) tree->writes().remove((round + 1) % 4, round / 3);
    before.emplace_back();
    for (const RelaySpec& relay : fan) {
      before.back()[relay.name] = truth_keys(*tree, relay);
    }
    tree->tick();
    for (const RelaySpec& relay : fan) {
      const std::size_t lag = tree->lag(tree->depth(relay.name));
      if (before.size() <= lag) continue;
      EXPECT_EQ(tree->keys(relay), before[before.size() - 1 - lag][relay.name])
          << relay.name << " after round " << round;
    }
    if (::testing::Test::HasFailure()) break;
  }
}

std::string backend_name(const ::testing::TestParamInfo<Backend>& param) {
  return param.param == Backend::InProcess ? "InProcess" : "Process";
}

INSTANTIATE_TEST_SUITE_P(Backends, TreeBackend,
                         ::testing::Values(Backend::InProcess, Backend::Process),
                         backend_name);

}  // namespace
}  // namespace fbdr::topology
