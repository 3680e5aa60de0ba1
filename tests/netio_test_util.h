// Shared fixtures for the multi-process socket tests: the depth-3
// fork/exec'd fbdr_node chain (root -> d1 -> d2 -> leaf over Unix sockets,
// serialnumber bit-prefix containment filters), its fault-free in-process
// TopologyRuntime twin built from the same spec, and the journaled mutation
// stream applied to both. Convergence is
// always asserted three ways per node: process content == master truth ==
// twin mirror, and non-empty so the comparison proved something.
//
// Used by netio_process_test.cpp (fault-free + crash/respawn) and
// netio_chaos_test.cpp (ChaosProxy fault schedules + supervision).

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "ldap/entry.h"
#include "ldap/error.h"
#include "netio/process_topology.h"
#include "netio/socket_addr.h"
#include "server/directory_server.h"
#include "sync/content_tracker.h"
#include "topology/relay_node.h"
#include "topology/runtime.h"

#define SKIP_WITHOUT_SOCKETS()                                        \
  do {                                                                \
    std::string reason;                                               \
    if (!fbdr::netio::sockets_available(&reason)) {                   \
      GTEST_SKIP() << "SKIPPING: sandbox forbids sockets (" << reason \
                   << ") — process topology is untested here";        \
    }                                                                 \
  } while (0)

namespace fbdr::netio::testutil {

inline std::string serial_of(int group, int rank) {
  static const std::vector<std::string> kBits3 = {"000", "001", "010", "011",
                                                  "100", "101", "110", "111"};
  return kBits3[static_cast<std::size_t>(group)] + (rank < 10 ? "0" : "") +
         std::to_string(rank);
}

inline std::string serial_filter(const std::string& prefix) {
  return "(serialnumber=" + prefix + "*)";
}

inline std::string serial_spec(const std::string& prefix) {
  return "o=xyz|sub|" + serial_filter(prefix);
}

inline ldap::Query serial_query(const std::string& prefix) {
  return ldap::Query::parse("o=xyz", ldap::Scope::Subtree,
                            serial_filter(prefix));
}

/// One relay of a test tree: its name, its parent ("" = the root) and the
/// serial prefix of its one filter. A process tree and its in-process twin
/// are built from the same spec.
struct RelaySpec {
  const char* name;
  const char* parent;
  const char* prefix;
};

/// The depth-3 chain root -> d1 -> d2 -> leaf.
inline const std::vector<RelaySpec> kChain = {
    {"d1", "", "0"}, {"d2", "d1", "00"}, {"leaf", "d2", "000"}};

/// A master holding only the o=xyz suffix entry.
inline std::shared_ptr<server::DirectoryServer> make_master() {
  auto master = std::make_shared<server::DirectoryServer>("ldap://root");
  master->add_context({ldap::Dn::parse("o=xyz"), {}});
  master->load(ldap::make_entry("o=xyz", {{"objectclass", "organization"}}));
  return master;
}

/// The fault-free in-process twin of a process tree: a TopologyRuntime over
/// its own master, with fbdr_node's relay retry policy.
struct RuntimeTwin {
  explicit RuntimeTwin(const std::vector<RelaySpec>& spec = kChain)
      : master(make_master()), runtime(master, options()) {
    for (const RelaySpec& relay : spec) {
      runtime.add_node(relay.name, relay.parent, {serial_query(relay.prefix)});
    }
  }

  std::shared_ptr<server::DirectoryServer> master;
  topology::TopologyRuntime runtime;

 private:
  static topology::TopologyRuntime::Options options() {
    topology::TopologyRuntime::Options options;
    options.retry = {4, 1, 2.0, 16, 0};
    return options;
  }
};

inline std::vector<std::string> mirror_keys(const topology::RelayNode& node,
                                            const ldap::Query& query) {
  std::vector<std::string> keys;
  for (const ldap::EntryPtr& entry : node.mirror().evaluate(query)) {
    keys.push_back(entry->dn().norm_key());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

inline std::vector<std::string> master_truth(
    const server::DirectoryServer& master, const ldap::Query& query) {
  sync::ContentTracker tracker(query);
  tracker.initialize(master.dit());
  return tracker.content_keys();
}

/// One journaled operation applied to both roots (control plane on the
/// process side, direct calls on the twin's master), or to the master alone
/// when there is no process tree.
class MutationStream {
 public:
  MutationStream(ProcessTopology& procs, server::DirectoryServer& master)
      : procs_(&procs), master_(&master) {}
  explicit MutationStream(server::DirectoryServer& master)
      : procs_(nullptr), master_(&master) {}
  MutationStream(ProcessTopology& procs, RuntimeTwin& twin)
      : MutationStream(procs, *twin.master) {}

  void seed() {
    for (int group = 0; group < 8; ++group) {
      for (int rank = 0; rank < 4; ++rank) add(group, rank);
    }
  }

  void add(int group, int rank) {
    const std::string serial = serial_of(group, rank);
    if (procs_ != nullptr) {
      procs_->control("root").request("apply add cn=e" + serial +
                                      ",o=xyz|objectclass=person;serialnumber=" +
                                      serial);
    }
    master_->add(ldap::make_entry("cn=e" + serial + ",o=xyz",
                                        {{"objectclass", "person"},
                                         {"serialnumber", serial}}));
  }

  void remove(int group, int rank) {
    const std::string serial = serial_of(group, rank);
    const std::string dn = "cn=e" + serial + ",o=xyz";
    try {
      master_->remove(ldap::Dn::parse(dn));
    } catch (const ldap::OperationError&) {
      return;  // already gone; skip the process side too
    }
    if (procs_ != nullptr) procs_->control("root").request("apply del " + dn);
  }

  void relabel(int group, int rank, const std::string& new_serial) {
    const std::string serial = serial_of(group, rank);
    const std::string dn = "cn=e" + serial + ",o=xyz";
    try {
      master_->modify(ldap::Dn::parse(dn),
                            {{server::Modification::Op::Replace,
                              "serialnumber",
                              {new_serial}}});
    } catch (const ldap::OperationError&) {
      return;
    }
    if (procs_ != nullptr) {
      procs_->control("root").request("apply mod " + dn +
                                      "|serialnumber=" + new_serial);
    }
  }

 private:
  ProcessTopology* procs_;
  server::DirectoryServer* master_;
};

inline ProcessTopology::Options topology_options(const std::string& workdir,
                                                 const char* node_binary) {
  ProcessTopology::Options options;
  options.node_binary = node_binary;
  options.workdir = workdir;
  return options;
}

inline std::string make_workdir() {
  char templ[] = "/tmp/fbdr_proc_XXXXXX";
  char* dir = ::mkdtemp(templ);
  return dir ? dir : "";
}

inline void build_tree(ProcessTopology& procs,
                       const std::vector<RelaySpec>& spec = kChain) {
  procs.add_root("root");
  for (const RelaySpec& relay : spec) {
    procs.add_relay(relay.name, *relay.parent ? relay.parent : "root",
                    {serial_spec(relay.prefix)});
  }
}

inline void assert_converged(ProcessTopology& procs, RuntimeTwin& twin,
                             const std::string& note) {
  for (const RelaySpec& n : kChain) {
    const ldap::Query query = serial_query(n.prefix);
    const std::vector<std::string> process_keys =
        procs.keys(n.name, serial_spec(n.prefix));
    EXPECT_EQ(process_keys, master_truth(*twin.master, query))
        << n.name << " diverged from master truth (" << note << ")";
    EXPECT_EQ(process_keys, mirror_keys(twin.runtime.node(n.name), query))
        << n.name << " diverged from its in-process twin (" << note << ")";
    EXPECT_FALSE(process_keys.empty())
        << n.name << " holds nothing — the comparison proved nothing ("
        << note << ")";
  }
}

}  // namespace fbdr::netio::testutil
