// Multi-process replication quickstart: the topology_tree example with the
// simulation layer peeled away. A root master and two relays run as real
// fork/exec'd fbdr_node processes wired over Unix-domain sockets in a
// throwaway workdir; this process drives them through the line-based
// control plane. The rounds come from topology::TreeDriver, the same tree
// core that drives the in-process TopologyRuntime.
//
//   1. spawn root -> d1 (serialnumber=0*) -> d2 (serialnumber=00*)
//   2. apply journaled adds at the root, tick, watch content arrive 1 hop
//      per round over real sockets
//   3. SIGKILL d1 mid-run, keep mutating, respawn it: d2 heals through the
//      stale-cookie recovery path (its cookie names a session the fresh
//      d1 process never issued)
//   4. print each node's health map along the way
//
// Usage: process_tree [path-to-fbdr_node]    (default: the built binary)

#include <cstdio>
#include <cstdlib>

#include "netio/process_topology.h"
#include "netio/socket_addr.h"

using namespace fbdr;

namespace {

void show(const char* moment, netio::ProcessTopology& tree) {
  std::printf("[%s]\n", moment);
  for (const char* name : {"d1", "d2"}) {
    if (!tree.running(name)) {
      std::printf("  %-4s (down)\n", name);
      continue;
    }
    const auto health = tree.health(name);
    std::printf("  %-4s epoch=%s recoveries=%s degraded=%s frames_in=%s\n",
                name, health.at("epoch").c_str(),
                health.at("recoveries").c_str(),
                health.at("degraded").c_str(),
                health.at("frames_in").c_str());
  }
}

void show_keys(netio::ProcessTopology& tree, const char* name,
               const std::string& spec) {
  const auto keys = tree.keys(name, spec);
  std::printf("  %-4s holds %zu entries:", name, keys.size());
  for (const auto& key : keys) std::printf(" %s", key.c_str());
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string reason;
  if (!netio::sockets_available(&reason)) {
    std::printf("SKIP: sandbox forbids sockets (%s)\n", reason.c_str());
    return 0;
  }

  char workdir_template[] = "/tmp/fbdr_tree_XXXXXX";
  const char* workdir = ::mkdtemp(workdir_template);
  if (workdir == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }

  netio::ProcessTopology::Options options;
  options.node_binary = argc > 1 ? argv[1] : FBDR_NODE_BIN;
  options.workdir = workdir;
  netio::ProcessTopology tree(options);
  tree.add_root("root");
  tree.add_relay("d1", "root", {"o=xyz|sub|(serialnumber=0*)"});
  tree.add_relay("d2", "d1", {"o=xyz|sub|(serialnumber=00*)"});
  tree.start();
  std::printf("spawned 3 processes under %s\n", workdir);

  // Seed the root's journal, open every upstream session, replicate.
  for (const char* serial : {"00001", "00002", "01003", "10004"}) {
    tree.control("root").request(std::string("apply add cn=e") + serial +
                                 ",o=xyz|objectclass=person;serialnumber=" +
                                 serial);
  }
  tree.control("d1").request("installall");
  tree.control("d2").request("installall");
  tree.tick();
  std::printf("\nafter install + 1 tick (d1 sees 0*, d2 sees 00*):\n");
  show_keys(tree, "d1", "o=xyz|sub|(serialnumber=0*)");
  show_keys(tree, "d2", "o=xyz|sub|(serialnumber=00*)");
  show("healthy", tree);

  // Kill the middle relay with no goodbye; the world keeps moving.
  tree.crash("d1");
  tree.control("root").request(
      "apply add cn=e00005,o=xyz|objectclass=person;serialnumber=00005");
  tree.tick();  // d2's upstream exchanges fail fast; it degrades
  show("d1 crashed, root mutated", tree);

  // A fresh d1 process: empty mirror, no sessions, no memory of cookies.
  // Its own sync rebuilds from the root; d2's next poll presents a cookie
  // the new process never issued -> StaleCookieError -> full recovery.
  tree.respawn("d1");
  tree.control("d1").request("installall");
  for (int round = 0; round < 3; ++round) tree.tick();
  std::printf("\nafter respawn + 3 ticks:\n");
  show_keys(tree, "d1", "o=xyz|sub|(serialnumber=0*)");
  show_keys(tree, "d2", "o=xyz|sub|(serialnumber=00*)");
  show("healed", tree);

  tree.stop();
  std::printf("\nall processes stopped\n");
  return 0;
}
