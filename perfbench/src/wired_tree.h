#pragma once

// The root -> relay -> {leaf1, leaf2} tree wired by hand in-process with
// RelayNode::connect, so every link can run through the tracing seams. It
// ticks exactly like ProcessTopology::tick() and TopologyRuntime::tick():
// nodes sync deepest-first, then the root pumps and its clock advances.

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "inputs.h"
#include "resync/master.h"
#include "seams.h"
#include "server/directory_server.h"
#include "topology/relay_node.h"

namespace perfbench {

class WiredTree {
 public:
  static constexpr std::size_t kNodes = 3;  // relay, leaf1, leaf2

  /// `framed` links run through the wire codec over an EndpointPipe, as the
  /// process tree's sockets do; otherwise links pass structs directly, as
  /// TopologyRuntime's do. `retry` is the relays' upstream retry policy.
  WiredTree(fbdr::server::DirectoryServer& root, const TreeFilters& filters,
            bool framed, const fbdr::net::RetryPolicy& retry, Tracer* tracer);

  /// Opens every upstream session, relay first. True when all are active.
  bool install();

  /// One replication round; `round` is the span request id.
  void tick(std::uint64_t round);

  /// Node 0 is the relay, nodes 1 and 2 the leaves.
  fbdr::topology::RelayNode& node(std::size_t i) { return *nodes_[i]; }
  const fbdr::topology::RelayNode& node(std::size_t i) const { return *nodes_[i]; }

  fbdr::resync::ReSyncMaster& root_master() noexcept { return root_master_; }

  /// Oldest root time any leaf reflects.
  std::uint64_t leaf_root_time() const;

  /// Exact frame traffic summed over the framed links.
  std::uint64_t link_bytes() const;
  std::uint64_t link_frames() const;
  void reset_traffic();

 private:
  fbdr::server::DirectoryServer* root_;
  Tracer* tracer_;
  LinkFactory links_;
  fbdr::resync::ReSyncMaster root_master_;
  std::uint64_t pumped_seq_;  // journal position of the last pump
  std::array<std::unique_ptr<fbdr::topology::RelayNode>, kNodes> nodes_;
  std::array<fbdr::net::FramedChannel*, kNodes> framed_{};
};

/// The root a fbdr_node process builds: suffix `o=ibm`, its base entry, no
/// indexes, url ldap://root.
std::unique_ptr<fbdr::server::DirectoryServer> make_node_root();

/// Pumps `master` under a master.pump span, counting the journal records
/// routed (those past `pumped_seq`, which advances) and the routing
/// candidates, for the per-record ratios.
void traced_pump(fbdr::resync::ReSyncMaster& master,
                 const fbdr::server::DirectoryServer& store,
                 std::uint64_t& pumped_seq, Tracer* tracer);

}  // namespace perfbench
