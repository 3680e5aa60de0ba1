#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/fault_injector.h"
#include "net/framed_channel.h"
#include "resync/master.h"
#include "server/directory_server.h"
#include "server/distributed.h"
#include "topology/relay_node.h"
#include "topology/tree_driver.h"

namespace fbdr::topology {

/// One row of the per-hop health report: where the node sits, how far its
/// content trails the root, and what its sessions have been through.
struct NodeHealth {
  std::string name;
  std::string parent;               // "" for children of the root master
  std::size_t depth = 0;            // hops from the root (root itself = 0)
  std::uint64_t lag_ticks = 0;      // root clock now - node's root_time()
  bool down = false;
  bool degraded = false;            // any upstream session degraded
  std::uint64_t epoch = 0;
  std::size_t downstream_sessions = 0;
  std::uint64_t admission_rejects = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t reparents = 0;
  std::uint64_t failed_streak = 0;
  // Budget health of this hop's downstream-facing master (ResourceGovernor
  // view): what overload enforcement has done and what the node holds now.
  std::size_t degraded_sessions = 0;   // poll sessions degraded to eq.(3)
  std::uint64_t busy_rejections = 0;   // initials bounced at session capacity
  std::uint64_t evicted_sessions = 0;  // sessions dropped past the poll deadline
  std::uint64_t history_units = 0;     // current history accounting units held
  std::uint64_t replay_bytes = 0;      // current replay-cache body bytes held
  std::uint64_t upstream_busy = 0;     // this node's refetches bounced by parent
  // Recovery-mode split (DESIGN.md §12): how this node's upstream sessions
  // healed, and what the digest walks cost in diff PDUs.
  std::uint64_t full_reloads = 0;
  std::uint64_t reconciles = 0;
  std::uint64_t reconcile_entries_shipped = 0;
};

/// Builds and drives an N-node replication tree rooted at one enterprise
/// master: relay nodes (and leaves, which are simply relays nobody syncs
/// from) wired over DirectChannel or — when a FaultConfig is given —
/// FramedChannels over per-link FaultyPipes with distinct deterministic
/// seeds.
///
/// tick() is TreeDriver::tick() over in-process handles: deepest-first, so
/// the measured staleness is one tick per hop — the latency cost a cascade
/// trades for fan-out relief at the root, which is exactly what
/// bench_topology_fanout quantifies.
///
/// The runtime also owns the two control-plane reactions of the design,
/// run right after each node's own sync (before the next node syncs):
///   - referral chasing: a parent that does not admit a node's filter set
///     answers with a referral; the runtime re-wires the node to the
///     referred URL (walking up ancestor by ancestor, terminating at the
///     root, which admits everything);
///   - re-parenting: a node whose upstream link has failed for
///     `reparent_after` consecutive sync rounds is re-wired to its
///     grandparent, adopting the orphaned subtree below it unchanged.
class TopologyRuntime {
 public:
  struct Options {
    /// Retry discipline for every upstream link.
    net::RetryPolicy retry;
    /// Admin idle limit for relay downstream sessions (0 = never expire).
    /// The root master's limit is configured on root_master() directly.
    std::uint64_t session_time_limit = 0;
    /// Consecutive failed sync rounds before a node is re-wired to its
    /// grandparent (0 disables re-parenting).
    std::uint64_t reparent_after = 0;
    /// Resource budgets installed on every relay's downstream-facing master
    /// (all-zero = ungoverned). The root master is governed separately via
    /// root_master().set_resource_limits().
    resync::ResourceLimits relay_limits;
    /// When set, every link runs the wire codec: a FramedChannel over a
    /// FaultyPipe seeded from this config (seed + link index), so one
    /// schedule replays deterministically. An all-zero config gives a
    /// fault-free framed tree. Unset, every link is a DirectChannel.
    std::optional<net::FaultConfig> faults;
  };

  TopologyRuntime(std::shared_ptr<server::DirectoryServer> root,
                  Options options);

  /// Adds a node named `name` under `parent` ("" = the root master) with
  /// the given replicated filter set. Parents must be added before their
  /// children. Content is not fetched until install() or the first tick().
  RelayNode& add_node(const std::string& name, const std::string& parent,
                      const std::vector<ldap::Query>& filters);

  /// Opens every node's upstream sessions top-down, chasing referrals
  /// (nodes whose parent does not admit them are re-wired up the ancestor
  /// chain). Returns true when every session is established.
  bool install();

  /// One logical round over the whole tree (TreeDriver::tick()).
  void tick();

  /// Runs `rounds` ticks.
  void run(std::uint64_t rounds);

  // --- failure injection (chaos tests) ---

  void crash_node(const std::string& name);
  void restart_node(const std::string& name);

  /// The FaultyPipe under `name`'s upstream link; null unless
  /// Options::faults is set. Reconfigure it to shape per-link fault phases.
  net::FaultyPipe* fault_pipe(const std::string& name);

  /// The FramedChannel carrying `name`'s upstream link (exact per-link
  /// traffic accounting); null unless Options::faults is set.
  net::FramedChannel* framed_link(const std::string& name);

  // --- introspection ---

  RelayNode& node(const std::string& name);
  const RelayNode& node(const std::string& name) const;
  /// Every node in declaration order.
  std::vector<std::string> node_names() const;

  /// Current parent of `name`: "" when wired to the root master.
  const std::string& parent_of(const std::string& name) const;
  std::size_t depth_of(const std::string& name) const;

  server::DirectoryServer& root() noexcept { return *root_; }
  resync::ReSyncMaster& root_master() noexcept { return root_endpoint_; }

  /// Per-node health, root's children first, deepest last.
  std::vector<NodeHealth> health() const;

  /// Every endpoint (root master + all nodes) addressable by URL, for
  /// server::DistributedClient referral chasing across the tree.
  server::ServerMap server_map() const;

 private:
  class Root;
  class Relay;

  /// The node `name`; throws std::invalid_argument for the root ("") or an
  /// unknown name.
  Relay& relay(const std::string& name) const;

  /// A fresh upstream channel from `relay` to `endpoint`: framed over a
  /// FaultyPipe when Options::faults is set, else direct.
  std::shared_ptr<net::Channel> make_channel(resync::ReSyncEndpoint& endpoint,
                                             Relay& relay);

  /// Re-wires `relay` to the endpoint at `url` (referral chase target or
  /// grandparent). Falls back to the root when the URL is unknown or its own.
  void rewire_to(Relay& relay, const std::string& url);

  /// Referral chase + re-parent policy for one node, after its sync round.
  void react(Relay& relay);

  std::shared_ptr<server::DirectoryServer> root_;
  Options options_;
  resync::ReSyncMaster root_endpoint_;
  TreeDriver tree_;  // the root master is the node named ""
  std::uint64_t link_counter_ = 0;
};

}  // namespace fbdr::topology
