#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "net/channel.h"
#include "netio/epoll_server.h"
#include "netio/socket_addr.h"
#include "resync/master.h"
#include "server/directory_server.h"
#include "topology/relay_node.h"

namespace fbdr::netio {

/// Everything one replication node process contains, assembled: the node
/// itself (a root ReSyncMaster over a DirectoryServer, or a RelayNode with
/// an upstream SocketPipe to its parent), an EpollServer publishing it to
/// downstream frame connections, and the control-plane command handlers
/// (see control.h for the protocol).
///
/// fbdr_node's main() is a thin argv wrapper around this class; tests can
/// also run a NodeHost in-process (listen(), then server().start()) to get
/// the exact serving stack without a fork.
///
/// Threading: the node is single-threaded by design — run() puts frame
/// dispatch AND control handling on the one epoll loop thread, so a sync
/// round can never race a downstream poll. A relay's upstream exchanges
/// block that loop briefly; its parent lives in another process with its
/// own loop, so the tree's deepest-first round order (leaf sync before
/// parent pump, topology::TreeDriver::tick()) proceeds without deadlock.
class NodeHost {
 public:
  enum class Role { Root, Relay };

  struct Options {
    Role role = Role::Root;
    std::string name;
    std::string suffix = "o=xyz";
    SocketAddr listen;   // frame listener (downstream sessions)
    SocketAddr control;  // control-plane listener
    // Relay only:
    SocketAddr parent;        // parent's frame listener
    std::string parent_url;   // referral target ("ldap://<parent>")
    net::RetryPolicy retry{4, 1, 2.0, 16, 0};
    std::uint64_t session_time_limit = 0;
    /// Upstream SocketPipe deadlines (relay only). Chaos tests shrink these
    /// so a blackholed link fails in milliseconds, not the 10s default.
    int io_timeout_ms = 10000;
    int connect_timeout_ms = 2000;
    /// Frame-plane self-defence, passed through to EpollServer.
    int idle_timeout_ms = 0;
    std::size_t max_connections = 0;
    /// When >= 0, run() writes one byte to this fd and closes it once both
    /// listeners are bound: the readiness handshake a spawning parent
    /// blocks on (ProcessTopology::wait_ready).
    int ready_fd = -1;
  };

  explicit NodeHost(Options options);

  /// listen(), then runs the loop inline until a quit command.
  void run();

  /// Binds both listeners and signals ready_fd.
  void listen();

  EpollServer& server() { return *server_; }
  resync::ReSyncEndpoint& endpoint();

 private:
  std::string handle_control(const std::string& line);
  std::string do_apply(std::string_view rest);
  std::string do_keys(std::string_view spec);
  std::string do_health();

  Options options_;
  // Root role:
  std::unique_ptr<server::DirectoryServer> store_;
  std::unique_ptr<resync::ReSyncMaster> master_;
  // Relay role:
  std::unique_ptr<topology::RelayNode> relay_;

  std::unique_ptr<EpollServer> server_;
};

/// Parses "<base>|<scope>|<filter>" with scope base|one|sub (the query
/// spelling of the control plane and ProcessTopology filter specs).
ldap::Query parse_query_spec(std::string_view spec);

}  // namespace fbdr::netio
