#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "netio/control.h"
#include "netio/socket_addr.h"
#include "topology/tree_driver.h"

namespace fbdr::netio {

/// A replication tree where every node is a real OS process: the root
/// master and each relay run as fork/exec'd fbdr_node binaries, wired over
/// Unix-domain sockets in a private workdir, driven through the control
/// plane. This is TopologyRuntime with the simulation layer peeled away —
/// the same topology::TreeDriver runs the rounds, the same heal-through-
/// StaleCookie recovery story plays out, but the "network" is the kernel's
/// and a crash is a SIGKILL.
///
/// Lifecycle: add_root()/add_relay() declare the tree, start() spawns every
/// process (parents first) and waits for each one's readiness byte (see
/// wait_ready), tick() drives one replication round, crash()/respawn() model
/// a node failure, stop() (or the destructor) quits or kills everything and
/// reaps.
///
/// Supervision (set_supervisor): every tick() opens with a waitpid sweep, so
/// a child that died — crashed, OOM-killed, crash()ed by a test — is reaped
/// immediately (no zombies) and its exit recorded. With supervision enabled
/// the dead node is respawned automatically after an exponential backoff
/// (base << restarts, capped, plus a deterministic seed/name/attempt jitter
/// so a whole tree never restarts in lockstep); a node that dies more than
/// max_restarts times without a stable run in between lands in the terminal
/// GaveUp state and is left down — the rest of the tree keeps serving.
/// Optional liveness probes ping every Running node's control plane each
/// probe_every_ticks ticks and treat a dead plane like a crash.
class ProcessTopology {
 public:
  struct Options {
    std::string node_binary;  // path to the fbdr_node executable
    std::string workdir;      // sockets live here (private, e.g. mkdtemp)
    std::string suffix = "o=xyz";
    std::uint64_t session_time_limit = 0;
    /// How long a spawned node may take to report ready.
    int spawn_timeout_ms = 10000;
    /// Upstream SocketPipe deadlines inside each relay process (0 = the
    /// fbdr_node defaults). Chaos tests shrink these so a partitioned link
    /// fails fast instead of eating the 10s default per attempt.
    int node_io_timeout_ms = 0;
    int node_connect_timeout_ms = 0;
  };

  /// Node lifecycle under supervision. Declared -> Running on start();
  /// Running -> Backoff on an observed death; Backoff -> Running on a
  /// successful respawn, or -> GaveUp once the restart budget is spent.
  /// Stopped is the deliberate end state (stop()/manual reap).
  enum class NodeState { Declared, Running, Backoff, GaveUp, Stopped };

  struct SupervisorOptions {
    bool enabled = false;
    /// Respawn attempts allowed without an intervening stable run before
    /// the node is abandoned as GaveUp.
    std::uint64_t max_restarts = 5;
    std::uint64_t backoff_base_ticks = 1;  // first wait; doubles per attempt
    std::uint64_t backoff_cap_ticks = 8;
    std::uint64_t jitter_ticks = 1;  // deterministic extra wait in [0, this]
    std::uint64_t seed = 1;          // jitter stream
    /// A node Running this many consecutive ticks gets its restart budget
    /// back — the cap punishes restart storms, not lifetime restarts.
    std::uint64_t stable_ticks_reset = 8;
    /// Ping every Running node each N ticks; 0 disables probing. A probe
    /// failure is treated exactly like an observed crash.
    std::uint64_t probe_every_ticks = 0;
  };

  explicit ProcessTopology(Options options);
  ~ProcessTopology();

  ProcessTopology(const ProcessTopology&) = delete;
  ProcessTopology& operator=(const ProcessTopology&) = delete;

  void add_root(const std::string& name);

  /// `filter_specs` are "base|scope|filter" query specs (parse_query_spec)
  /// installed on the relay right after it spawns — its admission set.
  void add_relay(const std::string& name, const std::string& parent,
                 std::vector<std::string> filter_specs);

  /// Enables/configures supervision. Call before start().
  void set_supervisor(SupervisorOptions options);

  /// Extra argv appended to this node's every spawn (e.g. --crash-on-start,
  /// --idle-timeout-ms). Takes effect at the node's next (re)spawn and
  /// persists across respawns.
  void set_extra_args(const std::string& name, std::vector<std::string> args);

  /// Points the relay's upstream at `addr` instead of its parent's real
  /// listener — the seam where a ChaosProxy goes. Persists across respawns,
  /// so a supervised node heals through the same faulty link it died on.
  void set_parent_proxy(const std::string& name, const SocketAddr& addr);

  /// Spawns every declared node (parents before children), waits for each
  /// one to report ready, installs relay filters. Throws on spawn failure, a
  /// node dying during startup or a readiness timeout.
  void start();

  /// One supervision pass, then one replication round: TreeDriver::tick(),
  /// the round TopologyRuntime::tick() runs. A node's begin_sync() sends
  /// "sync" and its end_sync() reads the reply (ControlClient::send/finish),
  /// so the relays of one depth sync as one fan-out and siblings overlap on
  /// their parent. The root gets "pump" and "tick 1" in one write.
  /// Unsupervised, the first failure is rethrown once every reply already
  /// owed has been read; supervised, a node that fails loses its round and
  /// the next sweep notices it.
  void tick();

  ControlClient& control(const std::string& name);

  /// Sorted norm keys of the node's local content matching the query spec.
  std::vector<std::string> keys(const std::string& name,
                                const std::string& query_spec);

  std::map<std::string, std::string> health(const std::string& name);

  /// SIGKILLs the node's process — no goodbye, sessions and mirror gone.
  /// Under supervision the node comes back on the normal backoff schedule.
  /// With reap_now=false the corpse is left as a zombie for the next
  /// supervise() sweep to find — the shape of an unobserved crash.
  void crash(const std::string& name, bool reap_now = true);

  /// Spawns a crashed (or stopped) node again on the same socket paths and
  /// re-installs its filters. Descendants heal on subsequent tick()s via
  /// the stale-cookie / reconciliation recovery path. Manual respawn clears
  /// supervision state (fresh restart budget).
  void respawn(const std::string& name);

  /// One supervision pass: reap every dead child (always, supervised or
  /// not), schedule/execute backoff respawns, run due liveness probes.
  /// tick() calls this first; tests may call it directly to step the
  /// supervisor without moving replication.
  void supervise();

  void stop();

  bool running(const std::string& name) const;

  NodeState state(const std::string& name) const;
  std::uint64_t restarts(const std::string& name) const;
  /// Deaths noticed by the waitpid sweep (crashes + kills), as opposed to
  /// deliberate stop()/reap.
  std::uint64_t unexpected_exits(const std::string& name) const;

  /// One line per node: "<state> restarts=<n> exits=<n>" — the control
  /// panel a soak asserts against.
  std::map<std::string, std::string> supervisor_report() const;

 private:
  /// One fbdr_node process: its tree handle, spawn arguments and
  /// supervision state.
  class Node;

  Node& node(const std::string& name) const;
  /// fork/execs the node with the write end of a fresh readiness pipe as
  /// --ready-fd; returns the read end, which wait_ready consumes.
  int spawn(Node& node);
  /// Blocks on the readiness pipe `ready_fd` (and closes it) until the node
  /// writes its byte (both listeners bound), then connects the control
  /// client. EOF means the child exited before it was ready and fails at
  /// once; no byte within spawn_timeout_ms fails at the deadline.
  void wait_ready(Node& node, int ready_fd);
  /// Spawns the node, waits until it is ready and installs its filters.
  void launch(Node& node);
  /// Ends the node's process and reaps it: "quit" when `politely` and its
  /// control plane answers, else SIGKILL.
  void reap(Node& node, bool politely);
  /// Records a death seen by waitpid/probe and schedules the respawn (or
  /// GaveUp) under supervision.
  void note_death(Node& node);
  std::uint64_t backoff_ticks(const Node& node) const;
  void try_respawn(Node& node);

  Options options_;
  SupervisorOptions supervisor_;
  topology::TreeDriver tree_;  // declaration order is parents first
  std::uint64_t tick_count_ = 0;
};

}  // namespace fbdr::netio
