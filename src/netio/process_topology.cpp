#include "netio/process_topology.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <stdexcept>

namespace fbdr::netio {

namespace {

std::chrono::steady_clock::time_point deadline_after(int ms) {
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
}

}  // namespace

ProcessTopology::ProcessTopology(Options options)
    : options_(std::move(options)) {
  if (options_.node_binary.empty() || options_.workdir.empty()) {
    throw std::invalid_argument(
        "ProcessTopology needs node_binary and workdir");
  }
}

ProcessTopology::~ProcessTopology() {
  try {
    stop();
  } catch (...) {
  }
}

void ProcessTopology::add_root(const std::string& name) {
  if (!root_.empty()) throw std::logic_error("root already declared: " + root_);
  Node node;
  node.name = name;
  node.depth = 0;
  node.listen = SocketAddr::unix_path(options_.workdir + "/" + name + ".sock");
  node.control_addr =
      SocketAddr::unix_path(options_.workdir + "/" + name + ".ctl");
  root_ = name;
  order_.push_back(name);
  nodes_.emplace(name, std::move(node));
}

void ProcessTopology::add_relay(const std::string& name,
                                const std::string& parent,
                                std::vector<std::string> filter_specs) {
  const Node& up = node(parent);  // throws on unknown parent
  Node relay;
  relay.name = name;
  relay.parent = parent;
  relay.filters = std::move(filter_specs);
  relay.depth = up.depth + 1;
  relay.listen = SocketAddr::unix_path(options_.workdir + "/" + name + ".sock");
  relay.control_addr =
      SocketAddr::unix_path(options_.workdir + "/" + name + ".ctl");
  order_.push_back(name);
  nodes_.emplace(name, std::move(relay));
}

ProcessTopology::Node& ProcessTopology::node(const std::string& name) {
  const auto it = nodes_.find(name);
  if (it == nodes_.end()) throw std::invalid_argument("unknown node: " + name);
  return it->second;
}

const ProcessTopology::Node& ProcessTopology::node(
    const std::string& name) const {
  const auto it = nodes_.find(name);
  if (it == nodes_.end()) throw std::invalid_argument("unknown node: " + name);
  return it->second;
}

int ProcessTopology::spawn(Node& n) {
  std::vector<std::string> args = {
      options_.node_binary,
      "--role",    n.parent.empty() ? "root" : "relay",
      "--name",    n.name,
      "--suffix",  options_.suffix,
      "--listen",  n.listen.to_string(),
      "--control", n.control_addr.to_string(),
      "--session-limit", std::to_string(options_.session_time_limit),
  };
  if (options_.node_io_timeout_ms > 0) {
    args.push_back("--io-timeout-ms");
    args.push_back(std::to_string(options_.node_io_timeout_ms));
  }
  if (options_.node_connect_timeout_ms > 0) {
    args.push_back("--connect-timeout-ms");
    args.push_back(std::to_string(options_.node_connect_timeout_ms));
  }
  if (!n.parent.empty()) {
    args.push_back("--parent");
    args.push_back(n.has_parent_override ? n.parent_override.to_string()
                                         : node(n.parent).listen.to_string());
    args.push_back("--parent-url");
    args.push_back("ldap://" + n.parent);
  }
  for (const std::string& extra : n.extra_args) args.push_back(extra);

  // Readiness pipe: both ends close-on-exec, so no other child inherits
  // them; only this child clears the flag on its write end.
  int ready[2];
  if (::pipe2(ready, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe2: ") + std::strerror(errno));
  }
  args.push_back("--ready-fd");
  args.push_back(std::to_string(ready[1]));

  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    const int fork_errno = errno;
    ::close(ready[0]);
    ::close(ready[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(fork_errno));
  }
  if (pid == 0) {
    ::fcntl(ready[1], F_SETFD, 0);
    ::execv(argv[0], argv.data());
    // Reached only when exec fails; the parent reads EOF on the pipe.
    std::_Exit(127);
  }
  ::close(ready[1]);
  n.pid = pid;
  n.client.reset();
  return ready[0];
}

void ProcessTopology::wait_ready(Node& n, int fd) {
  const auto deadline = deadline_after(options_.spawn_timeout_ms);
  pollfd pfd{fd, POLLIN, 0};
  int ready = 0;
  do {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    ready = ::poll(&pfd, 1,
                   static_cast<int>(std::max<std::int64_t>(left.count(), 0)));
  } while (ready < 0 && errno == EINTR);
  char byte = 0;
  ssize_t got = -1;
  if (ready > 0) {
    do {
      got = ::read(fd, &byte, 1);
    } while (got < 0 && errno == EINTR);
  }
  ::close(fd);
  if (got == 1) {
    n.client = std::make_unique<ControlClient>(n.control_addr,
                                               options_.control_timeout_ms);
    return;
  }
  if (got == 0) {
    // Every copy of the write end is gone: the child exited (or its exec
    // failed) before binding its listeners.
    if (n.pid > 0) {
      ::waitpid(n.pid, &n.last_exit_status, 0);
      n.pid = -1;
    }
    throw std::runtime_error("node " + n.name + " exited during startup");
  }
  throw std::runtime_error("node " + n.name + " not ready within " +
                           std::to_string(options_.spawn_timeout_ms) + " ms");
}

void ProcessTopology::install_filters(Node& n) {
  for (const std::string& spec : n.filters) {
    n.client->request("install " + spec);
  }
}

void ProcessTopology::start() {
  if (root_.empty()) throw std::logic_error("no root declared");
  for (const std::string& name : order_) {
    Node& n = node(name);
    wait_ready(n, spawn(n));
    install_filters(n);
    n.state = NodeState::Running;
    n.running_since = tick_count_;
  }
}

void ProcessTopology::set_supervisor(SupervisorOptions options) {
  supervisor_ = options;
}

void ProcessTopology::set_extra_args(const std::string& name,
                                     std::vector<std::string> args) {
  node(name).extra_args = std::move(args);
}

void ProcessTopology::set_parent_proxy(const std::string& name,
                                       const SocketAddr& addr) {
  Node& n = node(name);
  if (n.parent.empty()) {
    throw std::logic_error("root has no parent link to proxy: " + name);
  }
  n.parent_override = addr;
  n.has_parent_override = true;
}

std::vector<std::string> ProcessTopology::relay_names_deepest_first() const {
  std::vector<std::string> names;
  for (const std::string& name : order_) {
    if (!node(name).parent.empty()) names.push_back(name);
  }
  std::stable_sort(names.begin(), names.end(),
                   [this](const std::string& a, const std::string& b) {
                     return node(a).depth > node(b).depth;
                   });
  return names;
}

void ProcessTopology::tick() {
  ++tick_count_;
  supervise();
  // Under supervision a node may die mid-command (kill storms): its round
  // is lost, and the next sweep notices the corpse. Unsupervised, the first
  // failure is rethrown once every reply already owed has been read.
  std::exception_ptr failure;
  const auto guarded = [&failure](auto&& step) {
    try {
      step();
    } catch (const std::exception&) {
      if (!failure) failure = std::current_exception();
    }
  };
  // Deepest level first, like TopologyRuntime::tick(): each relay pulls
  // from its parent (and pumps its own downstream sessions inside sync())
  // before the parent's content moves again. A level syncs as one fan-out:
  // every relay in it gets its line before any reply is read, so siblings
  // overlap on their parent. Then the root routes its journal and the clock
  // advances.
  const std::vector<std::string> relays = relay_names_deepest_first();
  for (auto level = relays.begin(); level != relays.end();) {
    const int depth = node(*level).depth;
    const auto next = std::find_if(level, relays.end(),
                                   [&](const std::string& name) {
                                     return node(name).depth != depth;
                                   });
    std::vector<Node*> sent;
    for (auto it = level; it != next; ++it) {
      Node& n = node(*it);
      if (n.pid <= 0 || !n.client) continue;  // down: degrades, later heals
      guarded([&] {
        n.client->send({"sync"});
        sent.push_back(&n);
      });
    }
    for (Node* n : sent) guarded([n] { n->client->finish(); });
    if (failure && !supervisor_.enabled) std::rethrow_exception(failure);
    level = next;
  }
  Node& r = node(root_);
  if (r.pid <= 0 || !r.client) return;  // root down: no pump, clock holds
  // Both lines in one write: the root's loop answers them from one read
  // batch, in one send.
  guarded([&r] { r.client->request_all({"pump", "tick 1"}); });
  if (failure && !supervisor_.enabled) std::rethrow_exception(failure);
}

void ProcessTopology::supervise() {
  // Sweep first — always, supervised or not — so no child ever lingers as
  // a zombie and unexpected deaths show up in the report.
  for (const std::string& name : order_) {
    Node& n = node(name);
    if (n.pid <= 0) continue;
    int status = 0;
    if (::waitpid(n.pid, &status, WNOHANG) == n.pid) {
      n.last_exit_status = status;
      n.pid = -1;
      n.client.reset();
      note_death(n);
    }
  }

  if (!supervisor_.enabled) return;

  // Liveness probes: a control plane that stopped answering is a crash the
  // kernel has not told us about yet (hung loop, half-dead process).
  if (supervisor_.probe_every_ticks > 0 &&
      tick_count_ % supervisor_.probe_every_ticks == 0) {
    for (const std::string& name : order_) {
      Node& n = node(name);
      if (n.pid <= 0 || !n.client) continue;
      try {
        n.client->request("ping");
      } catch (const std::exception&) {
        ::kill(n.pid, SIGKILL);
        ::waitpid(n.pid, &n.last_exit_status, 0);
        n.pid = -1;
        n.client.reset();
        note_death(n);
      }
    }
  }

  for (const std::string& name : order_) {
    Node& n = node(name);
    // A node that stayed up long enough earns its restart budget back: the
    // cap is for restart storms, not for a long life with rare crashes.
    if (n.state == NodeState::Running && n.restarts > 0 &&
        tick_count_ - n.running_since >= supervisor_.stable_ticks_reset) {
      n.restarts = 0;
    }
    if (n.state != NodeState::Backoff || tick_count_ < n.backoff_until) {
      continue;
    }
    try_respawn(n);
  }
}

void ProcessTopology::note_death(Node& n) {
  n.unexpected_exits += 1;
  if (n.state == NodeState::Stopped || n.state == NodeState::GaveUp) return;
  if (!supervisor_.enabled) {
    n.state = NodeState::Declared;  // down; manual respawn() may revive it
    return;
  }
  if (n.restarts >= supervisor_.max_restarts) {
    n.state = NodeState::GaveUp;
    return;
  }
  n.state = NodeState::Backoff;
  n.backoff_until = tick_count_ + backoff_ticks(n);
}

std::uint64_t ProcessTopology::backoff_ticks(const Node& n) const {
  const std::uint64_t shift = std::min<std::uint64_t>(n.restarts, 16);
  std::uint64_t wait =
      std::min(supervisor_.backoff_base_ticks << shift,
               supervisor_.backoff_cap_ticks);
  if (supervisor_.jitter_ticks > 0) {
    // Deterministic jitter: a pure function of (seed, name, attempt), so a
    // seeded soak replays exactly yet siblings never restart in lockstep.
    std::uint64_t h = supervisor_.seed ^ (n.restarts * 0x9E3779B97F4A7C15ULL);
    for (const char c : n.name) {
      h = (h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c))) *
          0x100000001B3ULL;
    }
    wait += h % (supervisor_.jitter_ticks + 1);
  }
  return std::max<std::uint64_t>(wait, 1);
}

bool ProcessTopology::try_respawn(Node& n) {
  n.restarts += 1;
  try {
    wait_ready(n, spawn(n));
    install_filters(n);
    n.state = NodeState::Running;
    n.running_since = tick_count_;
    return true;
  } catch (const std::exception&) {
    // Died or stalled during startup — the classic crash loop.
    if (n.pid > 0) {
      ::kill(n.pid, SIGKILL);
      ::waitpid(n.pid, nullptr, 0);
      n.pid = -1;
    }
    n.client.reset();
    n.unexpected_exits += 1;
    if (n.restarts >= supervisor_.max_restarts) {
      n.state = NodeState::GaveUp;
    } else {
      n.state = NodeState::Backoff;
      n.backoff_until = tick_count_ + backoff_ticks(n);
    }
    return false;
  }
}

ControlClient& ProcessTopology::control(const std::string& name) {
  Node& n = node(name);
  if (!n.client) throw std::runtime_error("node not running: " + name);
  return *n.client;
}

std::vector<std::string> ProcessTopology::keys(const std::string& name,
                                               const std::string& query_spec) {
  return control(name).request("keys " + query_spec);
}

std::map<std::string, std::string> ProcessTopology::health(
    const std::string& name) {
  return control(name).health();
}

void ProcessTopology::crash(const std::string& name, bool reap_now) {
  Node& n = node(name);
  if (n.pid <= 0) return;
  if (!reap_now) {
    // Leave the corpse for the next supervise() sweep — the honest shape of
    // a crash nobody was watching for (and the zombie-reaping test's hook).
    ::kill(n.pid, SIGKILL);
    return;
  }
  ::kill(n.pid, SIGKILL);
  ::waitpid(n.pid, &n.last_exit_status, 0);
  n.pid = -1;
  n.client.reset();
  note_death(n);
}

void ProcessTopology::respawn(const std::string& name) {
  Node& n = node(name);
  if (n.pid > 0) throw std::logic_error("node still running: " + name);
  wait_ready(n, spawn(n));
  install_filters(n);
  // Manual revival is an operator override: fresh restart budget.
  n.state = NodeState::Running;
  n.running_since = tick_count_;
  n.restarts = 0;
}

void ProcessTopology::reap(Node& n, bool force) {
  if (n.pid <= 0) return;
  if (force) {
    ::kill(n.pid, SIGKILL);
  } else if (n.client) {
    try {
      n.client->request("quit");
    } catch (const std::exception&) {
      ::kill(n.pid, SIGKILL);
    }
  } else {
    ::kill(n.pid, SIGKILL);
  }
  ::waitpid(n.pid, nullptr, 0);
  n.pid = -1;
  n.client.reset();
}

void ProcessTopology::stop() {
  // Children before parents: a relay quitting mid-sync against a dead
  // parent would just eat its retry budget.
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    Node& n = node(*it);
    reap(n, /*force=*/false);
    n.state = NodeState::Stopped;
  }
}

bool ProcessTopology::running(const std::string& name) const {
  return node(name).pid > 0;
}

int ProcessTopology::depth(const std::string& name) const {
  return node(name).depth;
}

ProcessTopology::NodeState ProcessTopology::state(
    const std::string& name) const {
  return node(name).state;
}

std::uint64_t ProcessTopology::restarts(const std::string& name) const {
  return node(name).restarts;
}

std::uint64_t ProcessTopology::unexpected_exits(
    const std::string& name) const {
  return node(name).unexpected_exits;
}

std::map<std::string, std::string> ProcessTopology::supervisor_report() const {
  const auto label = [](NodeState s) -> const char* {
    switch (s) {
      case NodeState::Declared: return "declared";
      case NodeState::Running: return "running";
      case NodeState::Backoff: return "backoff";
      case NodeState::GaveUp: return "gave_up";
      case NodeState::Stopped: return "stopped";
    }
    return "unknown";
  };
  std::map<std::string, std::string> report;
  for (const auto& [name, n] : nodes_) {
    report[name] = std::string(label(n.state)) +
                   " restarts=" + std::to_string(n.restarts) +
                   " exits=" + std::to_string(n.unexpected_exits);
  }
  return report;
}

}  // namespace fbdr::netio
