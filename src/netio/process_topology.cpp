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

/// How long the driver waits for a node's control plane to answer.
constexpr int kControlTimeoutMs = 15000;

}  // namespace

class ProcessTopology::Node final : public topology::NodeHandle {
 public:
  Node(ProcessTopology& owner, std::string node_name,
       std::vector<std::string> filter_specs,
       std::vector<std::string> round_lines)
      : name(std::move(node_name)),
        filters(std::move(filter_specs)),
        round(std::move(round_lines)),
        listen(SocketAddr::unix_path(owner.options_.workdir + "/" + name +
                                     ".sock")),
        control_addr(SocketAddr::unix_path(owner.options_.workdir + "/" +
                                           name + ".ctl")),
        owner_(owner) {}

  bool up() const override { return pid > 0 && client; }
  void begin_sync() override { client->send(round); }
  void end_sync() override { client->finish(); }
  void begin_take() override { client->send({"take"}); }
  void end_take() override { client->finish(); }
  void crash() override {
    if (pid <= 0) return;
    owner_.reap(*this, /*politely=*/false);
    owner_.note_death(*this);
  }
  void restart() override {
    if (pid > 0) throw std::logic_error("node still running: " + name);
    owner_.launch(*this);
    restarts = 0;  // manual revival is an operator override: fresh budget
  }

  const std::string name;
  const std::vector<std::string> filters;
  const std::vector<std::string> round;  // one round's lines, in one write
  std::vector<std::string> extra_args;
  const SocketAddr listen;
  const SocketAddr control_addr;
  SocketAddr parent_override;  // e.g. a ChaosProxy in front of the parent
  bool has_parent_override = false;
  pid_t pid = -1;
  std::unique_ptr<ControlClient> client;
  // Supervision state:
  NodeState state = NodeState::Declared;
  std::uint64_t restarts = 0;          // respawn attempts this storm
  std::uint64_t unexpected_exits = 0;  // deaths seen by the waitpid sweep
  std::uint64_t backoff_until = 0;     // tick_count_ gate for next attempt
  std::uint64_t running_since = 0;     // tick_count_ at last (re)spawn

 private:
  ProcessTopology& owner_;
};

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
  // Both lines in one write: the root's loop answers them from one read
  // batch, in one send.
  tree_.add_root(name, std::make_unique<Node>(*this, name,
                                              std::vector<std::string>{},
                                              std::vector<std::string>{
                                                  "pump", "tick 1"}));
}

void ProcessTopology::add_relay(const std::string& name,
                                const std::string& parent,
                                std::vector<std::string> filter_specs) {
  tree_.add(name, parent,
            std::make_unique<Node>(*this, name, std::move(filter_specs),
                                   std::vector<std::string>{"sync"}));
}

ProcessTopology::Node& ProcessTopology::node(const std::string& name) const {
  return static_cast<Node&>(tree_.handle(name));
}

int ProcessTopology::spawn(Node& n) {
  const std::string& parent = tree_.parent(n.name);  // empty = root
  std::vector<std::string> args = {
      options_.node_binary,
      "--role",    parent.empty() ? "root" : "relay",
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
  if (!parent.empty()) {
    args.push_back("--parent");
    args.push_back(n.has_parent_override ? n.parent_override.to_string()
                                         : node(parent).listen.to_string());
    args.push_back("--parent-url");
    args.push_back("ldap://" + parent);
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
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.spawn_timeout_ms);
  char byte = 0;
  ssize_t got = -1;
  if (poll_until(fd, POLLIN, deadline) > 0) {
    do {
      got = ::read(fd, &byte, 1);
    } while (got < 0 && errno == EINTR);
  }
  ::close(fd);
  if (got == 1) {
    n.client = std::make_unique<ControlClient>(n.control_addr,
                                               kControlTimeoutMs);
    return;
  }
  if (got == 0) {
    // Every copy of the write end is gone: the child exited (or its exec
    // failed) before binding its listeners.
    if (n.pid > 0) {
      ::waitpid(n.pid, nullptr, 0);
      n.pid = -1;
    }
    throw std::runtime_error("node " + n.name + " exited during startup");
  }
  throw std::runtime_error("node " + n.name + " not ready within " +
                           std::to_string(options_.spawn_timeout_ms) + " ms");
}

void ProcessTopology::launch(Node& n) {
  wait_ready(n, spawn(n));
  for (const std::string& spec : n.filters) {
    n.client->request("install " + spec);
  }
  n.state = NodeState::Running;
  n.running_since = tick_count_;
}

void ProcessTopology::start() {
  const std::vector<std::string> names = tree_.names();
  if (names.empty()) throw std::logic_error("no root declared");
  for (const std::string& name : names) launch(node(name));
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
  if (tree_.parent(name).empty()) {
    throw std::logic_error("root has no parent link to proxy: " + name);
  }
  n.parent_override = addr;
  n.has_parent_override = true;
}

void ProcessTopology::tick() {
  ++tick_count_;
  supervise();
  tree_.tick(/*lose_failed_rounds=*/supervisor_.enabled);
}

void ProcessTopology::supervise() {
  // Sweep first — always, supervised or not — so no child ever lingers as
  // a zombie and unexpected deaths show up in the report.
  for (const std::string& name : tree_.names()) {
    Node& n = node(name);
    if (n.pid <= 0) continue;
    if (::waitpid(n.pid, nullptr, WNOHANG) == n.pid) {
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
    for (const std::string& name : tree_.names()) {
      Node& n = node(name);
      if (n.pid <= 0 || !n.client) continue;
      try {
        n.client->request("ping");
      } catch (const std::exception&) {
        n.crash();
      }
    }
  }

  for (const std::string& name : tree_.names()) {
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

void ProcessTopology::try_respawn(Node& n) {
  n.restarts += 1;
  try {
    launch(n);
  } catch (const std::exception&) {
    // Died or stalled during startup — the classic crash loop.
    reap(n, /*politely=*/false);
    note_death(n);
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
  if (reap_now) {
    tree_.crash(name);
    return;
  }
  // Leave the corpse for the next supervise() sweep — the honest shape of a
  // crash nobody was watching for (and the zombie-reaping test's hook).
  const pid_t pid = node(name).pid;
  if (pid > 0) ::kill(pid, SIGKILL);
}

void ProcessTopology::respawn(const std::string& name) { tree_.restart(name); }

void ProcessTopology::reap(Node& n, bool politely) {
  if (n.pid <= 0) return;
  bool quit = false;
  if (politely && n.client) {
    try {
      n.client->request("quit");
      quit = true;
    } catch (const std::exception&) {
    }
  }
  if (!quit) ::kill(n.pid, SIGKILL);
  ::waitpid(n.pid, nullptr, 0);
  n.pid = -1;
  n.client.reset();
}

void ProcessTopology::stop() {
  // Children before parents: a relay quitting mid-sync against a dead
  // parent would just eat its retry budget.
  const std::vector<std::string> names = tree_.names();
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    Node& n = node(*it);
    reap(n, /*politely=*/true);
    n.state = NodeState::Stopped;
  }
}

bool ProcessTopology::running(const std::string& name) const {
  return node(name).pid > 0;
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
  for (const std::string& name : tree_.names()) {
    const Node& n = node(name);
    report[name] = std::string(label(n.state)) +
                   " restarts=" + std::to_string(n.restarts) +
                   " exits=" + std::to_string(n.unexpected_exits);
  }
  return report;
}

}  // namespace fbdr::netio
