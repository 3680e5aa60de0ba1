// Chaos-hardening of the real-socket stack, three layers deep:
//
//  1. ChaosProxy unit behavior — with zero faults it is a transparent byte
//     relay; each fault knob (drop, corrupt, delay, partition, severed
//     connections) does exactly what it says at the byte level, counted.
//  2. The headline soak: the depth-3 fork/exec'd fbdr_node chain with a
//     seeded ChaosProxy on EVERY parent link is driven through the four
//     canonical fault schedules (partition window, reset storm, bit
//     corruption + mid-frame truncation, SIGKILL storm healed by the
//     supervisor) while a journaled mutation stream keeps landing. After
//     the heal phase the process tree must converge bit-identically to the
//     fault-free in-process twin, with every relay recovery accounted as a
//     full reload or a reconciliation walk.
//  3. Supervision edges: a relay that dies on every respawn exhausts its
//     restart budget into the terminal gave_up state while the rest of the
//     tree keeps serving; a SIGKILLed child left unreaped is collected by
//     the supervise() zombie sweep and surfaced in the report.
//
// Skips loudly when the sandbox forbids sockets or fork/exec.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <poll.h>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "net/fault_schedule.h"
#include "netio/chaos_proxy.h"
#include "netio/process_topology.h"
#include "netio/socket_addr.h"
#include "netio_test_util.h"

#ifndef FBDR_NODE_BIN
#error "netio_chaos_test needs FBDR_NODE_BIN (path to the fbdr_node binary)"
#endif

namespace fbdr::netio {
namespace {

using testutil::assert_converged;
using testutil::build_tree;
using testutil::make_workdir;
using testutil::master_truth;
using testutil::MutationStream;
using testutil::serial_query;
using testutil::serial_spec;
using testutil::topology_options;
using testutil::RuntimeTwin;

// ---------------------------------------------------------------------------
// FaultSchedule unit behavior

TEST(FaultScheduleTest, PhasesCoverRoundsAndClampPastTheEnd) {
  const net::FaultSchedule schedule = net::partition_schedule(7);
  EXPECT_EQ(schedule.name, "partition");
  ASSERT_EQ(schedule.phases.size(), 3u);
  EXPECT_EQ(schedule.total_rounds(), 13u);

  EXPECT_EQ(schedule.phase_at(0).name, "warmup");
  EXPECT_EQ(schedule.phase_at(3).name, "warmup");
  EXPECT_EQ(schedule.phase_at(4).name, "partition");
  EXPECT_GE(schedule.config_at(5).outage, 1.0);
  EXPECT_EQ(schedule.phase_at(7).name, "heal");
  // Past the end: clamp to the last (quiet) phase, never throw.
  EXPECT_EQ(schedule.phase_at(1000).name, "heal");
  EXPECT_EQ(schedule.config_at(1000).outage, 0.0);
}

TEST(FaultScheduleTest, CrashStormIsByteQuiet) {
  const net::FaultSchedule schedule = net::crash_storm_schedule(7);
  for (std::uint64_t round = 0; round < schedule.total_rounds(); ++round) {
    const net::FaultConfig& c = schedule.config_at(round);
    EXPECT_EQ(c.drop_request + c.drop_response + c.reset + c.corrupt +
                  c.truncate + c.outage,
              0.0)
        << "crash storm faults are SIGKILLs, not bytes (round " << round
        << ")";
  }
}

// ---------------------------------------------------------------------------
// ChaosProxy unit behavior against a plain echo server

/// Minimal byte echo server: serves accepted connections sequentially,
/// echoing until EOF. The simplest possible "upstream" a proxy can front.
class EchoServer {
 public:
  explicit EchoServer(const SocketAddr& addr) {
    std::string error;
    listen_fd_ = open_listener(addr, 8, nullptr, &error);
    if (listen_fd_ < 0) throw std::runtime_error("echo listen: " + error);
    set_nonblocking(listen_fd_);
    thread_ = std::thread([this] { serve(); });
  }

  ~EchoServer() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
  }

 private:
  void serve() {
    while (!stop_.load()) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      ::poll(&pfd, 1, 20);
      const int conn = ::accept(listen_fd_, nullptr, nullptr);
      if (conn < 0) continue;
      char buf[4096];
      ssize_t n;
      while ((n = ::recv(conn, buf, sizeof(buf), 0)) > 0) {
        ssize_t off = 0;
        while (off < n) {
          const ssize_t w =
              ::send(conn, buf + off, static_cast<std::size_t>(n - off),
                     MSG_NOSIGNAL);
          if (w <= 0) break;
          off += w;
        }
      }
      ::close(conn);
    }
  }

  int listen_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};
};

struct ProxyRig {
  std::string workdir;
  std::unique_ptr<EchoServer> echo;
  std::unique_ptr<ChaosProxy> proxy;
  SocketAddr proxy_addr;

  ProxyRig() {
    workdir = make_workdir();
    if (workdir.empty()) throw std::runtime_error("mkdtemp failed");
    const SocketAddr echo_addr =
        SocketAddr::unix_path(workdir + "/echo.sock");
    echo = std::make_unique<EchoServer>(echo_addr);
    ChaosProxy::Options options;
    options.listen = SocketAddr::unix_path(workdir + "/proxy.sock");
    options.upstream = echo_addr;
    options.seed = 42;
    proxy = std::make_unique<ChaosProxy>(std::move(options));
    proxy_addr = proxy->listen();
    proxy->start();
  }

  /// Connects through the proxy with a 2s receive deadline.
  int connect() const {
    std::string error;
    const int fd = open_client(proxy_addr, 1000, &error);
    if (fd >= 0) {
      timeval tv{2, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    return fd;
  }
};

/// Sends `out` and reads until `expect` bytes arrived, EOF, or deadline.
std::string exchange(int fd, const std::string& out, std::size_t expect) {
  [[maybe_unused]] ssize_t sent =
      ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
  std::string in;
  char buf[4096];
  while (in.size() < expect) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    in.append(buf, static_cast<std::size_t>(n));
  }
  return in;
}

TEST(ChaosProxyTest, QuietProxyIsATransparentRelay) {
  SKIP_WITHOUT_SOCKETS();
  ProxyRig rig;
  const int fd = rig.connect();
  ASSERT_GE(fd, 0);
  const std::string payload = "through-the-looking-glass";
  EXPECT_EQ(exchange(fd, payload, payload.size()), payload);
  ::close(fd);

  const ChaosProxy::Counters c = rig.proxy->counters();
  EXPECT_EQ(c.connections, 1u);
  EXPECT_EQ(c.bytes_up, payload.size());
  EXPECT_EQ(c.bytes_down, payload.size());
  EXPECT_EQ(c.faults(), 0u) << "a quiet proxy must invent no faults";
}

TEST(ChaosProxyTest, CorruptionFlipsExactlyOneBitPerChunk) {
  SKIP_WITHOUT_SOCKETS();
  ProxyRig rig;
  LinkFaults up;
  up.corrupt = 1.0;  // every upstream chunk damaged; echo path clean
  rig.proxy->set_faults(up, LinkFaults{});

  const int fd = rig.connect();
  ASSERT_GE(fd, 0);
  const std::string payload = "0123456789abcdef";
  const std::string echoed = exchange(fd, payload, payload.size());
  ::close(fd);

  ASSERT_EQ(echoed.size(), payload.size());
  int flipped_bits = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    unsigned diff = static_cast<unsigned char>(payload[i]) ^
                    static_cast<unsigned char>(echoed[i]);
    while (diff != 0) {
      flipped_bits += static_cast<int>(diff & 1u);
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1) << "one chunk, one flipped bit";
  EXPECT_GE(rig.proxy->counters().corrupted, 1u);
}

TEST(ChaosProxyTest, DropClosesInsteadOfForwarding) {
  SKIP_WITHOUT_SOCKETS();
  ProxyRig rig;
  LinkFaults up;
  up.drop = 1.0;
  rig.proxy->set_faults(up, LinkFaults{});

  const int fd = rig.connect();
  ASSERT_GE(fd, 0);
  EXPECT_EQ(exchange(fd, "doomed", 1), "") << "nothing may come back";
  ::close(fd);
  EXPECT_GE(rig.proxy->counters().drops, 1u);
}

TEST(ChaosProxyTest, DelayHoldsBytesForTheConfiguredLatency) {
  SKIP_WITHOUT_SOCKETS();
  ProxyRig rig;
  LinkFaults slow;
  slow.delay_ms = 100;
  rig.proxy->set_faults(slow, slow);

  const int fd = rig.connect();
  ASSERT_GE(fd, 0);
  const auto t0 = std::chrono::steady_clock::now();
  const std::string payload = "latency";
  EXPECT_EQ(exchange(fd, payload, payload.size()), payload);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  ::close(fd);
  EXPECT_GE(elapsed, 150) << "two delayed hops of 100ms each";
  EXPECT_GE(rig.proxy->counters().delayed, 2u);
}

TEST(ChaosProxyTest, PartitionRefusesNewAndHealsWhenLifted) {
  SKIP_WITHOUT_SOCKETS();
  ProxyRig rig;
  rig.proxy->set_partition(true);

  const int refused = rig.connect();
  if (refused >= 0) {
    // Connect may complete (listen backlog) but the link dies at accept.
    EXPECT_EQ(exchange(refused, "hello?", 1), "");
    ::close(refused);
  }
  EXPECT_TRUE(rig.proxy->partitioned());
  EXPECT_GE(rig.proxy->counters().refused_connects, 1u);

  rig.proxy->set_partition(false);
  const int fd = rig.connect();
  ASSERT_GE(fd, 0);
  EXPECT_EQ(exchange(fd, "healed", 6), "healed");
  ::close(fd);
}

TEST(ChaosProxyTest, DropConnectionsSeversEstablishedLinks) {
  SKIP_WITHOUT_SOCKETS();
  ProxyRig rig;
  const int fd = rig.connect();
  ASSERT_GE(fd, 0);
  EXPECT_EQ(exchange(fd, "warm", 4), "warm");
  ASSERT_EQ(rig.proxy->open_links(), 1u);

  rig.proxy->drop_connections();
  // The severed link surfaces as EOF/reset on the next read.
  char buf[16];
  ssize_t n;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  do {
    n = ::recv(fd, buf, sizeof(buf), 0);
  } while (n < 0 && errno == EINTR &&
           std::chrono::steady_clock::now() < give_up);
  EXPECT_LE(n, 0);
  ::close(fd);
  EXPECT_EQ(rig.proxy->open_links(), 0u);
}

// ---------------------------------------------------------------------------
// The headline soak: chaos-proxied process tree vs fault-free twin

constexpr int kNodeIoTimeoutMs = 400;

struct ProxySet {
  std::unique_ptr<ChaosProxy> d1, d2, leaf;

  void apply(const net::FaultConfig& config) {
    // 25ms per logical tick keeps injected delay visible but cheap.
    d1->apply(config, 25);
    d2->apply(config, 25);
    leaf->apply(config, 25);
  }

  void sever_all() {
    d1->drop_connections();
    d2->drop_connections();
    leaf->drop_connections();
  }

  std::uint64_t total_faults() const {
    return d1->counters().faults() + d2->counters().faults() +
           leaf->counters().faults();
  }
};

ProxySet make_proxies(const std::string& workdir, std::uint64_t seed) {
  const auto make = [&](const char* name, const char* parent,
                        std::uint64_t salt) {
    ChaosProxy::Options options;
    options.listen = SocketAddr::unix_path(workdir + "/" + name + ".px");
    options.upstream =
        SocketAddr::unix_path(workdir + "/" + parent + ".sock");
    options.seed = seed ^ salt;
    options.connect_timeout_ms = kNodeIoTimeoutMs;
    auto proxy = std::make_unique<ChaosProxy>(std::move(options));
    proxy->listen();
    proxy->start();
    return proxy;
  };
  ProxySet set;
  set.d1 = make("d1", "root", 0x11);
  set.d2 = make("d2", "d1", 0x22);
  set.leaf = make("leaf", "d2", 0x33);
  return set;
}

bool phase_is_quiet(const net::FaultConfig& c) {
  return c.drop_request + c.drop_response + c.reset + c.corrupt + c.truncate ==
             0.0 &&
         c.outage < 1.0;
}

/// Non-asserting convergence probe for the heal loop: true once every
/// process node's content equals master truth (and is non-empty).
bool quietly_converged(ProcessTopology& procs, RuntimeTwin& twin) {
  try {
    for (const testutil::RelaySpec& n : testutil::kChain) {
      const std::vector<std::string> keys =
          procs.keys(n.name, serial_spec(n.prefix));
      if (keys.empty() ||
          keys != master_truth(*twin.master, serial_query(n.prefix))) {
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;  // a node is mid-respawn; keep healing
  }
  return true;
}

bool all_running(const ProcessTopology& procs) {
  for (const char* name : {"root", "d1", "d2", "leaf"}) {
    if (!procs.running(name)) return false;
  }
  return true;
}

void run_chaos_soak(const net::FaultSchedule& schedule, std::uint64_t seed,
                    bool kill_storm) {
  const std::string workdir = make_workdir();
  ASSERT_FALSE(workdir.empty());

  ProcessTopology::Options options =
      topology_options(workdir, FBDR_NODE_BIN);
  options.node_io_timeout_ms = kNodeIoTimeoutMs;
  options.node_connect_timeout_ms = kNodeIoTimeoutMs;
  ProcessTopology procs(options);
  build_tree(procs);

  ProcessTopology::SupervisorOptions sup;
  sup.enabled = true;
  sup.max_restarts = 5;
  sup.backoff_base_ticks = 1;
  sup.backoff_cap_ticks = 4;
  sup.jitter_ticks = 1;
  sup.seed = seed;
  sup.stable_ticks_reset = 4;
  sup.probe_every_ticks = 3;
  procs.set_supervisor(sup);

  // Every parent link runs through a seeded man-in-the-middle; the
  // override survives respawns, so supervised heals cross the same faulty
  // wire the node died behind.
  ProxySet proxies = make_proxies(workdir, seed);
  procs.set_parent_proxy("d1", SocketAddr::unix_path(workdir + "/d1.px"));
  procs.set_parent_proxy("d2", SocketAddr::unix_path(workdir + "/d2.px"));
  procs.set_parent_proxy("leaf",
                         SocketAddr::unix_path(workdir + "/leaf.px"));
  ASSERT_NO_THROW(procs.start());

  RuntimeTwin twin;
  MutationStream stream(procs, twin);
  stream.seed();
  for (const char* name : {"d1", "d2", "leaf"}) {
    procs.control(name).request("installall");
  }
  ASSERT_TRUE(twin.runtime.install());

  std::mt19937_64 kill_rng(seed);
  std::string last_phase;
  for (std::uint64_t round = 0; round < schedule.total_rounds(); ++round) {
    const net::FaultPhase& phase = schedule.phase_at(round);
    proxies.apply(phase.config);
    if (phase.name != last_phase && !last_phase.empty() &&
        phase_is_quiet(phase.config)) {
      // The abrupt end of a fault window: half-open links die loudly
      // instead of lingering until their io deadline.
      proxies.sever_all();
    }
    last_phase = phase.name;

    if (kill_storm && phase.name == "storm" && round % 2 == 0) {
      // Seeded SIGKILLs against mid-chain relays; every other kill leaves
      // the corpse unreaped so the supervise() zombie sweep earns its keep.
      const char* victim = (kill_rng() % 2 == 0) ? "d1" : "d2";
      procs.crash(victim, /*reap_now=*/(round % 4 != 0));
    }

    stream.add(0, 10 + static_cast<int>(round));   // inside every filter
    stream.add(7, 10 + static_cast<int>(round));   // outside the chain
    if (round % 3 == 0) stream.remove(0, static_cast<int>(round) / 3);
    procs.tick();
    twin.runtime.tick();
  }

  // Quiesce: faults off, half-open links severed, heal until converged
  // (bounded — the assert below reports the divergence if never reached).
  proxies.apply(net::FaultConfig{});
  proxies.sever_all();
  for (int extra = 0; extra < 30; ++extra) {
    procs.tick();
    twin.runtime.tick();
    if (all_running(procs) && quietly_converged(procs, twin)) break;
  }

  assert_converged(procs, twin, "schedule " + schedule.name);

  // Every relay healthy again, every recovery accounted as a full reload
  // or a reconciliation walk — recovery never bypasses the bookkeeping.
  std::uint64_t total_recoveries = 0;
  for (const char* name : {"d1", "d2", "leaf"}) {
    const auto health = procs.health(name);
    const auto recoveries = std::stoull(health.at("recoveries"));
    const auto accounted = std::stoull(health.at("full_reloads")) +
                           std::stoull(health.at("reconciles"));
    EXPECT_EQ(recoveries, accounted)
        << name << ": recoveries outside the reload/reconcile surface ("
        << schedule.name << ")";
    EXPECT_EQ(health.at("degraded"), "0")
        << name << " still degraded after heal (" << schedule.name << ")";
    total_recoveries += recoveries;
  }

  if (kill_storm) {
    EXPECT_GT(total_recoveries, 0u)
        << "SIGKILL storms must heal through the recovery surface";
    EXPECT_GT(procs.unexpected_exits("d1") + procs.unexpected_exits("d2"),
              0u);
    for (const char* name : {"root", "d1", "d2", "leaf"}) {
      EXPECT_EQ(procs.state(name), ProcessTopology::NodeState::Running)
          << name;
    }
  } else {
    EXPECT_GT(proxies.total_faults(), 0u)
        << "the schedule " << schedule.name
        << " injected nothing — the soak proved nothing";
  }

  procs.stop();
}

TEST(ChaosSoak, PartitionWindowHealsToTwin) {
  SKIP_WITHOUT_SOCKETS();
  run_chaos_soak(net::partition_schedule(20050501), 20050501, false);
}

TEST(ChaosSoak, ResetStormHealsToTwin) {
  SKIP_WITHOUT_SOCKETS();
  run_chaos_soak(net::reset_storm_schedule(1693), 1693, false);
}

TEST(ChaosSoak, CorruptionAndTruncationHealToTwin) {
  SKIP_WITHOUT_SOCKETS();
  run_chaos_soak(net::corruption_schedule(31337), 31337, false);
}

TEST(ChaosSoak, SigkillStormIsHealedByTheSupervisor) {
  SKIP_WITHOUT_SOCKETS();
  run_chaos_soak(net::crash_storm_schedule(424242), 424242, true);
}

// ---------------------------------------------------------------------------
// Supervision edges

TEST(ChaosSupervision, CrashLoopingRelayLandsInGaveUpWhileTreeServes) {
  SKIP_WITHOUT_SOCKETS();
  const std::string workdir = make_workdir();
  ASSERT_FALSE(workdir.empty());

  ProcessTopology::Options options =
      topology_options(workdir, FBDR_NODE_BIN);
  options.node_io_timeout_ms = kNodeIoTimeoutMs;
  options.node_connect_timeout_ms = kNodeIoTimeoutMs;
  ProcessTopology procs(options);
  build_tree(procs);

  ProcessTopology::SupervisorOptions sup;
  sup.enabled = true;
  sup.max_restarts = 3;
  sup.backoff_base_ticks = 1;
  sup.backoff_cap_ticks = 2;
  sup.jitter_ticks = 1;
  sup.seed = 99;
  sup.stable_ticks_reset = 50;  // no budget refund inside this short test
  procs.set_supervisor(sup);
  ASSERT_NO_THROW(procs.start());

  RuntimeTwin twin;
  MutationStream stream(procs, twin);
  stream.seed();
  for (const char* name : {"d1", "d2", "leaf"}) {
    procs.control(name).request("installall");
  }
  ASSERT_TRUE(twin.runtime.install());
  for (int round = 0; round < 3; ++round) {
    procs.tick();
    twin.runtime.tick();
  }

  // From now on d2 dies before it can serve anything: every supervised
  // respawn fails, the backoff stretches, the budget runs dry.
  procs.set_extra_args("d2", {"--crash-on-start"});
  procs.crash("d2");

  int rounds = 0;
  while (procs.state("d2") != ProcessTopology::NodeState::GaveUp &&
         rounds < 60) {
    stream.add(0, 20 + rounds);
    procs.tick();
    twin.runtime.tick();
    ++rounds;
  }

  EXPECT_EQ(procs.state("d2"), ProcessTopology::NodeState::GaveUp);
  EXPECT_EQ(procs.restarts("d2"), sup.max_restarts);
  EXPECT_FALSE(procs.running("d2"));
  EXPECT_NE(procs.supervisor_report().at("d2").find("gave_up"),
            std::string::npos);

  // The rest of the tree never stopped serving: d1 still tracks the master
  // exactly through its live link.
  for (int round = 0; round < 3; ++round) {
    procs.tick();
    twin.runtime.tick();
  }
  EXPECT_EQ(procs.keys("d1", serial_spec("0")),
            master_truth(*twin.master, serial_query("0")));
  EXPECT_EQ(procs.health("d1").at("degraded"), "0");
  EXPECT_EQ(procs.state("d1"), ProcessTopology::NodeState::Running);
  EXPECT_EQ(procs.state("root"), ProcessTopology::NodeState::Running);

  procs.stop();
}

TEST(ChaosSupervision, ZombieChildIsReapedBySweepAndSurfaced) {
  SKIP_WITHOUT_SOCKETS();
  const std::string workdir = make_workdir();
  ASSERT_FALSE(workdir.empty());

  // Unsupervised on purpose: the zombie sweep must run regardless.
  ProcessTopology procs(topology_options(workdir, FBDR_NODE_BIN));
  build_tree(procs);
  ASSERT_NO_THROW(procs.start());
  EXPECT_EQ(procs.unexpected_exits("d1"), 0u);

  // SIGKILL without reaping: the corpse sits in the process table until
  // someone collects it.
  procs.crash("d1", /*reap_now=*/false);

  // The kill is asynchronous; sweep until the kernel has the exit ready.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (procs.running("d1") && std::chrono::steady_clock::now() < give_up) {
    procs.supervise();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  EXPECT_FALSE(procs.running("d1"));
  EXPECT_EQ(procs.unexpected_exits("d1"), 1u);
  EXPECT_NE(procs.supervisor_report().at("d1").find("exits=1"),
            std::string::npos);

  // And the slot is genuinely free: a manual respawn works.
  ASSERT_NO_THROW(procs.respawn("d1"));
  EXPECT_TRUE(procs.running("d1"));
  procs.stop();
}

}  // namespace
}  // namespace fbdr::netio
