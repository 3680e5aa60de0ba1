// Socket transport bench: what moving the replication protocol onto real
// sockets costs. Three transports run the same deterministic reload + poll
// workload against twin masters — the in-process EndpointPipe (the frame
// seam with no kernel in the path), a SocketPipe over a Unix-domain socket,
// and a SocketPipe over TCP loopback, both served by the epoll frame
// server. Because the workload is deterministic the socket worlds must ship
// bit-identical frame traffic to the in-process world — the bench fails on
// any byte of divergence. A concurrency scenario then drives N replica
// connections against one epoll loop from N threads and reports aggregate
// frames/sec; CI gates that at least --min-sessions sessions converge.
//
// --max-socket-overhead gates the Unix-socket poll wall-clock factor over
// the in-process pipe (default: no gate; bench_smoke.sh passes the
// documented ceiling). The transports' polls interleave round by round and
// the factor divides per-poll medians over the same rounds, so one
// scheduling stall cannot decide the gate. Prints SKIP and exits 0 when the sandbox forbids
// sockets: there is nothing to measure, and silence would read as coverage.
//
// Usage:
//   bench_netio [--employees=N] [--rounds=N] [--updates-per-round=N]
//               [--sessions=N] [--min-sessions=N] [--json=PATH]
//               [--max-socket-overhead=F]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "json_report.h"
#include "net/framed_channel.h"
#include "netio/epoll_server.h"
#include "netio/socket_addr.h"
#include "netio/socket_pipe.h"
#include "resync/replica_client.h"
#include "sync/content_tracker.h"

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 Clock::now() - start)
                                 .count());
}

struct Options {
  std::size_t employees = 4000;
  std::size_t rounds = 40;
  std::size_t updates_per_round = 50;
  std::size_t sessions = 4;
  std::size_t min_sessions = 4;
  std::string json_path = "BENCH_netio.json";
  double max_socket_overhead = 0.0;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      return arg.compare(0, std::strlen(prefix), prefix) == 0
                 ? arg.c_str() + std::strlen(prefix)
                 : nullptr;
    };
    if (const char* employees = value("--employees=")) {
      options.employees = std::strtoull(employees, nullptr, 10);
    } else if (const char* rounds = value("--rounds=")) {
      options.rounds = std::strtoull(rounds, nullptr, 10);
    } else if (const char* updates = value("--updates-per-round=")) {
      options.updates_per_round = std::strtoull(updates, nullptr, 10);
    } else if (const char* sessions = value("--sessions=")) {
      options.sessions = std::strtoull(sessions, nullptr, 10);
    } else if (const char* min_sessions = value("--min-sessions=")) {
      options.min_sessions = fbdr::bench::gate_flag<std::size_t>(
          "--min-sessions=", min_sessions);
    } else if (const char* json = value("--json=")) {
      options.json_path = json;
    } else if (const char* overhead = value("--max-socket-overhead=")) {
      options.max_socket_overhead = fbdr::bench::gate_flag<double>(
          "--max-socket-overhead=", overhead);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

fbdr::workload::EnterpriseDirectory make_directory(std::size_t employees) {
  fbdr::workload::DirectoryConfig config;
  config.employees = employees;
  config.countries = 2;
  config.geo_countries = 1;
  config.divisions = 4;
  config.depts_per_division = 4;
  config.locations = 4;
  return fbdr::workload::generate_directory(config);
}

fbdr::ldap::Query division_query() {
  return fbdr::ldap::Query::parse("", fbdr::ldap::Scope::Subtree,
                                  "(serialnumber=00*)");
}

bool content_matches(const fbdr::resync::ReSyncReplica& replica,
                     const fbdr::server::DirectoryServer& master,
                     const fbdr::ldap::Query& query) {
  fbdr::sync::ContentTracker truth(query);
  truth.initialize(master.dit());
  return replica.content().keys() == truth.content_keys();
}

enum class Transport { InProcess, UnixSocket, TcpLoopback };

const char* transport_name(Transport transport) {
  switch (transport) {
    case Transport::InProcess: return "inproc";
    case Transport::UnixSocket: return "unix";
    case Transport::TcpLoopback: return "tcp";
  }
  return "?";
}

struct Run {
  double reload_ns = 0.0;
  std::vector<double> poll_ns;  // one sample per round
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;
  bool converged = false;

  double poll_ns_per_op() const {
    double total = 0.0;
    for (const double ns : poll_ns) total += ns;
    return poll_ns.empty() ? 0.0 : total / static_cast<double>(poll_ns.size());
  }

  double poll_ns_median() const {
    if (poll_ns.empty()) return 0.0;
    std::vector<double> sorted = poll_ns;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t mid = sorted.size() / 2;
    return sorted.size() % 2 == 1 ? sorted[mid]
                                  : (sorted[mid - 1] + sorted[mid]) / 2.0;
  }
};

/// One transport's world: a twin master over the deterministic directory,
/// its update stream, and a replica polling it over the chosen transport.
/// Twin masters per transport keep the streams independent but identical,
/// so the traffic tallies must agree byte for byte across transports.
class PollWorld {
 public:
  PollWorld(const Options& options, Transport transport,
            const std::string& socket_dir)
      : dir_(make_directory(options.employees)),
        master_(*dir_.master),
        query_(division_query()),
        updates_(dir_, {}) {
    using namespace fbdr;
    if (transport == Transport::InProcess) {
      channel_ = std::make_shared<net::FramedChannel>(master_);
    } else {
      server_ = std::make_unique<netio::EpollServer>(master_);
      const netio::SocketAddr addr = server_->listen(
          transport == Transport::UnixSocket
              ? netio::SocketAddr::unix_path(socket_dir + "/bench_poll.sock")
              : netio::SocketAddr::tcp("127.0.0.1", 0));
      server_->start();
      netio::SocketPipe::Options pipe;
      pipe.addr = addr;
      channel_ = std::make_shared<net::FramedChannel>(
          std::make_shared<netio::SocketPipe>(std::move(pipe)));
    }
    replica_ = std::make_unique<resync::ReSyncReplica>(*channel_, query_);
  }

  /// The initial full reload, timed.
  void reload() {
    const auto start = Clock::now();
    replica_->start(fbdr::resync::Mode::Poll);
    run_.reload_ns = ns_since(start);
  }

  /// Commits the round's updates and pumps them into the session.
  void advance(std::size_t updates) {
    if (server_) {
      std::lock_guard<std::mutex> lock(server_->endpoint_mutex());
      updates_.apply(updates);
      master_.pump();
    } else {
      updates_.apply(updates);
      master_.pump();
    }
  }

  /// One poll, timed as one sample.
  void poll() {
    const auto start = Clock::now();
    replica_->poll();
    run_.poll_ns.push_back(ns_since(start));
  }

  Run finish() {
    run_.bytes = channel_->traffic().bytes;
    run_.frames = channel_->traffic().frames;
    run_.converged = content_matches(*replica_, *dir_.master, query_);
    if (server_) server_->stop();
    return run_;
  }

 private:
  fbdr::workload::EnterpriseDirectory dir_;
  fbdr::resync::ReSyncMaster master_;
  fbdr::ldap::Query query_;
  fbdr::workload::UpdateGenerator updates_;
  std::unique_ptr<fbdr::netio::EpollServer> server_;
  std::shared_ptr<fbdr::net::FramedChannel> channel_;
  std::unique_ptr<fbdr::resync::ReSyncReplica> replica_;
  Run run_;
};

/// One full reload + `rounds` polls of the deterministic update stream over
/// every transport, interleaved: each round advances every world by the
/// same updates, then polls each replica once, in an order that rotates
/// every round so no transport always goes first. The medians the overhead
/// factors divide are taken over the same rounds, so a scheduling stall
/// lands in one sample of one transport and the median drops it, instead of
/// inflating a whole back-to-back run. Returns the runs in Transport order.
std::vector<Run> run_polls(const Options& options,
                           const std::string& socket_dir) {
  const Transport transports[] = {Transport::InProcess, Transport::UnixSocket,
                                  Transport::TcpLoopback};
  std::vector<std::unique_ptr<PollWorld>> worlds;
  for (const Transport transport : transports) {
    worlds.push_back(
        std::make_unique<PollWorld>(options, transport, socket_dir));
    worlds.back()->reload();
  }
  for (std::size_t round = 0; round < options.rounds; ++round) {
    for (auto& world : worlds) world->advance(options.updates_per_round);
    for (std::size_t i = 0; i < worlds.size(); ++i) {
      worlds[(round + i) % worlds.size()]->poll();
    }
  }
  std::vector<Run> runs;
  for (auto& world : worlds) runs.push_back(world->finish());
  return runs;
}

struct ConcurrencyRun {
  std::size_t sessions = 0;
  std::size_t sustained = 0;  // connections up AND content converged at end
  double poll_ns = 0.0;
  std::uint64_t frames = 0;
  double frames_per_sec = 0.0;
};

/// N replica connections on one epoll loop, polled from N threads each
/// round. Aggregate frames/sec is measured over the poll phases only — the
/// mutation half of each round runs under the endpoint lock and is not the
/// server's cost to bear.
ConcurrencyRun run_concurrency(const Options& options,
                               const std::string& socket_dir) {
  using namespace fbdr;
  workload::EnterpriseDirectory dir = make_directory(options.employees);
  resync::ReSyncMaster master(*dir.master);
  const ldap::Query query = division_query();

  netio::EpollServer server(master);
  const netio::SocketAddr addr = server.listen(
      netio::SocketAddr::unix_path(socket_dir + "/bench_many.sock"));
  server.start();

  std::vector<std::shared_ptr<net::FramedChannel>> channels;
  std::vector<std::unique_ptr<resync::ReSyncReplica>> replicas;
  for (std::size_t i = 0; i < options.sessions; ++i) {
    netio::SocketPipe::Options pipe;
    pipe.addr = addr;
    channels.push_back(std::make_shared<net::FramedChannel>(
        std::make_shared<netio::SocketPipe>(std::move(pipe))));
    replicas.push_back(
        std::make_unique<resync::ReSyncReplica>(*channels.back(), query));
    replicas.back()->start(resync::Mode::Poll);
  }

  const std::uint64_t frames_before =
      server.stats().frames_in + server.stats().frames_out;
  ConcurrencyRun run;
  run.sessions = options.sessions;

  workload::UpdateGenerator updates(dir, {});
  for (std::size_t round = 0; round < options.rounds; ++round) {
    {
      std::lock_guard<std::mutex> lock(server.endpoint_mutex());
      updates.apply(options.updates_per_round);
      master.pump();
    }
    const auto start = Clock::now();
    std::vector<std::thread> pollers;
    pollers.reserve(replicas.size());
    for (auto& replica : replicas) {
      pollers.emplace_back([&replica] { replica->poll(); });
    }
    for (std::thread& poller : pollers) poller.join();
    run.poll_ns += ns_since(start);
  }

  const netio::EpollServer::Stats stats = server.stats();
  run.frames = stats.frames_in + stats.frames_out - frames_before;
  run.frames_per_sec = run.poll_ns > 0.0
                           ? static_cast<double>(run.frames) * 1e9 / run.poll_ns
                           : 0.0;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (content_matches(*replicas[i], *dir.master, query)) ++run.sustained;
  }
  server.stop();
  return run;
}

void transport_json(fbdr::bench::JsonValue& report, const Run& run,
                    Transport transport) {
  fbdr::bench::JsonValue out = fbdr::bench::JsonValue::object();
  out.set("reload_ns", run.reload_ns);
  out.set("poll_ns_per_op", run.poll_ns_per_op());
  out.set("poll_ns_median", run.poll_ns_median());
  out.set("bytes", run.bytes);
  out.set("frames", run.frames);
  out.set("converged", fbdr::bench::JsonValue::boolean(run.converged));
  report.set(transport_name(transport), std::move(out));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fbdr;
  const Options options = parse_options(argc, argv);

  std::string reason;
  if (!netio::sockets_available(&reason)) {
    std::printf("SKIP: sandbox forbids sockets (%s) — nothing to measure\n",
                reason.c_str());
    bench::JsonValue report = bench::JsonValue::object();
    report.set("bench", "netio");
    report.set("skipped", bench::JsonValue::boolean(true));
    report.set("skip_reason", reason);
    bench::write_json_report(options.json_path, report);
    return 0;
  }

  char workdir_template[] = "/tmp/fbdr_bench_XXXXXX";
  const char* workdir = ::mkdtemp(workdir_template);
  if (workdir == nullptr) {
    std::fprintf(stderr, "FAIL: mkdtemp: %s\n", std::strerror(errno));
    return 1;
  }

  bench::print_banner("netio",
                      "socket transport vs in-process pipe: poll latency, "
                      "exact frame traffic, epoll frames/sec under "
                      "concurrent replica sessions");

  const std::vector<Run> runs = run_polls(options, workdir);
  const Run& inproc = runs[0];
  const Run& unix_run = runs[1];
  const Run& tcp_run = runs[2];
  const ConcurrencyRun many = run_concurrency(options, workdir);

  const double base = inproc.poll_ns_median();
  const double unix_factor =
      base > 0.0 ? unix_run.poll_ns_median() / base : 0.0;
  const double tcp_factor = base > 0.0 ? tcp_run.poll_ns_median() / base : 0.0;
  const bool bit_identical = unix_run.bytes == inproc.bytes &&
                             tcp_run.bytes == inproc.bytes &&
                             unix_run.frames == inproc.frames &&
                             tcp_run.frames == inproc.frames;
  const bool all_converged =
      inproc.converged && unix_run.converged && tcp_run.converged;

  for (const auto& [run, transport] :
       {std::pair<const Run&, Transport>{inproc, Transport::InProcess},
        {unix_run, Transport::UnixSocket},
        {tcp_run, Transport::TcpLoopback}}) {
    const std::string name = transport_name(transport);
    bench::print_row(name + "_poll_ns_per_op", 0, run.poll_ns_per_op());
    bench::print_row(name + "_poll_ns_median", 0, run.poll_ns_median());
    bench::print_row(name + "_reload_ns", 0, run.reload_ns);
    bench::print_row(name + "_bytes", 0, static_cast<double>(run.bytes));
  }
  bench::print_row("unix_overhead_factor", 0, unix_factor);
  bench::print_row("tcp_overhead_factor", 0, tcp_factor);
  bench::print_row("concurrent_frames_per_sec",
                   static_cast<double>(many.sessions), many.frames_per_sec);
  bench::print_row("concurrent_sessions_sustained",
                   static_cast<double>(many.sessions),
                   static_cast<double>(many.sustained));

  bench::JsonValue report = bench::JsonValue::object();
  report.set("bench", "netio");
  report.set("skipped", bench::JsonValue::boolean(false));
  report.set("employees", static_cast<std::uint64_t>(options.employees));
  report.set("rounds", static_cast<std::uint64_t>(options.rounds));
  report.set("updates_per_round",
             static_cast<std::uint64_t>(options.updates_per_round));
  transport_json(report, inproc, Transport::InProcess);
  transport_json(report, unix_run, Transport::UnixSocket);
  transport_json(report, tcp_run, Transport::TcpLoopback);
  report.set("unix_overhead_factor", unix_factor);
  report.set("tcp_overhead_factor", tcp_factor);
  report.set("traffic_bit_identical", bench::JsonValue::boolean(bit_identical));
  bench::JsonValue concurrency = bench::JsonValue::object();
  concurrency.set("sessions", static_cast<std::uint64_t>(many.sessions));
  concurrency.set("sustained", static_cast<std::uint64_t>(many.sustained));
  concurrency.set("frames", many.frames);
  concurrency.set("frames_per_sec", many.frames_per_sec);
  report.set("concurrency", std::move(concurrency));
  report.set("all_converged", bench::JsonValue::boolean(all_converged));
  bench::write_json_report(options.json_path, report);

  std::printf("# poll median: inproc %.0f ns, unix %.0f ns (%.2fx), tcp "
              "%.0f ns (%.2fx); %zu/%zu concurrent sessions at %.0f "
              "frames/s\n",
              inproc.poll_ns_median(), unix_run.poll_ns_median(), unix_factor,
              tcp_run.poll_ns_median(), tcp_factor, many.sustained,
              many.sessions, many.frames_per_sec);

  if (!all_converged) {
    std::fprintf(stderr, "FAIL: a transport left its replica diverged\n");
    return 1;
  }
  if (!bit_identical) {
    std::fprintf(stderr,
                 "FAIL: socket transports shipped different traffic than the "
                 "in-process pipe (unix %llu/%llu bytes/frames, tcp %llu/%llu, "
                 "inproc %llu/%llu)\n",
                 static_cast<unsigned long long>(unix_run.bytes),
                 static_cast<unsigned long long>(unix_run.frames),
                 static_cast<unsigned long long>(tcp_run.bytes),
                 static_cast<unsigned long long>(tcp_run.frames),
                 static_cast<unsigned long long>(inproc.bytes),
                 static_cast<unsigned long long>(inproc.frames));
    return 1;
  }
  if (many.sustained < options.min_sessions) {
    std::fprintf(stderr,
                 "FAIL: only %zu of %zu concurrent replica sessions converged "
                 "(gate: %zu)\n",
                 many.sustained, many.sessions, options.min_sessions);
    return 1;
  }
  if (options.max_socket_overhead > 0.0 &&
      unix_factor > options.max_socket_overhead) {
    std::fprintf(stderr,
                 "FAIL: unix socket poll overhead %.2fx exceeds the allowed "
                 "%.2fx\n",
                 unix_factor, options.max_socket_overhead);
    return 1;
  }
  return 0;
}
