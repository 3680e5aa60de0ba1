// Socket chaos bench: what recovery costs when the faults are real bytes
// on a real link. One process hosts a master behind an EpollServer; a
// SocketPipe replica reaches it only through a seeded netio::ChaosProxy.
// Each canonical byte-fault schedule (partition, reset storm, corruption)
// runs clean -> fault -> recover: updates flow every round, the proxy
// applies the phase's FaultConfig, and after the schedule the bench
// measures how many quiet polls and how much wall clock the replica needs
// to converge back to master truth.
//
// Gates (CI): every schedule must converge within --max-recovery-polls
// quiet polls, each fault window must actually inject faults (a schedule
// that hurt nothing measures nothing), and recovery accounting must hold
// (recoveries == full_reloads + reconciles). Prints SKIP and exits 0 when
// the sandbox forbids sockets.
//
// Usage:
//   bench_socket_chaos [--employees=N] [--updates-per-round=N] [--seed=N]
//                      [--max-recovery-polls=N] [--json=PATH]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "json_report.h"
#include "net/fault_schedule.h"
#include "net/framed_channel.h"
#include "netio/chaos_proxy.h"
#include "netio/epoll_server.h"
#include "netio/socket_addr.h"
#include "netio/socket_pipe.h"
#include "resync/replica_client.h"
#include "sync/content_tracker.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 Clock::now() - start)
                 .count()) /
         1000.0;
}

struct Options {
  std::size_t employees = 2000;
  std::size_t updates_per_round = 30;
  std::uint64_t seed = 20050501;
  std::size_t max_recovery_polls = 25;
  std::string json_path = "BENCH_socket_chaos.json";
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
    } else if (const char* updates = value("--updates-per-round=")) {
      options.updates_per_round = std::strtoull(updates, nullptr, 10);
    } else if (const char* seed = value("--seed=")) {
      options.seed = std::strtoull(seed, nullptr, 10);
    } else if (const char* polls = value("--max-recovery-polls=")) {
      options.max_recovery_polls = fbdr::bench::gate_flag<std::size_t>(
          "--max-recovery-polls=", polls);
    } else if (const char* json = value("--json=")) {
      options.json_path = json;
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

bool content_matches(const fbdr::resync::ReSyncReplica& replica,
                     const fbdr::server::DirectoryServer& master,
                     const fbdr::ldap::Query& query) {
  fbdr::sync::ContentTracker truth(query);
  truth.initialize(master.dit());
  return replica.content().keys() == truth.content_keys();
}

struct ScheduleRun {
  std::string name;
  std::uint64_t rounds = 0;
  std::uint64_t failed_polls = 0;    // polls lost to the fault window
  std::uint64_t recovery_polls = 0;  // quiet polls until convergence
  double heal_ms = 0.0;              // wall clock of the quiet heal
  std::uint64_t faults = 0;          // proxy-injected fault events
  std::uint64_t bytes = 0;           // bytes relayed both ways
  std::uint64_t recoveries = 0;
  std::uint64_t full_reloads = 0;
  std::uint64_t reconciles = 0;
  std::uint64_t reconnects = 0;
  bool converged = false;
  bool accounting_holds = false;
};

/// One schedule against a fresh master + server + proxy + replica world.
/// Every round mutates the master, applies the phase faults to the proxy,
/// and polls through it; then a quiet bounded heal loop measures recovery.
ScheduleRun run_schedule(const Options& options,
                         const fbdr::net::FaultSchedule& schedule,
                         const std::string& workdir) {
  using namespace fbdr;
  ScheduleRun run;
  run.name = schedule.name;
  run.rounds = schedule.total_rounds();

  workload::EnterpriseDirectory dir = make_directory(options.employees);
  resync::ReSyncMaster master(*dir.master);
  const ldap::Query query =
      ldap::Query::parse("", ldap::Scope::Subtree, "(serialnumber=00*)");

  netio::EpollServer server(master);
  const netio::SocketAddr upstream = server.listen(
      netio::SocketAddr::unix_path(workdir + "/" + schedule.name + ".sock"));
  server.start();

  netio::ChaosProxy::Options proxy_options;
  proxy_options.listen = netio::SocketAddr::unix_path(workdir + "/" +
                                                      schedule.name + ".px");
  proxy_options.upstream = upstream;
  proxy_options.seed = options.seed;
  netio::ChaosProxy proxy(std::move(proxy_options));
  const netio::SocketAddr via = proxy.listen();
  proxy.start();

  netio::SocketPipe::Options pipe;
  pipe.addr = via;
  pipe.connect_timeout_ms = 250;
  pipe.io_timeout_ms = 500;  // fail fast inside fault windows
  auto socket_pipe = std::make_shared<netio::SocketPipe>(std::move(pipe));
  net::FramedChannel channel(socket_pipe);
  resync::ReSyncReplica replica(channel, query);

  workload::UpdateGenerator updates(dir, {});
  const auto mutate = [&] {
    std::lock_guard<std::mutex> lock(server.endpoint_mutex());
    updates.apply(options.updates_per_round);
    master.pump();
  };

  // Round 0 is inside the warmup phase of every preset, so the initial
  // reload runs on a clean link.
  proxy.apply(schedule.config_at(0));
  try {
    replica.start(resync::Mode::Poll);
  } catch (const std::exception&) {
    ++run.failed_polls;
  }

  for (std::uint64_t round = 0; round < run.rounds; ++round) {
    mutate();
    proxy.apply(schedule.config_at(round));
    try {
      replica.poll();
    } catch (const std::exception&) {
      ++run.failed_polls;
    }
  }

  // Quiet heal: the last phase of every preset is fault-free, so applying
  // it once more clears any partition. Count the polls to convergence.
  proxy.apply(schedule.config_at(run.rounds));
  const auto heal_start = Clock::now();
  for (std::size_t i = 0; i < options.max_recovery_polls; ++i) {
    ++run.recovery_polls;
    try {
      replica.poll();
    } catch (const std::exception&) {
      continue;
    }
    if (content_matches(replica, *dir.master, query)) {
      run.converged = true;
      break;
    }
  }
  run.heal_ms = ms_since(heal_start);

  const netio::ChaosProxy::Counters counters = proxy.counters();
  run.faults = counters.faults();
  run.bytes = counters.bytes_up + counters.bytes_down;
  run.recoveries = replica.recoveries();
  run.full_reloads = replica.full_reloads();
  run.reconciles = replica.reconciles();
  run.reconnects = socket_pipe->connects();
  run.accounting_holds =
      run.recoveries == run.full_reloads + run.reconciles;

  proxy.stop();
  server.stop();
  return run;
}

void schedule_json(fbdr::bench::JsonValue& report, const ScheduleRun& run) {
  fbdr::bench::JsonValue out = fbdr::bench::JsonValue::object();
  out.set("rounds", run.rounds);
  out.set("failed_polls", run.failed_polls);
  out.set("recovery_polls", run.recovery_polls);
  out.set("heal_ms", run.heal_ms);
  out.set("faults", run.faults);
  out.set("bytes", run.bytes);
  out.set("recoveries", run.recoveries);
  out.set("full_reloads", run.full_reloads);
  out.set("reconciles", run.reconciles);
  out.set("reconnects", run.reconnects);
  out.set("converged", fbdr::bench::JsonValue::boolean(run.converged));
  out.set("accounting_holds",
          fbdr::bench::JsonValue::boolean(run.accounting_holds));
  report.set(run.name, std::move(out));
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
    report.set("bench", "socket_chaos");
    report.set("skipped", bench::JsonValue::boolean(true));
    report.set("skip_reason", reason);
    bench::write_json_report(options.json_path, report);
    return 0;
  }

  char workdir_template[] = "/tmp/fbdr_chaos_XXXXXX";
  const char* workdir = ::mkdtemp(workdir_template);
  if (workdir == nullptr) {
    std::fprintf(stderr, "FAIL: mkdtemp: %s\n", std::strerror(errno));
    return 1;
  }

  bench::print_banner("socket_chaos",
                      "recovery cost through a seeded fault proxy: quiet "
                      "polls and wall clock to reconverge after partition / "
                      "reset-storm / corruption windows");

  const std::vector<net::FaultSchedule> schedules = {
      net::partition_schedule(options.seed),
      net::reset_storm_schedule(options.seed),
      net::corruption_schedule(options.seed),
  };

  bench::JsonValue report = bench::JsonValue::object();
  report.set("bench", "socket_chaos");
  report.set("skipped", bench::JsonValue::boolean(false));
  report.set("seed", options.seed);
  report.set("employees", static_cast<std::uint64_t>(options.employees));
  report.set("max_recovery_polls",
             static_cast<std::uint64_t>(options.max_recovery_polls));

  bool all_converged = true;
  bool all_faulted = true;
  bool all_accounted = true;
  for (const net::FaultSchedule& schedule : schedules) {
    const ScheduleRun run = run_schedule(options, schedule, workdir);
    bench::print_row(run.name + "_recovery_polls", 0,
                     static_cast<double>(run.recovery_polls));
    bench::print_row(run.name + "_heal_ms", 0, run.heal_ms);
    bench::print_row(run.name + "_failed_polls", 0,
                     static_cast<double>(run.failed_polls));
    bench::print_row(run.name + "_faults", 0, static_cast<double>(run.faults));
    schedule_json(report, run);
    all_converged = all_converged && run.converged;
    all_faulted = all_faulted && run.faults > 0;
    all_accounted = all_accounted && run.accounting_holds;
    std::printf("# %s: %llu faults, %llu failed polls, healed in %llu polls "
                "(%.1f ms), %llu reconnects\n",
                run.name.c_str(),
                static_cast<unsigned long long>(run.faults),
                static_cast<unsigned long long>(run.failed_polls),
                static_cast<unsigned long long>(run.recovery_polls),
                run.heal_ms,
                static_cast<unsigned long long>(run.reconnects));
  }
  report.set("all_converged", bench::JsonValue::boolean(all_converged));
  bench::write_json_report(options.json_path, report);

  if (!all_converged) {
    std::fprintf(stderr,
                 "FAIL: a schedule did not reconverge within %zu quiet polls\n",
                 options.max_recovery_polls);
    return 1;
  }
  if (!all_faulted) {
    std::fprintf(stderr,
                 "FAIL: a fault window injected nothing — the schedule "
                 "measured a clean link\n");
    return 1;
  }
  if (!all_accounted) {
    std::fprintf(stderr,
                 "FAIL: recovery accounting broke (recoveries != "
                 "full_reloads + reconciles)\n");
    return 1;
  }
  return 0;
}
