// Master pump() scaling with the number of replicated-filter sessions: the
// hot path the change-routing index, compiled filter evaluation and the
// sharded multi-threaded pump (DESIGN.md §13) optimize.
//
// Evaluation modes over the same update mix and session population:
//   compiled  — exhaustive per-record x per-session fan-out, compiled filter
//               programs (change routing disabled),
//   routed    — ChangeRouter candidate pruning + compiled programs (the
//               default configuration), swept across --shards= x
//               --threads= pump configurations.
//
// The exhaustive mode is O(records x sessions) by construction, so it
// only runs at session counts up to --exhaustive-cap (default 1000); the
// routed sweeps carry the ladder to 10k-100k sessions. Sessions replicate
// attribute-selective department filters (departmentnumber=NNNN), the
// workload of §7.3b. Reported: pump cost per journaled change (ns) and
// sustained change throughput per configuration, the router's candidate
// statistics, a routed-vs-exhaustive speedup at the largest exhaustive rung and
// a parallel_speedup_vs_serial series against the serial routed baseline
// (shards=1, threads=0). Results are written as a JSON report for CI
// (scripts/bench_smoke.sh); --min-speedup gates the routed/exhaustive edge and
// --min-parallel-speedup gates the threaded speedup at 4 threads — the
// latter is hardware-aware: on hosts with fewer than 4 cores the gate is
// skipped loudly (and recorded in the JSON) instead of failing on hardware
// that cannot exhibit parallelism.
//
// Usage:
//   bench_master_scaling [--employees=N] [--updates=N]
//                        [--sessions=1000,10000,50000]
//                        [--shards=8] [--threads=0,4] [--exhaustive-cap=N]
//                        [--json=PATH] [--min-speedup=F]
//                        [--min-parallel-speedup=F]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "json_report.h"
#include "resync/master.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::size_t employees = 10000;
  std::size_t updates = 3000;
  std::vector<std::size_t> sessions = {1000, 10000, 50000};
  std::vector<std::size_t> shards = {8};
  std::vector<std::size_t> threads = {0, 4};
  std::size_t exhaustive_cap = 1000;
  std::string json_path = "BENCH_master_scaling.json";
  double min_speedup = 0.0;
  double min_parallel_speedup = 0.0;
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
    } else if (const char* updates = value("--updates=")) {
      options.updates = std::strtoull(updates, nullptr, 10);
    } else if (const char* sessions = value("--sessions=")) {
      options.sessions = fbdr::bench::parse_csv(sessions);
    } else if (const char* shards = value("--shards=")) {
      options.shards = fbdr::bench::parse_csv(shards);
    } else if (const char* threads = value("--threads=")) {
      options.threads = fbdr::bench::parse_csv(threads);
    } else if (const char* cap = value("--exhaustive-cap=")) {
      options.exhaustive_cap = std::strtoull(cap, nullptr, 10);
    } else if (const char* json = value("--json=")) {
      options.json_path = json;
    } else if (const char* speedup = value("--min-speedup=")) {
      options.min_speedup = fbdr::bench::gate_flag<double>(
          "--min-speedup=", speedup);
    } else if (const char* parallel = value("--min-parallel-speedup=")) {
      options.min_parallel_speedup = fbdr::bench::gate_flag<double>(
          "--min-parallel-speedup=", parallel);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

struct RunResult {
  std::string mode;
  std::size_t sessions = 0;
  std::size_t shards = 1;
  std::size_t threads = 0;
  double ns_per_change = 0.0;
  double changes_per_sec = 0.0;
  std::uint64_t candidates = 0;
  std::uint64_t exhaustive = 0;
};

std::string run_label(const RunResult& result) {
  if (result.mode != "routed") return result.mode;
  return "routed_s" + std::to_string(result.shards) + "_t" +
         std::to_string(result.threads);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fbdr;
  const Options options = parse_options(argc, argv);

  workload::EnterpriseDirectory dir = bench::default_directory(options.employees);
  // One continuous churn stream across every run: reconstructing the
  // generator would resurrect deleted employees.
  workload::UpdateGenerator updates(dir, {});

  // The distinct department numbers session filters draw from (40 divisions
  // x 25 departments = 1000 values at the default shape).
  std::vector<std::string> depts;
  for (const auto& division : dir.division_depts) {
    depts.insert(depts.end(), division.begin(), division.end());
  }

  bench::print_banner(
      "master_scaling",
      "pump() ns/change vs session count; compiled / routed x shards x "
      "threads");

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("# hardware_concurrency: %u\n", hw_threads);

  // One measured pump run: build a master in the given configuration, fill
  // the session population, then pump the shared churn stream through it.
  const auto run = [&](const char* mode, std::size_t session_count,
                       std::size_t shards, std::size_t threads) {
    resync::ReSyncMaster master(*dir.master);
    const bool routed = std::strcmp(mode, "routed") == 0;
    master.set_change_routing(routed);
    master.set_pump_shards(shards);
    master.set_pump_threads(threads);

    for (std::size_t i = 0; i < session_count; ++i) {
      const ldap::Query query = ldap::Query::parse(
          "o=ibm", ldap::Scope::Subtree,
          "(departmentnumber=" + depts[i % depts.size()] + ")");
      master.handle(query, {resync::Mode::Poll, ""});
    }

    const auto routing_before = master.routing_stats();
    std::uint64_t pump_ns = 0;
    std::size_t applied = 0;
    const std::size_t batch = 100;
    while (applied < options.updates) {
      updates.apply(batch);
      const auto start = Clock::now();
      master.pump();
      pump_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count());
      applied += batch;
    }

    RunResult result;
    result.mode = mode;
    result.sessions = session_count;
    result.shards = shards;
    result.threads = threads;
    result.ns_per_change =
        static_cast<double>(pump_ns) / static_cast<double>(applied);
    result.changes_per_sec =
        1e9 * static_cast<double>(applied) / static_cast<double>(pump_ns);
    result.candidates =
        master.routing_stats().candidates - routing_before.candidates;
    result.exhaustive =
        master.routing_stats().exhaustive - routing_before.exhaustive;
    bench::print_row("pump_ns_per_change_" + run_label(result),
                     static_cast<double>(session_count), result.ns_per_change);
    return result;
  };

  std::vector<RunResult> results;
  for (const std::size_t session_count : options.sessions) {
    // The exhaustive baseline is O(records x sessions): past the cap a
    // single run would dwarf the whole sweep, so it stops at the cap and
    // the routed configurations carry the ladder alone.
    if (session_count <= options.exhaustive_cap) {
      results.push_back(run("compiled", session_count, 1, 0));
    } else {
      std::printf("# exhaustive mode skipped at %zu sessions (cap %zu)\n",
                  session_count, options.exhaustive_cap);
    }
    // Serial routed baseline: the reference the parallel sweeps are
    // measured against.
    results.push_back(run("routed", session_count, 1, 0));
    for (const std::size_t shards : options.shards) {
      for (const std::size_t threads : options.threads) {
        if (shards == 1 && threads == 0) continue;  // that IS the baseline
        results.push_back(run("routed", session_count, shards, threads));
      }
    }
  }

  // Routed-vs-exhaustive speedup (per exhaustive rung, serial
  // configurations).
  double speedup_at_max = 0.0;
  std::size_t max_exhaustive_sessions = 0;
  for (const std::size_t session_count : options.sessions) {
    double exhaustive_ns = 0.0;
    double routed_ns = 0.0;
    for (const RunResult& result : results) {
      if (result.sessions != session_count) continue;
      if (result.mode == "compiled") exhaustive_ns = result.ns_per_change;
      if (result.mode == "routed" && result.shards == 1 && result.threads == 0) {
        routed_ns = result.ns_per_change;
      }
    }
    if (exhaustive_ns == 0.0) continue;
    const double speedup = routed_ns > 0.0 ? exhaustive_ns / routed_ns : 0.0;
    bench::print_row("routed_speedup_vs_exhaustive",
                     static_cast<double>(session_count), speedup);
    if (session_count >= max_exhaustive_sessions) {
      max_exhaustive_sessions = session_count;
      speedup_at_max = speedup;
    }
  }

  // Parallel speedup series: every threaded/sharded routed run against the
  // serial routed baseline at the same session count.
  struct ParallelPoint {
    std::size_t sessions = 0;
    std::size_t shards = 1;
    std::size_t threads = 0;
    double speedup = 0.0;
  };
  std::vector<ParallelPoint> parallel_series;
  double gate_speedup = 0.0;
  std::size_t gate_sessions = 0;
  for (const RunResult& result : results) {
    if (result.mode != "routed" || (result.shards == 1 && result.threads == 0)) {
      continue;
    }
    double baseline_ns = 0.0;
    for (const RunResult& base : results) {
      if (base.mode == "routed" && base.sessions == result.sessions &&
          base.shards == 1 && base.threads == 0) {
        baseline_ns = base.ns_per_change;
      }
    }
    if (baseline_ns == 0.0 || result.ns_per_change == 0.0) continue;
    ParallelPoint point;
    point.sessions = result.sessions;
    point.shards = result.shards;
    point.threads = result.threads;
    point.speedup = baseline_ns / result.ns_per_change;
    bench::print_row("parallel_speedup_vs_serial_s" +
                         std::to_string(point.shards) + "_t" +
                         std::to_string(point.threads),
                     static_cast<double>(point.sessions), point.speedup);
    // The gate watches the 4-thread configuration at the largest session
    // count (best shard count wins when several are swept).
    if (point.threads == 4 && (point.sessions > gate_sessions ||
                               (point.sessions == gate_sessions &&
                                point.speedup > gate_speedup))) {
      gate_sessions = point.sessions;
      gate_speedup = point.speedup;
    }
    parallel_series.push_back(point);
  }

  bench::JsonValue report = bench::JsonValue::object();
  report.set("bench", "master_scaling");
  report.set("employees", static_cast<std::uint64_t>(options.employees));
  report.set("updates_per_run", static_cast<std::uint64_t>(options.updates));
  report.set("hw_threads", static_cast<std::uint64_t>(hw_threads));
  bench::JsonValue rows = bench::JsonValue::array();
  for (const RunResult& result : results) {
    bench::JsonValue row = bench::JsonValue::object();
    row.set("mode", result.mode);
    row.set("sessions", static_cast<std::uint64_t>(result.sessions));
    row.set("shards", static_cast<std::uint64_t>(result.shards));
    row.set("threads", static_cast<std::uint64_t>(result.threads));
    row.set("pump_ns_per_change", result.ns_per_change);
    row.set("changes_per_sec", result.changes_per_sec);
    if (result.mode == "routed") {
      row.set("candidates", result.candidates);
      row.set("exhaustive", result.exhaustive);
    }
    rows.push(std::move(row));
  }
  report.set("results", std::move(rows));
  bench::JsonValue series = bench::JsonValue::array();
  for (const ParallelPoint& point : parallel_series) {
    bench::JsonValue row = bench::JsonValue::object();
    row.set("sessions", static_cast<std::uint64_t>(point.sessions));
    row.set("shards", static_cast<std::uint64_t>(point.shards));
    row.set("threads", static_cast<std::uint64_t>(point.threads));
    row.set("speedup", point.speedup);
    series.push(std::move(row));
  }
  report.set("parallel_speedup_vs_serial", std::move(series));
  report.set("max_sessions",
             static_cast<std::uint64_t>(options.sessions.empty()
                                            ? 0
                                            : options.sessions.back()));
  report.set("routed_speedup_vs_exhaustive_at_max_sessions", speedup_at_max);

  int exit_code = 0;
  if (options.min_speedup > 0.0 && speedup_at_max < options.min_speedup) {
    std::fprintf(stderr,
                 "FAIL: routed pump speedup %.2fx at %zu sessions is below "
                 "the required %.2fx\n",
                 speedup_at_max, max_exhaustive_sessions, options.min_speedup);
    exit_code = 1;
  } else if (options.min_speedup > 0.0) {
    std::printf("# routed speedup at %zu sessions: %.2fx (gate %.2fx)\n",
                max_exhaustive_sessions, speedup_at_max, options.min_speedup);
  }

  if (options.min_parallel_speedup > 0.0) {
    if (hw_threads < 4) {
      // A 4-thread speedup gate on a <4-core host measures the scheduler,
      // not the pump. Skip loudly and record the skip for the report reader.
      std::printf(
          "# parallel gate SKIPPED: hardware_concurrency=%u < 4 cannot "
          "exhibit a 4-thread speedup\n",
          hw_threads);
      report.set("parallel_gate", "skipped_insufficient_cores");
    } else if (gate_sessions == 0) {
      std::fprintf(stderr,
                   "FAIL: --min-parallel-speedup set but no 4-thread routed "
                   "run was swept (check --threads=)\n");
      report.set("parallel_gate", "missing_run");
      exit_code = 1;
    } else if (gate_speedup < options.min_parallel_speedup) {
      std::fprintf(stderr,
                   "FAIL: parallel pump speedup %.2fx at %zu sessions (4 "
                   "threads) is below the required %.2fx\n",
                   gate_speedup, gate_sessions, options.min_parallel_speedup);
      report.set("parallel_gate", "failed");
      exit_code = 1;
    } else {
      std::printf(
          "# parallel speedup at %zu sessions (4 threads): %.2fx (gate "
          "%.2fx)\n",
          gate_sessions, gate_speedup, options.min_parallel_speedup);
      report.set("parallel_gate", "passed");
    }
    report.set("parallel_speedup_at_gate", gate_speedup);
  }

  bench::write_json_report(options.json_path, report);
  return exit_code;
}
