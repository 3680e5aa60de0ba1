// Cascaded-topology fan-out bench: the root master's poll load under a flat
// 1xN deployment (every leaf replica syncs directly from the root) versus a
// fan-out-4 depth-2 tree (four relay masters replicate one division prefix
// each and absorb the leaves' polling). Both configurations carry the SAME
// per-leaf filter set over the same synthetic directory and churn stream —
// what changes is who answers the polls.
//
// Reported per leaf count and topology: root sessions, root poll round
// trips and entries shipped per sync round, tick wall time, and the per-hop
// staleness lag the cascade pays for the relief (1 tick/hop under the
// runtime's deepest-first schedule). --min-factor makes the bench exit
// non-zero when the tree's root-load reduction (min of the session and
// round-trip factors, at the largest leaf count) falls below the gate — the
// CI contract is >= 2x for 16+ leaves.
//
// Usage:
//   bench_topology_fanout [--employees=N] [--updates-per-round=N]
//                         [--rounds=N] [--leaves=8,16,32]
//                         [--json=PATH] [--min-factor=F]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "json_report.h"
#include "topology/runtime.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kFanout = 4;  // relay masters, one per division

struct Options {
  std::size_t employees = 4000;
  std::size_t updates_per_round = 50;
  std::size_t rounds = 20;
  std::vector<std::size_t> leaves = {8, 16, 32};
  std::string json_path = "BENCH_topology.json";
  double min_factor = 0.0;
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
    } else if (const char* rounds = value("--rounds=")) {
      options.rounds = std::strtoull(rounds, nullptr, 10);
    } else if (const char* leaves = value("--leaves=")) {
      options.leaves = fbdr::bench::parse_csv(leaves);
    } else if (const char* json = value("--json=")) {
      options.json_path = json;
    } else if (const char* factor = value("--min-factor=")) {
      options.min_factor = fbdr::bench::gate_flag<double>(
          "--min-factor=", factor);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

/// Four divisions so the 2-digit serial prefixes "00".."03" partition the
/// directory into the four relay regions.
fbdr::workload::EnterpriseDirectory make_directory(std::size_t employees) {
  fbdr::workload::DirectoryConfig config;
  config.employees = employees;
  config.countries = 2;
  config.geo_countries = 1;
  config.divisions = kFanout;
  config.depts_per_division = 4;
  config.locations = 4;
  return fbdr::workload::generate_directory(config);
}

fbdr::ldap::Query serial_query(const std::string& prefix) {
  return fbdr::ldap::Query::parse("", fbdr::ldap::Scope::Subtree,
                                  "(serialnumber=" + prefix + "*)");
}

std::string two_digits(std::size_t v) {
  return (v < 10 ? "0" : "") + std::to_string(v);
}

/// Leaf `index`'s filter: serial prefix <division(2)><rank-block(3)>, a
/// 10-serial block inside division index%4 — syntactically contained in the
/// division relay's (serialnumber=<division>*).
std::string leaf_prefix(std::size_t index) {
  const std::size_t division = index % kFanout;
  const std::size_t block = index / kFanout;
  char rank[24];
  std::snprintf(rank, sizeof rank, "%03zu", block);
  return two_digits(division) + rank;
}

struct TopologyResult {
  std::string topology;
  std::size_t leaves = 0;
  std::size_t root_sessions = 0;
  double root_round_trips_per_round = 0.0;
  double root_entries_per_round = 0.0;
  double tick_ms_per_round = 0.0;
  std::uint64_t max_lag_ticks = 0;
};

/// Builds the topology, installs it, then measures `rounds` sync rounds of
/// root-master traffic under a steady churn stream.
TopologyResult run_topology(const std::string& topology, std::size_t leaves,
                            const Options& options) {
  using namespace fbdr;
  workload::EnterpriseDirectory dir = make_directory(options.employees);
  workload::UpdateGenerator updates(dir, {});
  topology::TopologyRuntime runtime(dir.master, {});

  if (topology == "tree") {
    for (std::size_t d = 0; d < kFanout; ++d) {
      runtime.add_node("relay-" + two_digits(d), "",
                       {serial_query(two_digits(d))});
    }
  }
  for (std::size_t i = 0; i < leaves; ++i) {
    const std::string prefix = leaf_prefix(i);
    const std::string parent =
        topology == "tree" ? "relay-" + prefix.substr(0, 2) : "";
    runtime.add_node("leaf-" + prefix, parent, {serial_query(prefix)});
  }
  if (!runtime.install()) {
    std::fprintf(stderr, "install failed for %s/%zu leaves\n",
                 topology.c_str(), leaves);
    std::exit(1);
  }

  runtime.run(2);  // reach steady-state lag before measuring
  runtime.root_master().reset_traffic();
  const auto start = Clock::now();
  for (std::size_t round = 0; round < options.rounds; ++round) {
    updates.apply(options.updates_per_round);
    runtime.tick();
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  const net::TrafficStats& traffic = runtime.root_master().traffic();

  TopologyResult result;
  result.topology = topology;
  result.leaves = leaves;
  result.root_sessions = runtime.root_master().session_count();
  result.root_round_trips_per_round =
      static_cast<double>(traffic.round_trips) /
      static_cast<double>(options.rounds);
  result.root_entries_per_round = static_cast<double>(traffic.entries) /
                                  static_cast<double>(options.rounds);
  result.tick_ms_per_round = elapsed_ms / static_cast<double>(options.rounds);
  for (const topology::NodeHealth& health : runtime.health()) {
    if (health.lag_ticks > result.max_lag_ticks) {
      result.max_lag_ticks = health.lag_ticks;
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fbdr;
  const Options options = parse_options(argc, argv);

  bench::print_banner(
      "topology_fanout",
      "root master load, flat 1xN vs fan-out-4 depth-2 relay tree");

  std::vector<TopologyResult> results;
  for (const std::size_t leaves : options.leaves) {
    for (const char* topology : {"flat", "tree"}) {
      const TopologyResult result = run_topology(topology, leaves, options);
      results.push_back(result);
      bench::print_row("root_sessions_" + result.topology,
                       static_cast<double>(leaves),
                       static_cast<double>(result.root_sessions));
      bench::print_row("root_round_trips_per_round_" + result.topology,
                       static_cast<double>(leaves),
                       result.root_round_trips_per_round);
      bench::print_row("max_lag_ticks_" + result.topology,
                       static_cast<double>(leaves),
                       static_cast<double>(result.max_lag_ticks));
    }
  }

  // Root-load reduction factors (flat / tree), per leaf count.
  double factor_at_max = 0.0;
  std::size_t max_leaves = 0;
  for (const std::size_t leaves : options.leaves) {
    const TopologyResult* flat = nullptr;
    const TopologyResult* tree = nullptr;
    for (const TopologyResult& result : results) {
      if (result.leaves != leaves) continue;
      (result.topology == "flat" ? flat : tree) = &result;
    }
    if (flat == nullptr || tree == nullptr) continue;
    const double session_factor =
        static_cast<double>(flat->root_sessions) /
        static_cast<double>(tree->root_sessions > 0 ? tree->root_sessions : 1);
    const double round_trip_factor =
        tree->root_round_trips_per_round > 0.0
            ? flat->root_round_trips_per_round /
                  tree->root_round_trips_per_round
            : 0.0;
    const double factor = std::min(session_factor, round_trip_factor);
    bench::print_row("root_load_reduction_factor",
                     static_cast<double>(leaves), factor);
    if (leaves >= max_leaves) {
      max_leaves = leaves;
      factor_at_max = factor;
    }
  }

  bench::JsonValue report = bench::JsonValue::object();
  report.set("bench", "topology_fanout");
  report.set("employees", static_cast<std::uint64_t>(options.employees));
  report.set("fanout", static_cast<std::uint64_t>(kFanout));
  report.set("rounds", static_cast<std::uint64_t>(options.rounds));
  report.set("updates_per_round",
             static_cast<std::uint64_t>(options.updates_per_round));
  bench::JsonValue rows = bench::JsonValue::array();
  for (const TopologyResult& result : results) {
    bench::JsonValue row = bench::JsonValue::object();
    row.set("topology", result.topology);
    row.set("leaves", static_cast<std::uint64_t>(result.leaves));
    row.set("root_sessions", static_cast<std::uint64_t>(result.root_sessions));
    row.set("root_round_trips_per_round", result.root_round_trips_per_round);
    row.set("root_entries_per_round", result.root_entries_per_round);
    row.set("tick_ms_per_round", result.tick_ms_per_round);
    row.set("max_lag_ticks", result.max_lag_ticks);
    rows.push(std::move(row));
  }
  report.set("results", std::move(rows));
  report.set("max_leaves", static_cast<std::uint64_t>(max_leaves));
  report.set("root_load_reduction_factor_at_max_leaves", factor_at_max);
  bench::write_json_report(options.json_path, report);

  if (options.min_factor > 0.0 && factor_at_max < options.min_factor) {
    std::fprintf(stderr,
                 "FAIL: root-load reduction %.2fx at %zu leaves is below the "
                 "required %.2fx\n",
                 factor_at_max, max_leaves, options.min_factor);
    return 1;
  }
  std::printf("# root-load reduction at %zu leaves: %.2fx\n", max_leaves,
              factor_at_max);
  return 0;
}
