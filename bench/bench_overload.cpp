// Overload bench: a ReSync master's memory footprint under a slow-consumer
// storm, governed (ResourceLimits installed) versus ungoverned (the
// pre-governor default). Both worlds serve the SAME leaf fleet over the same
// churn stream: most leaves poll every tick, one polls `--slow-every` ticks
// late, and one opens its session and then never polls at all.
//
// The ungoverned master keeps every pending event, every replay-cache body
// and every journal record alive for the absent consumers (the journal's
// absent consumer is a reader that never advances: without one, the pump's
// own reader frees each record it routed, in both worlds); the governed
// master degrades over-budget sessions to the paper's equation-(3)
// enumeration, strips replay bodies, evicts pollers past the deadline and
// compacts the journal to a retention horizon. Reported per world: peak
// history units, peak replay-cache bytes and peak journal records across the
// soak, plus the governor activity that bought the bound (degradations,
// evictions, pages) and the resume-side recoveries that healed the evicted
// leaves afterwards.
//
// bounded_memory_factor = min over the three metrics of
// ungoverned_peak / governed_peak. --min-factor gates CI on that factor AND
// on the governed peaks staying within the configured budgets.
//
// Usage:
//   bench_overload [--employees=N] [--leaves=N] [--ticks=N]
//                  [--updates-per-tick=N] [--slow-every=N]
//                  [--json=PATH] [--min-factor=F]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "json_report.h"
#include "resync/replica_client.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kDivisions = 4;  // serial prefixes "00".."03"

struct Options {
  std::size_t employees = 2000;
  std::size_t leaves = 4;  // the acceptance topology: 2 fast, 1 slow, 1 absent
  std::size_t ticks = 10000;
  std::size_t updates_per_tick = 8;
  std::size_t slow_every = 100;
  std::string json_path = "BENCH_overload.json";
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
    } else if (const char* leaves = value("--leaves=")) {
      options.leaves = std::strtoull(leaves, nullptr, 10);
    } else if (const char* ticks = value("--ticks=")) {
      options.ticks = std::strtoull(ticks, nullptr, 10);
    } else if (const char* updates = value("--updates-per-tick=")) {
      options.updates_per_tick = std::strtoull(updates, nullptr, 10);
    } else if (const char* slow = value("--slow-every=")) {
      options.slow_every = std::strtoull(slow, nullptr, 10);
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
  if (options.leaves < 3) options.leaves = 3;      // fast + slow + absent
  if (options.slow_every == 0) options.slow_every = 1;
  return options;
}

fbdr::workload::EnterpriseDirectory make_directory(std::size_t employees) {
  fbdr::workload::DirectoryConfig config;
  config.employees = employees;
  config.countries = 2;
  config.geo_countries = 1;
  config.divisions = kDivisions;
  config.depts_per_division = 4;
  config.locations = 4;
  return fbdr::workload::generate_directory(config);
}

std::string two_digits(std::size_t v) {
  return (v < 10 ? "0" : "") + std::to_string(v);
}

/// Leaf `index` replicates one whole division (a quarter of the directory),
/// so steady churn keeps feeding events into every session — including the
/// ones nobody drains.
fbdr::ldap::Query leaf_query(std::size_t index) {
  return fbdr::ldap::Query::parse(
      "", fbdr::ldap::Scope::Subtree,
      "(serialnumber=" + two_digits(index % kDivisions) + "*)");
}

/// The budgets the governed world runs under (and the smoke gate asserts).
fbdr::resync::ResourceLimits governed_limits(const Options& options) {
  fbdr::resync::ResourceLimits limits;
  limits.max_sessions = options.leaves;
  limits.max_session_history = 8;
  limits.max_total_history = 4 * options.leaves;
  limits.max_replay_bytes = 2048;
  limits.max_page_entries = 8;
  limits.poll_deadline_ticks = options.slow_every / 2;
  limits.journal_retention_records = 128;
  return limits;
}

struct WorldResult {
  std::string world;
  std::size_t peak_history_units = 0;
  std::size_t peak_replay_bytes = 0;
  std::size_t peak_journal_records = 0;
  std::uint64_t degradations = 0;
  std::uint64_t evictions = 0;
  std::uint64_t pages_served = 0;
  std::uint64_t replay_strips = 0;
  std::uint64_t compaction_rebases = 0;
  std::uint64_t resume_recoveries = 0;  // evicted leaves healing afterwards
  double tick_us = 0.0;
};

/// Runs one world (same directory seed, same churn schedule) for
/// `options.ticks` logical ticks and tracks the master's peak footprint.
WorldResult run_world(const std::string& world, const Options& options) {
  using namespace fbdr;
  workload::EnterpriseDirectory dir = make_directory(options.employees);
  workload::UpdateGenerator updates(dir, {});
  resync::ReSyncMaster master(*dir.master);
  const server::ChangeJournal::Reader absent_reader(dir.master->journal());
  if (world == "governed") {
    master.set_resource_limits(governed_limits(options));
  }

  // Leaf fleet: [0, leaves-2) poll every tick, leaves-2 polls slow_every
  // ticks late, leaves-1 opens a session and never polls again.
  const std::size_t slow = options.leaves - 2;
  const std::size_t absent = options.leaves - 1;
  std::vector<std::unique_ptr<resync::ReSyncReplica>> fleet;
  for (std::size_t i = 0; i < options.leaves; ++i) {
    auto replica =
        std::make_unique<resync::ReSyncReplica>(master, leaf_query(i));
    replica->set_auto_recover(true);
    replica->start(resync::Mode::Poll);
    fleet.push_back(std::move(replica));
  }

  WorldResult result;
  result.world = world;
  const auto start = Clock::now();
  for (std::size_t tick = 1; tick <= options.ticks; ++tick) {
    updates.apply(options.updates_per_tick);
    master.pump();
    for (std::size_t i = 0; i < slow; ++i) fleet[i]->poll();
    if (tick % options.slow_every == 0) fleet[slow]->poll();
    master.tick(1);
    result.peak_history_units =
        std::max(result.peak_history_units, master.history_units());
    result.peak_replay_bytes =
        std::max(result.peak_replay_bytes, master.replay_cache_bytes());
    result.peak_journal_records =
        std::max(result.peak_journal_records, dir.master->journal().size());
  }
  result.tick_us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                             start)
                       .count() /
                   static_cast<double>(options.ticks);

  // The slow and absent leaves resume: evicted sessions heal through the
  // stale-cookie full reload, so the storm never strands a replica.
  fleet[slow]->poll();
  fleet[absent]->poll();
  result.resume_recoveries =
      fleet[slow]->recoveries() + fleet[absent]->recoveries();

  const resync::GovernorStats& stats = master.governor_stats();
  result.degradations = stats.sessions_degraded;
  result.evictions = stats.sessions_evicted;
  result.pages_served = stats.pages_served;
  result.replay_strips = stats.replay_caches_stripped;
  result.compaction_rebases = stats.compaction_rebases;
  return result;
}

double ratio(std::size_t ungoverned, std::size_t governed) {
  return static_cast<double>(ungoverned) /
         static_cast<double>(governed > 0 ? governed : 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fbdr;
  const Options options = parse_options(argc, argv);

  bench::print_banner("overload",
                      "governed vs ungoverned master footprint under a "
                      "slow-consumer storm");

  std::vector<WorldResult> results;
  for (const char* world : {"ungoverned", "governed"}) {
    const WorldResult result = run_world(world, options);
    results.push_back(result);
    const double x = static_cast<double>(options.ticks);
    bench::print_row("peak_history_units_" + result.world, x,
                     static_cast<double>(result.peak_history_units));
    bench::print_row("peak_replay_bytes_" + result.world, x,
                     static_cast<double>(result.peak_replay_bytes));
    bench::print_row("peak_journal_records_" + result.world, x,
                     static_cast<double>(result.peak_journal_records));
    bench::print_row("tick_us_" + result.world, x, result.tick_us);
  }
  const WorldResult& ungoverned = results[0];
  const WorldResult& governed = results[1];

  const double history_factor =
      ratio(ungoverned.peak_history_units, governed.peak_history_units);
  const double replay_factor =
      ratio(ungoverned.peak_replay_bytes, governed.peak_replay_bytes);
  const double journal_factor =
      ratio(ungoverned.peak_journal_records, governed.peak_journal_records);
  const double factor =
      std::min({history_factor, replay_factor, journal_factor});
  bench::print_row("bounded_memory_factor",
                   static_cast<double>(options.ticks), factor);

  // Budget compliance of the governed world — the acceptance criterion the
  // overload soak test asserts per tick, reported here for the record.
  const resync::ResourceLimits limits = governed_limits(options);
  const bool within_budget =
      governed.peak_history_units <= limits.max_total_history &&
      governed.peak_replay_bytes <= limits.max_replay_bytes * options.leaves &&
      governed.peak_journal_records <= limits.journal_retention_records;

  bench::JsonValue report = bench::JsonValue::object();
  report.set("bench", "overload");
  report.set("employees", static_cast<std::uint64_t>(options.employees));
  report.set("leaves", static_cast<std::uint64_t>(options.leaves));
  report.set("ticks", static_cast<std::uint64_t>(options.ticks));
  report.set("updates_per_tick",
             static_cast<std::uint64_t>(options.updates_per_tick));
  report.set("slow_every", static_cast<std::uint64_t>(options.slow_every));
  bench::JsonValue budget = bench::JsonValue::object();
  budget.set("max_sessions", static_cast<std::uint64_t>(limits.max_sessions));
  budget.set("max_session_history",
             static_cast<std::uint64_t>(limits.max_session_history));
  budget.set("max_total_history",
             static_cast<std::uint64_t>(limits.max_total_history));
  budget.set("max_replay_bytes",
             static_cast<std::uint64_t>(limits.max_replay_bytes));
  budget.set("max_page_entries",
             static_cast<std::uint64_t>(limits.max_page_entries));
  budget.set("poll_deadline_ticks",
             static_cast<std::uint64_t>(limits.poll_deadline_ticks));
  budget.set("journal_retention_records",
             static_cast<std::uint64_t>(limits.journal_retention_records));
  report.set("limits", std::move(budget));
  bench::JsonValue rows = bench::JsonValue::array();
  for (const WorldResult& result : results) {
    bench::JsonValue row = bench::JsonValue::object();
    row.set("world", result.world);
    row.set("peak_history_units",
            static_cast<std::uint64_t>(result.peak_history_units));
    row.set("peak_replay_bytes",
            static_cast<std::uint64_t>(result.peak_replay_bytes));
    row.set("peak_journal_records",
            static_cast<std::uint64_t>(result.peak_journal_records));
    row.set("sessions_degraded", result.degradations);
    row.set("sessions_evicted", result.evictions);
    row.set("pages_served", result.pages_served);
    row.set("replay_caches_stripped", result.replay_strips);
    row.set("compaction_rebases", result.compaction_rebases);
    row.set("resume_recoveries", result.resume_recoveries);
    row.set("tick_us", result.tick_us);
    rows.push(std::move(row));
  }
  report.set("results", std::move(rows));
  report.set("history_factor", history_factor);
  report.set("replay_factor", replay_factor);
  report.set("journal_factor", journal_factor);
  report.set("bounded_memory_factor", factor);
  report.set("governed_within_budget", bench::JsonValue::boolean(within_budget));
  bench::write_json_report(options.json_path, report);

  if (options.min_factor > 0.0) {
    if (!within_budget) {
      std::fprintf(stderr,
                   "FAIL: governed peaks exceed the configured budgets "
                   "(history %zu/%zu, replay %zu/%zu, journal %zu/%zu)\n",
                   governed.peak_history_units, limits.max_total_history,
                   governed.peak_replay_bytes,
                   limits.max_replay_bytes * options.leaves,
                   governed.peak_journal_records,
                   limits.journal_retention_records);
      return 1;
    }
    if (factor < options.min_factor) {
      std::fprintf(stderr,
                   "FAIL: bounded-memory factor %.2fx is below the required "
                   "%.2fx (history %.1fx, replay %.1fx, journal %.1fx)\n",
                   factor, options.min_factor, history_factor, replay_factor,
                   journal_factor);
      return 1;
    }
  }
  std::printf("# bounded-memory factor over %zu ticks: %.1fx (history %.1fx, "
              "replay %.1fx, journal %.1fx); governed within budget: %s\n",
              options.ticks, factor, history_factor, replay_factor,
              journal_factor, within_budget ? "yes" : "no");
  return 0;
}
