// Reconcile bench: recovery cost of a replica whose session expired, with
// the digest walk (DESIGN.md §12) versus the pre-reconciliation full reload.
// One replica holds a whole division (a quarter of the directory); while its
// session is down, a configurable fraction of the replicated entries go
// stale at the master. The replica runs over a FramedChannel, and the bench
// measures the frame bytes one recovery moves in both directions (the
// client's digest/fingerprint upload rides in its request frames), in both
// worlds, per staleness point.
//
// savings_factor(s) = full_reload_bytes(s) / reconcile_bytes(s). At low
// staleness the walk ships O(diff) and the factor is large; past the
// divergence threshold (default: half the content) the master refuses the
// walk and the factor collapses to ~1x, which the sweep's tail documents.
// --min-savings gates CI on the factor at --gate-pct (default 1%) staleness
// AND on both worlds converging to master truth at every point.
//
// Usage:
//   bench_reconcile [--employees=N] [--stale-pcts=0,1,5,20,60]
//                   [--gate-pct=N] [--json=PATH] [--min-savings=F]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "json_report.h"
#include "net/framed_channel.h"
#include "resync/replica_client.h"
#include "server/change.h"
#include "sync/content_tracker.h"

namespace {

constexpr std::size_t kDivisions = 4;  // serial prefixes "00".."03"

struct Options {
  std::size_t employees = 2000;
  std::vector<std::size_t> stale_pcts = {0, 1, 5, 20, 60};
  std::size_t gate_pct = 1;
  std::string json_path = "BENCH_reconcile.json";
  double min_savings = 0.0;
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
    } else if (const char* pcts = value("--stale-pcts=")) {
      options.stale_pcts = fbdr::bench::parse_csv(pcts);
    } else if (const char* gate = value("--gate-pct=")) {
      options.gate_pct = std::strtoull(gate, nullptr, 10);
    } else if (const char* json = value("--json=")) {
      options.json_path = json;
    } else if (const char* savings = value("--min-savings=")) {
      options.min_savings = fbdr::bench::gate_flag<double>(
          "--min-savings=", savings);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (options.stale_pcts.empty()) options.stale_pcts = {0, 1, 5, 20, 60};
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

/// The replicated filter: all of division 0, a quarter of the directory.
fbdr::ldap::Query division_query() {
  return fbdr::ldap::Query::parse("", fbdr::ldap::Scope::Subtree,
                                  "(serialnumber=00*)");
}

/// One recovery, measured. `staleness_pct` percent of the replicated
/// entries are modified at the master while the session is expired.
struct RecoveryCost {
  std::size_t content_size = 0;
  std::size_t changed = 0;
  std::uint64_t bytes = 0;        // frame bytes, both directions
  std::uint64_t entries = 0;      // full entry PDUs shipped
  std::uint64_t round_trips = 0;
  bool reconciled = false;        // healed by a digest walk
  bool fallback = false;          // master refused the walk (divergence)
  bool converged = false;
};

RecoveryCost measure(const Options& options, std::size_t staleness_pct,
                     bool reconcile) {
  using namespace fbdr;
  workload::EnterpriseDirectory dir = make_directory(options.employees);
  resync::ReSyncMaster master(*dir.master);
  master.set_session_time_limit(5);

  const ldap::Query query = division_query();
  net::FramedChannel link(master);
  resync::ReSyncReplica replica(link, query);
  replica.set_auto_recover(true);
  replica.set_reconcile(reconcile);
  replica.start(resync::Mode::Poll);

  RecoveryCost cost;
  cost.content_size = replica.content().size();
  cost.changed =
      staleness_pct == 0
          ? 0
          : std::max<std::size_t>(1, cost.content_size * staleness_pct / 100);

  // Stale the first `changed` replicated employees while the session is
  // down. Deterministic targets keep both worlds diffing the same entries.
  std::size_t staled = 0;
  for (const workload::EmployeeInfo& employee : dir.employees) {
    if (staled >= cost.changed) break;
    if (employee.serial.compare(0, 2, "00") != 0) continue;
    dir.master->modify(employee.dn,
                       {{server::Modification::Op::Replace,
                         "mail",
                         {"stale" + std::to_string(staled) + "@xyz.com"}}});
    ++staled;
  }
  cost.changed = staled;

  master.tick(6);  // past the session time limit: the cookie goes stale
  link.reset_traffic();

  replica.poll();  // recovers: digest walk or full reload

  cost.bytes = link.traffic().bytes;
  cost.entries = link.traffic().entries;
  cost.round_trips = link.traffic().round_trips;
  cost.reconciled = replica.reconciles() > 0;
  cost.fallback = replica.reconcile_fallbacks() > 0;

  sync::ContentTracker truth(query);
  truth.initialize(dir.master->dit());
  cost.converged = replica.content().keys() == truth.content_keys() &&
                   replica.recoveries() == 1 &&
                   replica.recoveries() ==
                       replica.full_reloads() + replica.reconciles();
  return cost;
}

double savings(const RecoveryCost& full, const RecoveryCost& walk) {
  return static_cast<double>(full.bytes) /
         static_cast<double>(walk.bytes > 0 ? walk.bytes : 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fbdr;
  const Options options = parse_options(argc, argv);

  bench::print_banner("reconcile",
                      "frame bytes per recovery: digest walk vs full "
                      "reload, by staleness of the replicated content");

  struct Row {
    std::size_t pct;
    RecoveryCost full;
    RecoveryCost walk;
  };
  std::vector<Row> sweep;
  bool all_converged = true;
  for (const std::size_t pct : options.stale_pcts) {
    Row row;
    row.pct = pct;
    row.full = measure(options, pct, /*reconcile=*/false);
    row.walk = measure(options, pct, /*reconcile=*/true);
    all_converged = all_converged && row.full.converged && row.walk.converged;
    const double x = static_cast<double>(pct);
    bench::print_row("full_reload_bytes", x,
                     static_cast<double>(row.full.bytes));
    bench::print_row("reconcile_bytes", x, static_cast<double>(row.walk.bytes));
    bench::print_row("reconcile_entries", x,
                     static_cast<double>(row.walk.entries));
    bench::print_row("savings_factor", x, savings(row.full, row.walk));
    sweep.push_back(row);
  }

  // The gated point: --gate-pct staleness if swept, else the smallest
  // non-zero point (0% measures the in-sync handshake, not a diff).
  const Row* gated = nullptr;
  for (const Row& row : sweep) {
    if (row.pct == options.gate_pct) gated = &row;
  }
  if (gated == nullptr) {
    for (const Row& row : sweep) {
      if (row.pct == 0) continue;
      if (gated == nullptr || row.pct < gated->pct) gated = &row;
    }
  }
  const double gated_savings =
      gated != nullptr ? savings(gated->full, gated->walk) : 0.0;

  bench::JsonValue report = bench::JsonValue::object();
  report.set("bench", "reconcile");
  report.set("employees", static_cast<std::uint64_t>(options.employees));
  report.set("gate_pct", static_cast<std::uint64_t>(
                             gated != nullptr ? gated->pct : options.gate_pct));
  bench::JsonValue rows = bench::JsonValue::array();
  for (const Row& row : sweep) {
    bench::JsonValue out = bench::JsonValue::object();
    out.set("stale_pct", static_cast<std::uint64_t>(row.pct));
    out.set("content_entries", static_cast<std::uint64_t>(row.walk.content_size));
    out.set("changed_entries", static_cast<std::uint64_t>(row.walk.changed));
    out.set("full_reload_bytes", row.full.bytes);
    out.set("full_reload_entries", row.full.entries);
    out.set("reconcile_bytes", row.walk.bytes);
    out.set("reconcile_entries", row.walk.entries);
    out.set("reconcile_round_trips", row.walk.round_trips);
    out.set("savings_factor", savings(row.full, row.walk));
    out.set("walked", bench::JsonValue::boolean(row.walk.reconciled));
    out.set("fallback", bench::JsonValue::boolean(row.walk.fallback));
    out.set("converged", bench::JsonValue::boolean(row.full.converged &&
                                                   row.walk.converged));
    rows.push(std::move(out));
  }
  report.set("results", std::move(rows));
  report.set("gated_savings_factor", gated_savings);
  report.set("all_converged", bench::JsonValue::boolean(all_converged));
  bench::write_json_report(options.json_path, report);

  if (!all_converged) {
    std::fprintf(stderr,
                 "FAIL: a recovery left the replica diverged from master "
                 "truth\n");
    return 1;
  }
  if (options.min_savings > 0.0) {
    if (gated == nullptr) {
      std::fprintf(stderr, "FAIL: no non-zero staleness point to gate on\n");
      return 1;
    }
    if (gated_savings < options.min_savings) {
      std::fprintf(stderr,
                   "FAIL: savings factor %.2fx at %zu%% staleness is below "
                   "the required %.2fx (full %llu bytes, reconcile %llu)\n",
                   gated_savings, gated->pct, options.min_savings,
                   static_cast<unsigned long long>(gated->full.bytes),
                   static_cast<unsigned long long>(gated->walk.bytes));
      return 1;
    }
  }
  if (gated != nullptr) {
    std::printf("# savings at %zu%% staleness (%zu of %zu entries): %.1fx "
                "(%llu bytes reloaded vs %llu reconciled)\n",
                gated->pct, gated->walk.changed, gated->walk.content_size,
                gated_savings,
                static_cast<unsigned long long>(gated->full.bytes),
                static_cast<unsigned long long>(gated->walk.bytes));
  }
  return 0;
}
