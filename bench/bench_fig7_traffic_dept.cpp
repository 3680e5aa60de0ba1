// Figure 7: Update traffic vs hit ratio — department query.
//
// Paper claims: department entries have a very low update rate, so the
// subtree replica's update traffic is negligible. The filter replica's
// traffic is dominated by the *second* component of §7.3 — fetching new
// filters at revolutions — and "can be controlled by having larger intervals
// between revolutions" (R=10000 below R=6000).
//
// Method: department-only drifting workload interleaved with a master update
// stream (personnel churn plus rare department edits); a dynamic
// FilterReplicationService at R in {6000, 10000} under an entry-budget
// sweep; a static division-subtree baseline. Traffic counts entries shipped
// (resync deltas + revolution fetches).

#include <algorithm>

#include "common.h"
#include "subtree_model.h"

int main() {
  using namespace fbdr;
  using workload::GeneratedQuery;

  const auto registry = bench::case_study_registry();

  workload::WorkloadConfig wconfig;
  wconfig.p_serial = wconfig.p_mail = wconfig.p_location = 0.0;
  wconfig.p_dept = 1.0;
  wconfig.temporal_rereference = 0.0;
  wconfig.drift_interval = 8000;
  wconfig.drift_step = 3;
  const std::size_t trace_len = 60000;

  bench::print_banner(
      "Figure 7: update traffic vs hit ratio (department query)",
      "filter traffic is revolution fetches (R=10000 below R=6000); subtree "
      "traffic negligible");

  const double dept_entries_total = 40.0 * 25.0;
  for (const double frac : {0.10, 0.20, 0.35, 0.50, 0.70}) {
    const auto budget = static_cast<std::size_t>(frac * dept_entries_total);

    for (const std::size_t revolution_interval : {6000u, 10000u}) {
      workload::EnterpriseDirectory dir = bench::default_directory();
      core::FilterReplicationService::Config config;
      select::FilterSelector::Config selection;
      selection.revolution_interval = revolution_interval;
      selection.budget_entries = budget;
      config.selection = selection;
      core::FilterReplicationService service(dir.master, config, registry,
                                             bench::dept_generalizer());

      workload::WorkloadGenerator gen(dir, wconfig);
      workload::UpdateConfig uconfig;
      workload::UpdateGenerator updates(dir, uconfig);
      std::size_t hits = 0;
      for (std::size_t i = 0; i < trace_len; ++i) {
        if (service.serve(gen.next().query).hit) ++hits;
        if (i % 10 == 9) updates.apply_one();
        if (i % 2000 == 1999) service.sync();
      }
      bench::print_row(
          "filter R=" + std::to_string(revolution_interval),
          static_cast<double>(hits) / static_cast<double>(trace_len),
          static_cast<double>(service.traffic().entries));
    }

    // Static division-subtree baseline under the same streams.
    {
      workload::EnterpriseDirectory dir = bench::default_directory();
      workload::WorkloadGenerator gen(dir, wconfig);
      const auto warmup = gen.generate(10000);
      std::vector<std::size_t> div_hits(dir.config.divisions, 0);
      for (const GeneratedQuery& generated : warmup) {
        if (generated.target_division != SIZE_MAX) ++div_hits[generated.target_division];
      }
      std::vector<std::size_t> order(dir.config.divisions);
      for (std::size_t d = 0; d < order.size(); ++d) order[d] = d;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return div_hits[a] > div_hits[b];
      });
      core::SubtreeReplicationService service(dir.master);
      std::vector<bool> replicated(dir.config.divisions, false);
      std::size_t used = 0;
      for (const std::size_t d : order) {
        if (used + dir.config.depts_per_division > budget) break;
        used += dir.config.depts_per_division;
        replicated[d] = true;
        service.add_context(
            {ldap::Dn::parse("ou=" + dir.division_names[d] + ",o=ibm"), {}});
      }
      service.load();

      workload::UpdateGenerator updates(dir, {});
      std::size_t hits = 0;
      std::size_t total = warmup.size();
      for (const GeneratedQuery& generated : warmup) {
        if (replicated[generated.target_division]) ++hits;
      }
      for (std::size_t i = 10000; i < trace_len; ++i) {
        const GeneratedQuery generated = gen.next();
        ++total;
        if (generated.target_division != SIZE_MAX &&
            replicated[generated.target_division]) {
          ++hits;
        }
        if (i % 10 == 9) updates.apply_one();
        if (i % 2000 == 1999) service.sync();
      }
      bench::print_row("subtree(static)",
                       static_cast<double>(hits) / static_cast<double>(total),
                       static_cast<double>(service.traffic().entries));
    }
  }
  return 0;
}
