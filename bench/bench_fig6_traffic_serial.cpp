// Figure 6: Update traffic vs hit ratio — serial number query.
//
// Paper claim: "the higher update traffic for subtree based replicas is a
// direct consequence of the large number of entries stored for the same
// hit-ratio". The ReSync protocol ships the minimal update set for the
// filter replica; the subtree replica must receive every change inside its
// replicated countries. Dynamic selection is NOT used for this query type
// ("generalized filters in this case could have thousands of entries, hence
// dynamic selection of filters is not performed", §7.3), so the filter
// replica's traffic is pure resync traffic.
//
// Method: per entry budget, install the trained filter set / country set,
// reset traffic, apply one update stream with periodic syncs, report
// (hit ratio on an evaluation trace, update traffic in entries).

#include <algorithm>

#include "common.h"
#include "subtree_model.h"

int main() {
  using namespace fbdr;
  using workload::GeneratedQuery;

  const auto registry = bench::case_study_registry();

  workload::WorkloadConfig wconfig;
  wconfig.p_serial = 1.0;
  wconfig.p_mail = wconfig.p_dept = wconfig.p_location = 0.0;
  wconfig.temporal_rereference = 0.0;

  bench::print_banner(
      "Figure 6: update traffic vs hit ratio (serial number query)",
      "y = entries shipped to the replica over 4000 master updates; filter "
      "well below subtree at equal hit ratio");

  for (const double frac : {0.02, 0.05, 0.10, 0.20, 0.35, 0.50}) {
    // Fresh, identically seeded master per budget so both models see the
    // exact same update stream.
    workload::EnterpriseDirectory dir = bench::default_directory();
    const auto estimator = core::master_size_estimator(dir.master);
    const double persons = static_cast<double>(dir.person_entries());
    const auto budget = static_cast<std::size_t>(frac * persons);

    workload::WorkloadGenerator train_gen(dir, wconfig);
    const auto train = train_gen.generate(30000);
    workload::WorkloadConfig econfig = wconfig;
    econfig.seed = 777;
    workload::WorkloadGenerator eval_gen(dir, econfig);
    const auto eval = eval_gen.generate(20000);

    // --- filter model ---
    const bench::SelectedFilters selected = bench::select_filters(
        train, bench::serial_generalizer(), estimator, budget);
    core::FilterReplicationService filter_service(dir.master, {}, registry);
    for (const ldap::Query& query : selected.queries) {
      filter_service.install(query);
    }
    const double filter_hit =
        bench::filter_hit_ratio(eval, selected.queries, estimator, registry);

    // --- subtree model (favorable crediting, as in Figure 4) ---
    std::vector<std::size_t> country_size(dir.country_codes.size(), 0);
    for (const auto& info : dir.employees) ++country_size[info.country];
    std::vector<std::size_t> country_hits(dir.country_codes.size(), 0);
    for (const GeneratedQuery& generated : train) {
      if (generated.target_country != SIZE_MAX) ++country_hits[generated.target_country];
    }
    std::vector<std::size_t> order(dir.country_codes.size());
    for (std::size_t c = 0; c < order.size(); ++c) order[c] = c;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return static_cast<double>(country_hits[a]) /
                 static_cast<double>(std::max<std::size_t>(1, country_size[a])) >
             static_cast<double>(country_hits[b]) /
                 static_cast<double>(std::max<std::size_t>(1, country_size[b]));
    });
    core::SubtreeReplicationService subtree_service(dir.master);
    std::vector<bool> replicated(dir.country_codes.size(), false);
    std::size_t used = 0;
    for (const std::size_t c : order) {
      if (used + country_size[c] > budget) continue;
      used += country_size[c];
      replicated[c] = true;
      subtree_service.add_context(
          {ldap::Dn::parse("c=" + dir.country_codes[c] + ",o=ibm"), {}});
    }
    subtree_service.load();
    std::size_t subtree_hits = 0;
    for (const GeneratedQuery& generated : eval) {
      if (generated.target_country != SIZE_MAX && replicated[generated.target_country]) {
        ++subtree_hits;
      }
    }
    const double subtree_hit =
        static_cast<double>(subtree_hits) / static_cast<double>(eval.size());

    // --- shared update stream with periodic syncs ---
    filter_service.resync().reset_traffic();
    workload::UpdateGenerator updates(dir, {});
    for (int round = 0; round < 40; ++round) {
      updates.apply(100);
      filter_service.sync();
      subtree_service.sync();
    }
    bench::print_row("filter", filter_hit,
                     static_cast<double>(filter_service.traffic().entries));
    bench::print_row("subtree", subtree_hit,
                     static_cast<double>(subtree_service.traffic().entries));
  }
  return 0;
}
