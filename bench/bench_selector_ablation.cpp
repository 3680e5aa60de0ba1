// Ablation (§6.2): replica content determination strategies under the same
// drifting department workload and entry budget —
//   static      — filters chosen once from a training window, never changed
//                 (how subtree replication is administered),
//   periodic    — the paper's selector: hit statistics + revolution every R
//                 queries by best benefit/size,
//   evolution   — the [12]-style baseline: per-query benefit updates,
//                 revolution when candidate benefit overtakes the actuals'.
//
// Reported: hit ratio, revolutions performed and entries fetched (the filter
// churn that shows up as update traffic in Fig. 7). The paper's point:
// periodic revolutions approximate [12] at far fewer stored-list updates.

#include <cstdio>
#include <map>

#include "common.h"
#include "evolution.h"
#include "replica/filter_replica.h"

namespace {

using namespace fbdr;

struct RunResult {
  double hit_ratio = 0;
  std::uint64_t revolutions = 0;
  std::size_t fetched_entries = 0;
};

template <typename Selector>
RunResult run(const workload::EnterpriseDirectory& dir, Selector& selector,
              const workload::WorkloadConfig& wconfig, std::size_t trace_len,
              const select::FilterSelector::SizeEstimator& estimator,
              std::shared_ptr<ldap::TemplateRegistry> registry,
              std::uint64_t* revolutions_out) {
  workload::WorkloadGenerator gen(dir, wconfig);
  replica::FilterReplica replica(ldap::Schema::default_instance(),
                                 std::move(registry));
  RunResult result;
  std::map<std::string, std::size_t> installed;
  for (std::size_t i = 0; i < trace_len; ++i) {
    const workload::GeneratedQuery generated = gen.next();
    replica.handle(generated.query);
    if (const auto revolution = selector.observe(generated.query)) {
      for (const ldap::Query& dropped : revolution->dropped) {
        const auto it = installed.find(dropped.key());
        if (it != installed.end()) {
          replica.remove_query(it->second);
          installed.erase(it);
        }
      }
      for (const ldap::Query& fetched : revolution->fetched) {
        installed[fetched.key()] = replica.add_query(fetched, estimator(fetched));
        result.fetched_entries += estimator(fetched);
      }
    }
  }
  result.hit_ratio = replica.stats().hit_ratio();
  if (revolutions_out) result.revolutions = *revolutions_out;
  return result;
}

}  // namespace

int main() {
  const workload::EnterpriseDirectory dir = bench::default_directory();
  const auto registry = bench::case_study_registry();
  const auto estimator = core::master_size_estimator(dir.master);

  workload::WorkloadConfig wconfig;
  wconfig.p_serial = wconfig.p_mail = wconfig.p_location = 0.0;
  wconfig.p_dept = 1.0;
  wconfig.temporal_rereference = 0.0;
  wconfig.drift_interval = 8000;
  wconfig.drift_step = 3;
  const std::size_t trace_len = 80000;
  const std::size_t budget = 300;  // entries

  std::printf("# Selector ablation: drifting department workload, budget "
              "%zu entries, %zu queries\n",
              budget, trace_len);
  std::printf("strategy,hit_ratio,revolutions,fetched_entries\n");

  // --- static: one selection from the first 10000 queries ---
  {
    workload::WorkloadGenerator gen(dir, wconfig);
    const auto train = gen.generate(10000);
    const bench::SelectedFilters selected = bench::select_filters(
        train, bench::dept_generalizer(), estimator, budget);
    replica::FilterReplica replica(ldap::Schema::default_instance(), registry);
    std::size_t fetched = 0;
    for (const ldap::Query& query : selected.queries) {
      replica.add_query(query, estimator(query));
      fetched += estimator(query);
    }
    workload::WorkloadGenerator eval(dir, wconfig);
    for (std::size_t i = 0; i < trace_len; ++i) replica.handle(eval.next().query);
    std::printf("static,%.4f,1,%zu\n", replica.stats().hit_ratio(), fetched);
  }

  // --- periodic (the paper's selector), R = 8000 ---
  {
    select::FilterSelector::Config config;
    config.revolution_interval = 8000;
    config.budget_entries = budget;
    select::FilterSelector selector(config, bench::dept_generalizer(), estimator);
    std::uint64_t revolutions = 0;
    RunResult result =
        run(dir, selector, wconfig, trace_len, estimator, registry, &revolutions);
    std::printf("periodic R=8000,%.4f,%llu,%zu\n", result.hit_ratio,
                static_cast<unsigned long long>(selector.revolutions()),
                result.fetched_entries);
  }

  // --- evolution baseline ([12]) ---
  {
    select::EvolutionSelector::Config config;
    config.min_interval = 500;
    config.revolution_threshold = 1.0;
    config.budget_entries = budget;
    select::EvolutionSelector selector(config, bench::dept_generalizer(),
                                       estimator);
    std::uint64_t revolutions = 0;
    RunResult result =
        run(dir, selector, wconfig, trace_len, estimator, registry, &revolutions);
    std::printf("evolution,%.4f,%llu,%zu\n", result.hit_ratio,
                static_cast<unsigned long long>(selector.revolutions()),
                result.fetched_entries);
  }
  return 0;
}
