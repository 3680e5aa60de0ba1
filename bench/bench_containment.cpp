// Microbenchmarks for the containment engine (§3.4.2, §7.4): per-check cost
// of the three decision procedures (Proposition 3 same-template fast path,
// Proposition 2 compiled cross-template conditions, Proposition 1 general
// DNF engine) and the per-query cost of a replica as a function of the
// number of stored filters (Figures 8/9's processing-overhead argument).
//
// Besides the Google Benchmark counters, a JSON report compares the
// interned-IR Proposition 1 path (filter_contained — predicates normalized
// once at intern time) against the legacy string path kept in the test
// oracle library (filter_contained_legacy — re-normalizes every value on
// every check).
//
// Usage: bench_containment [--json=PATH] [benchmark flags]

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "containment/engine.h"
#include "containment/filter_containment.h"
#include "json_report.h"
#include "ldap/filter_ir.h"
#include "ldap/filter_parser.h"
#include "legacy_containment.h"
#include "replica/filter_replica.h"

namespace {

using namespace fbdr;
using ldap::FilterPtr;
using ldap::parse_filter;
using ldap::Query;
using ldap::Scope;

std::shared_ptr<ldap::TemplateRegistry> registry() {
  auto r = std::make_shared<ldap::TemplateRegistry>();
  r->add("(serialnumber=_)");
  r->add("(serialnumber=_*)");
  r->add("(&(dept=_)(div=_))");
  r->add("(&(div=_)(dept=*))");
  return r;
}

void BM_SameTemplateContainment(benchmark::State& state) {
  const FilterPtr inner = parse_filter("(serialnumber=0412*)");
  const FilterPtr outer = parse_filter("(serialnumber=04*)");
  for (auto _ : state) {
    benchmark::DoNotOptimize(containment::same_template_contained(*inner, *outer));
  }
}
BENCHMARK(BM_SameTemplateContainment);

void BM_CompiledCrossTemplate(benchmark::State& state) {
  containment::ContainmentEngine engine(ldap::Schema::default_instance(),
                                        registry());
  const FilterPtr inner = parse_filter("(serialnumber=041234)");
  const FilterPtr outer = parse_filter("(serialnumber=04*)");
  const auto inner_binding = engine.bind(*inner);
  const auto outer_binding = engine.bind(*outer);
  // Warm the compilation cache.
  engine.filter_contained(*inner, inner_binding, *outer, outer_binding);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.filter_contained(*inner, inner_binding, *outer, outer_binding));
  }
}
BENCHMARK(BM_CompiledCrossTemplate);

void BM_GeneralContainment(benchmark::State& state) {
  const FilterPtr inner = parse_filter("(serialnumber=041234)");
  const FilterPtr outer = parse_filter("(serialnumber=04*)");
  for (auto _ : state) {
    benchmark::DoNotOptimize(containment::filter_contained(*inner, *outer));
  }
}
BENCHMARK(BM_GeneralContainment);

void BM_GeneralContainmentComplexFilter(benchmark::State& state) {
  const FilterPtr inner = parse_filter(
      "(&(objectclass=inetOrgPerson)(|(dept=2406)(dept=2407))(age>=30))");
  const FilterPtr outer = parse_filter(
      "(&(objectclass=inetOrgPerson)(|(dept=240*)(dept=241*))(age>=18))");
  for (auto _ : state) {
    benchmark::DoNotOptimize(containment::filter_contained(*inner, *outer));
  }
}
BENCHMARK(BM_GeneralContainmentComplexFilter);

void BM_CompileTemplatePair(benchmark::State& state) {
  const ldap::FilterTemplate inner = ldap::FilterTemplate::parse("(&(dept=_)(div=_))");
  const ldap::FilterTemplate outer = ldap::FilterTemplate::parse("(&(div=_)(dept=*))");
  for (auto _ : state) {
    benchmark::DoNotOptimize(containment::CompiledContainment::compile(inner, outer));
  }
}
BENCHMARK(BM_CompileTemplatePair);

/// Replica decision cost vs number of stored filters — misses scan every
/// stored filter, so the per-query cost is linear in the count (§7.4).
void BM_ReplicaMissScan(benchmark::State& state) {
  replica::FilterReplica replica(ldap::Schema::default_instance(), registry());
  const auto filters = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < filters; ++i) {
    const std::string prefix = std::to_string(1000 + i).substr(0, 4);
    replica.add_query(Query::parse("", Scope::Subtree,
                                   "(serialnumber=" + prefix + "*)"),
                      100);
  }
  const Query miss = Query::parse("", Scope::Subtree, "(serialnumber=999999)");
  for (auto _ : state) {
    benchmark::DoNotOptimize(replica.handle(miss));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ReplicaMissScan)->Range(8, 512)->Complexity(benchmark::oN);

void BM_ReplicaHit(benchmark::State& state) {
  replica::FilterReplica replica(ldap::Schema::default_instance(), registry());
  const auto filters = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < filters; ++i) {
    const std::string prefix = std::to_string(1000 + i).substr(0, 4);
    replica.add_query(Query::parse("", Scope::Subtree,
                                   "(serialnumber=" + prefix + "*)"),
                      100);
  }
  const Query hit = Query::parse("", Scope::Subtree, "(serialnumber=100042)");
  for (auto _ : state) {
    benchmark::DoNotOptimize(replica.handle(hit));
  }
}
BENCHMARK(BM_ReplicaHit)->Range(8, 512);

// --- interned-IR vs legacy string-path JSON series -------------------------

struct ContainmentCase {
  const char* name;
  const char* inner;
  const char* outer;
};

// The pairs the micro-benchmarks above exercise, spanning prefix patterns,
// ranges, and composite filters.
constexpr ContainmentCase kCases[] = {
    {"prefix_point", "(serialnumber=041234)", "(serialnumber=04*)"},
    {"prefix_prefix", "(serialnumber=0412*)", "(serialnumber=04*)"},
    {"range_pair", "(&(age>=30)(age<=40))", "(age>=18)"},
    {"complex_and_or",
     "(&(objectclass=inetOrgPerson)(|(dept=2406)(dept=2407))(age>=30))",
     "(&(objectclass=inetOrgPerson)(|(dept=240*)(dept=241*))(age>=18))"},
};

using Clock = std::chrono::steady_clock;

/// Median-of-repeats ns/check for one decision procedure over one pair.
template <typename Check>
double time_ns_per_check(const Check& check) {
  constexpr int kIters = 2000;
  constexpr int kRepeats = 5;
  std::vector<double> samples;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    const auto start = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(check());
    }
    const std::chrono::duration<double, std::nano> elapsed = Clock::now() - start;
    samples.push_back(elapsed.count() / kIters);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Compares Proposition 1 over pre-interned IR nodes (values normalized
/// once at intern time, canonical children pre-sorted — the steady state for
/// stored filters, which keep their IR) against the preserved legacy
/// expansion that re-normalizes from the raw AST on every check.
bench::JsonValue ir_vs_legacy_report() {
  const ldap::Schema& schema = ldap::Schema::default_instance();
  ldap::FilterInterner& interner = ldap::FilterInterner::for_schema(schema);
  bench::JsonValue series = bench::JsonValue::array();
  std::printf("# case ir_ns legacy_ns legacy/ir\n");
  for (const ContainmentCase& c : kCases) {
    const FilterPtr inner = parse_filter(c.inner);
    const FilterPtr outer = parse_filter(c.outer);
    const ldap::FilterIrPtr inner_ir = interner.intern(inner);
    const ldap::FilterIrPtr outer_ir = interner.intern(outer);
    const bool verdict = containment::filter_contained(*inner_ir, *outer_ir, schema);
    if (verdict != containment::filter_contained_legacy(*inner, *outer, schema)) {
      std::fprintf(stderr, "verdict mismatch on %s\n", c.name);
      std::exit(1);
    }
    const double ir_ns = time_ns_per_check([&] {
      return containment::filter_contained(*inner_ir, *outer_ir, schema);
    });
    const double legacy_ns = time_ns_per_check([&] {
      return containment::filter_contained_legacy(*inner, *outer, schema);
    });
    std::printf("%s %.1f %.1f %.2f\n", c.name, ir_ns, legacy_ns,
                legacy_ns / ir_ns);
    series.push(bench::JsonValue::object()
                    .set("case", c.name)
                    .set("inner", c.inner)
                    .set("outer", c.outer)
                    .set("contained", bench::JsonValue::boolean(verdict))
                    .set("ir_ns_per_check", ir_ns)
                    .set("legacy_ns_per_check", legacy_ns)
                    .set("speedup", legacy_ns / ir_ns));
  }
  return bench::JsonValue::object()
      .set("bench", "containment")
      .set("series", std::move(series));
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_containment.json";
  // Peel our flag off before Google Benchmark sees (and rejects) it.
  std::vector<char*> bench_argv = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      bench_argv.push_back(argv[i]);
    }
  }

  const fbdr::bench::JsonValue report = ir_vs_legacy_report();
  if (!fbdr::bench::write_json_report(json_path, report)) return 1;

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
