#pragma once

// Helpers shared by the experiment drivers. Every bench prints CSV-style
// rows "series,x,y" so EXPERIMENTS.md can quote them directly.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/replication_service.h"
#include "ldap/query_template.h"
#include "resync/protocol.h"
#include "select/generalize.h"
#include "select/selector.h"
#include "workload/directory_gen.h"
#include "workload/update_gen.h"
#include "workload/workload_gen.h"
#include "wire/codec.h"

namespace fbdr::bench {

/// The query templates of the case-study workload (Table 1) plus their
/// generalized forms (§6.1).
inline std::shared_ptr<ldap::TemplateRegistry> case_study_registry() {
  auto registry = std::make_shared<ldap::TemplateRegistry>();
  registry->add("(serialnumber=_)");
  registry->add("(serialnumber=_*)");
  registry->add("(mail=_)");
  registry->add("(mail=*_)");
  registry->add("(&(dept=_)(div=_))");
  registry->add("(&(div=_)(dept=*))");
  registry->add("(location=_)");
  registry->add("(location=*)");
  return registry;
}

/// serialNumber prefix generalization at block granularity `prefix_len`
/// (default 4: blocks of 100 serials in a 6-digit space).
inline select::Generalizer serial_generalizer(std::size_t prefix_len = 4) {
  select::Generalizer g;
  g.add_rule("(serialnumber=_)", "(serialnumber=_*)",
             select::prefix_transform(prefix_len));
  return g;
}

/// Department hierarchy generalization: fix the division, wildcard the dept.
inline select::Generalizer dept_generalizer() {
  select::Generalizer g;
  g.add_rule("(&(dept=_)(div=_))", "(&(div=_)(dept=*))", select::keep_slots({1}));
  return g;
}

/// Mail domain generalization (ineffective by design: the local part is
/// unorganized, §7.2c).
inline select::Generalizer mail_generalizer(std::size_t prefix_len = 3) {
  select::Generalizer g;
  g.add_rule("(mail=_)", "(mail=_*)", select::prefix_transform(prefix_len));
  return g;
}

/// The default experiment directory: 20k employees (a scaled-down image of
/// the >500k-entry enterprise directory; see DESIGN.md).
inline workload::EnterpriseDirectory default_directory(
    std::size_t employees = 20000) {
  workload::DirectoryConfig config;
  config.employees = employees;
  config.countries = 12;
  config.geo_countries = 3;
  config.geo_fraction = 0.3;
  config.divisions = 40;
  config.depts_per_division = 25;
  config.locations = 45;
  return workload::generate_directory(config);
}

/// Parses a comma-separated list of sizes ("1,8,64") as passed to sweep
/// arguments like --sessions= / --leaves=. A token with no digits stops the
/// parse (with a note on stderr) rather than looping forever on the same
/// unconsumed character.
inline std::vector<std::size_t> parse_csv(const char* text) {
  std::vector<std::size_t> out;
  for (const char* cursor = text; *cursor != '\0';) {
    char* end = nullptr;
    const std::size_t value = std::strtoull(cursor, &end, 10);
    if (end == cursor) {  // no digits consumed: stop instead of spinning
      std::fprintf(stderr, "ignoring non-numeric list value in '%s'\n", text);
      break;
    }
    out.push_back(value);
    cursor = *end == ',' ? end + 1 : end;
  }
  return out;
}

/// The value of a gate flag (--max-* / --min-*) when the whole of `text`
/// is one finite, non-negative number of type T; nullopt otherwise.
template <typename T>
std::optional<T> parse_gate(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [last, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || last != end || !(value >= T{})) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// Reads the gate flag `flag` (its "--name=" prefix) from its value `text`.
/// A value parse_gate rejects is a usage error that exits 2: read leniently,
/// a typo would turn the gate off.
template <typename T>
T gate_flag(const char* flag, const char* text) {
  if (const std::optional<T> value = parse_gate<T>(text)) return *value;
  std::fprintf(stderr, "usage: %s%s: not a finite non-negative number\n", flag,
               text);
  std::exit(2);
}

/// The Push frame a persist push travels in: how benches count push bytes
/// on an in-process link, which carries the push as a struct.
inline wire::Bytes push_frame(const resync::ReSyncResponse& push) {
  wire::Bytes frame;
  wire::Codec::frame_push(frame, push);
  return frame;
}

inline void print_banner(const std::string& title, const std::string& note) {
  std::printf("# %s\n", title.c_str());
  if (!note.empty()) std::printf("# %s\n", note.c_str());
  std::printf("series,x,y\n");
}

inline void print_row(const std::string& series, double x, double y) {
  std::printf("%s,%.4f,%.4f\n", series.c_str(), x, y);
}

/// Trains a FilterSelector on `trace` and returns the selected filter set
/// (one terminal revolution) together with its estimated entry footprint.
struct SelectedFilters {
  std::vector<ldap::Query> queries;
  std::size_t estimated_entries = 0;
};

inline SelectedFilters select_filters(
    const std::vector<workload::GeneratedQuery>& trace,
    select::Generalizer generalizer,
    const select::FilterSelector::SizeEstimator& estimator,
    std::size_t budget_entries,
    std::size_t budget_filters = SIZE_MAX) {
  select::FilterSelector::Config config;
  config.revolution_interval = trace.size() + 1;  // single terminal revolution
  config.budget_entries = budget_entries;
  config.budget_filters = budget_filters;
  select::FilterSelector selector(config, std::move(generalizer), estimator);
  for (const workload::GeneratedQuery& generated : trace) {
    selector.observe(generated.query);
  }
  const auto revolution = selector.revolve();
  SelectedFilters out;
  out.queries = revolution.install;
  out.estimated_entries = selector.stored_entry_budget_used();
  return out;
}

/// Hit ratio of a FilterReplica holding `filters` (unmaterialized) over an
/// evaluation trace.
inline double filter_hit_ratio(
    const std::vector<workload::GeneratedQuery>& eval,
    const std::vector<ldap::Query>& filters,
    const select::FilterSelector::SizeEstimator& estimator,
    std::shared_ptr<ldap::TemplateRegistry> registry) {
  replica::FilterReplica replica(ldap::Schema::default_instance(),
                                 std::move(registry));
  for (const ldap::Query& query : filters) {
    replica.add_query(query, estimator(query));
  }
  for (const workload::GeneratedQuery& generated : eval) {
    replica.handle(generated.query);
  }
  return replica.stats().hit_ratio();
}

}  // namespace fbdr::bench
