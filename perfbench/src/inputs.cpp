#include "inputs.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "select/generalize.h"
#include "select/selector.h"
#include "workload/update_gen.h"

namespace perfbench {

using fbdr::ldap::Dn;
using fbdr::ldap::Entry;
using fbdr::ldap::EntryPtr;
using fbdr::ldap::Query;
using fbdr::server::ChangeType;

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

unsigned derive(std::uint64_t seed, std::uint64_t stream) {
  return static_cast<unsigned>(splitmix64(seed * 16 + stream) & 0xffffffffu);
}

// Characters the control plane uses as delimiters inside "apply" lines.
void check_control_text(const std::string& text) {
  if (text.find_first_of("|;,=\n") != std::string::npos) {
    throw std::invalid_argument("value not expressible on the control plane: " +
                                text);
  }
}

std::vector<std::pair<std::string, std::vector<std::string>>> attrs_of(
    const Entry& entry) {
  std::vector<std::pair<std::string, std::vector<std::string>>> attrs;
  for (const auto& [attr, values] : entry.attributes()) {
    check_control_text(attr);
    for (const std::string& value : values) check_control_text(value);
    attrs.emplace_back(attr, values);
  }
  return attrs;
}

// The generalizations of the paper's Table-1 query types (§6.1): serial
// numbers to blocks of ten, departments to their division, locations to all
// locations. Mail generalizes to a 3-letter prefix only with `mail`: the
// local part is unorganized (§7.2c), so those filters hold one entry each
// and would crowd a filter budget out of every organized region.
fbdr::select::Generalizer table1_generalizer(bool mail) {
  fbdr::select::Generalizer g;
  g.add_rule("(serialnumber=_)", "(serialnumber=_*)",
             fbdr::select::prefix_transform(5));
  if (mail) g.add_rule("(mail=_)", "(mail=_*)", fbdr::select::prefix_transform(3));
  g.add_rule("(&(dept=_)(div=_))", "(&(div=_)(dept=*))",
             fbdr::select::keep_slots({1}));
  g.add_rule("(location=_)", "(location=*)", fbdr::select::no_slots());
  return g;
}

// The division-level cover of a leaf filter: a serial block widens to its
// division's prefix; the other generalizations already are division-level
// (or have no division structure) and are kept as they are.
Query division_cover(const Query& query) {
  const std::string text = query.filter->to_string();
  const std::string serial = "(serialnumber=";
  if (text.compare(0, serial.size(), serial) == 0 &&
      text.size() > serial.size() + 2) {
    return Query::parse(query.base.to_string(), query.scope,
                        serial + text.substr(serial.size(), 2) + "*)");
  }
  return query;
}

}  // namespace

Seeds Seeds::from(std::uint64_t seed) {
  Seeds seeds;
  seeds.directory = derive(seed, 1);
  seeds.training = derive(seed, 2);
  seeds.reads = derive(seed, 3);
  seeds.replicas = derive(seed, 4);
  seeds.updates = derive(seed, 5);
  return seeds;
}

fbdr::workload::DirectoryConfig directory_config(unsigned seed) {
  fbdr::workload::DirectoryConfig config;
  config.employees = 2000;
  config.countries = 12;
  config.geo_countries = 3;
  config.geo_fraction = 0.3;
  config.divisions = 20;
  config.depts_per_division = 10;
  config.locations = 20;
  config.seed = seed;
  return config;
}

std::vector<Update> generate_updates(const fbdr::workload::DirectoryConfig& config,
                                     unsigned seed, std::size_t count) {
  fbdr::workload::EnterpriseDirectory scratch =
      fbdr::workload::generate_directory(config);
  fbdr::workload::UpdateConfig update_config;
  update_config.seed = seed;
  fbdr::workload::UpdateGenerator generator(scratch, update_config);
  fbdr::server::ChangeJournal& journal = scratch.master->journal();

  std::vector<Update> updates;
  updates.reserve(count);
  std::uint64_t seen = journal.last_seq();
  while (updates.size() < count) {
    generator.apply(std::min<std::size_t>(1024, count - updates.size()));
    for (const fbdr::server::ChangeRecord* record : journal.since(seen)) {
      Update update;
      update.type = record->type;
      update.dn = record->dn;
      update.new_dn = record->new_dn;
      if (record->type == ChangeType::Add || record->type == ChangeType::ModifyDn) {
        update.entry = record->after;
      }
      update.mods = record->mods;
      updates.push_back(std::move(update));
    }
    seen = journal.last_seq();
    journal.trim(seen);  // keep only the stream, not the scratch history
  }
  updates.resize(count);
  return updates;
}

void apply_update(fbdr::server::DirectoryServer& server, const Update& update) {
  switch (update.type) {
    case ChangeType::Add:
      server.add(std::make_shared<Entry>(*update.entry));
      break;
    case ChangeType::Delete:
      server.remove(update.dn);
      break;
    case ChangeType::Modify:
      server.modify(update.dn, update.mods);
      break;
    case ChangeType::ModifyDn:
      server.modify_dn(update.dn, update.new_dn);
      break;
  }
}

std::string ControlOp::line() const {
  switch (kind) {
    case Kind::Del:
      return "apply del " + dn;
    case Kind::Add:
    case Kind::Mod: {
      std::string out = (kind == Kind::Add ? "apply add " : "apply mod ") + dn + "|";
      for (std::size_t i = 0; i < attrs.size(); ++i) {
        if (i > 0) out += ';';
        out += attrs[i].first + '=';
        for (std::size_t v = 0; v < attrs[i].second.size(); ++v) {
          if (v > 0) out += ',';
          out += attrs[i].second[v];
        }
      }
      return out;
    }
  }
  return {};
}

void ControlOp::apply(fbdr::server::DirectoryServer& server) const {
  const Dn target = Dn::parse(dn);
  switch (kind) {
    case Kind::Del:
      server.remove(target);
      return;
    case Kind::Add: {
      auto entry = std::make_shared<Entry>(target);
      for (const auto& [attr, values] : attrs) entry->set_values(attr, values);
      server.add(std::move(entry));
      return;
    }
    case Kind::Mod: {
      std::vector<fbdr::server::Modification> mods;
      for (const auto& [attr, values] : attrs) {
        mods.push_back({fbdr::server::Modification::Op::Replace, attr, values});
      }
      server.modify(target, std::move(mods));
      return;
    }
  }
}

std::vector<ControlOp> to_control_ops(const Update& update) {
  ControlOp op;
  op.dn = update.dn.to_string();
  switch (update.type) {
    case ChangeType::Add:
      op.kind = ControlOp::Kind::Add;
      op.attrs = attrs_of(*update.entry);
      return {op};
    case ChangeType::Delete:
      op.kind = ControlOp::Kind::Del;
      return {op};
    case ChangeType::Modify:
      op.kind = ControlOp::Kind::Mod;
      for (const fbdr::server::Modification& mod : update.mods) {
        if (mod.op != fbdr::server::Modification::Op::Replace) {
          throw std::invalid_argument("control plane modifies replace only");
        }
        check_control_text(mod.attr);
        for (const std::string& value : mod.values) check_control_text(value);
        op.attrs.emplace_back(mod.attr, mod.values);
      }
      return {op};
    case ChangeType::ModifyDn: {
      op.kind = ControlOp::Kind::Del;
      ControlOp add;
      add.kind = ControlOp::Kind::Add;
      add.dn = update.new_dn.to_string();
      add.attrs = attrs_of(*update.entry);
      return {op, add};
    }
  }
  return {};
}

DitImage capture_dit(const fbdr::server::DirectoryServer& server) {
  DitImage image;
  image.url = server.url();
  image.contexts = server.contexts();
  std::set<std::string> attrs;
  server.dit().for_each([&](const EntryPtr& entry) {
    image.entries.push_back(entry);
    for (const auto& [attr, values] : entry->attributes()) attrs.insert(attr);
  });
  for (const std::string& attr : attrs) {
    if (server.dit().has_index(attr)) image.indexes.push_back(attr);
  }
  std::sort(image.entries.begin(), image.entries.end(),
            [](const EntryPtr& a, const EntryPtr& b) {
              const std::size_t da = a->dn().rdns().size();
              const std::size_t db = b->dn().rdns().size();
              return da != db ? da < db : a->dn() < b->dn();
            });
  return image;
}

std::shared_ptr<fbdr::server::DirectoryServer> load_dit(const DitImage& image) {
  auto server = std::make_shared<fbdr::server::DirectoryServer>(image.url);
  for (const std::string& attr : image.indexes) server->add_index(attr);
  for (const fbdr::server::NamingContext& context : image.contexts) {
    server->add_context(context);
  }
  for (const EntryPtr& entry : image.entries) {
    server->load(std::make_shared<Entry>(*entry));
  }
  return server;
}

std::vector<ControlOp> load_ops(const DitImage& dit, const Dn& suffix) {
  std::vector<ControlOp> ops;
  ops.reserve(dit.entries.size());
  for (const EntryPtr& entry : dit.entries) {
    if (entry->dn() == suffix) continue;
    ControlOp op;
    op.kind = ControlOp::Kind::Add;
    op.dn = entry->dn().to_string();
    op.attrs = attrs_of(*entry);
    ops.push_back(std::move(op));
  }
  return ops;
}

TreeFilters select_tree_filters(const fbdr::workload::EnterpriseDirectory& dir,
                                const Seeds& seeds) {
  std::map<std::string, std::size_t> sizes;
  const auto estimator = [&](const Query& query) {
    const auto [it, fresh] = sizes.try_emplace(query.key(), 0);
    if (fresh) it->second = dir.master->evaluate(query).size();
    return it->second;
  };
  TreeFilters filters;
  std::set<std::string> relay_keys;
  for (std::size_t leaf = 0; leaf < 2; ++leaf) {
    fbdr::select::FilterSelector::Config config;
    config.revolution_interval = SIZE_MAX;  // one terminal revolution
    // A small replica: a few dozen sessions in the tree, and a hit ratio
    // (about 0.25) far enough below one half that a read's median lies
    // inside the chased-miss latencies rather than between two modes.
    config.budget_entries = dir.employees.size() / 20;
    config.budget_filters = 5;
    fbdr::select::FilterSelector selector(config, table1_generalizer(false),
                                          estimator);
    for (const auto& generated :
         read_trace(dir, seeds.training + static_cast<unsigned>(leaf), 4000)) {
      selector.observe(generated.query);
    }
    filters.leaves[leaf] = selector.revolve().install;
    for (const Query& query : filters.leaves[leaf]) {
      Query cover = division_cover(query);
      if (relay_keys.insert(cover.key()).second) {
        filters.relay.push_back(std::move(cover));
      }
    }
  }
  return filters;
}

std::string query_spec(const Query& query) {
  return query.base.to_string() + "|sub|" + query.filter->to_string();
}

std::vector<Query> replica_filters(const fbdr::workload::EnterpriseDirectory& dir,
                                   unsigned seed, std::size_t count) {
  const fbdr::select::Generalizer generalizer = table1_generalizer(true);
  std::vector<Query> filters;
  filters.reserve(count);
  for (const auto& generated : read_trace(dir, seed, count)) {
    filters.push_back(
        generalizer.generalize(generated.query).value_or(generated.query));
  }
  return filters;
}

std::vector<fbdr::workload::GeneratedQuery> read_trace(
    const fbdr::workload::EnterpriseDirectory& dir, unsigned seed,
    std::size_t count) {
  fbdr::workload::WorkloadConfig config;
  config.seed = seed;
  fbdr::workload::WorkloadGenerator generator(dir, config);
  return generator.generate(count);
}

std::vector<std::string> dn_keys(const std::vector<EntryPtr>& entries) {
  std::vector<std::string> keys;
  keys.reserve(entries.size());
  for (const EntryPtr& entry : entries) keys.push_back(entry->dn().norm_key());
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace perfbench
