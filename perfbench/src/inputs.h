#pragma once

// Seeded inputs of every workload: the enterprise DIT, the update stream,
// the filter sets and the query traces. One --seed reproduces all of them;
// they are generated before any timing starts.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ldap/query.h"
#include "server/change.h"
#include "server/directory_server.h"
#include "workload/directory_gen.h"
#include "workload/workload_gen.h"

namespace perfbench {

/// Seeds of the program's generators, all derived from the one --seed.
struct Seeds {
  unsigned directory = 0;  // DirectoryConfig
  unsigned training = 0;   // WorkloadConfig of the leaf filter-selection traces
  unsigned reads = 0;      // WorkloadConfig of the read trace
  unsigned replicas = 0;   // WorkloadConfig of the replica filter draw
  unsigned updates = 0;    // UpdateConfig

  static Seeds from(std::uint64_t seed);
};

/// The benchmark's DIT: 2000 employees in 20 divisions of 10 departments,
/// 12 countries, 20 locations (about 2.25k entries).
fbdr::workload::DirectoryConfig directory_config(unsigned seed);

/// A generated DIT captured once, so that each set-up loads it into a fresh
/// DirectoryServer (the program's work) without running the generator (the
/// workload's) inside the timed region.
struct DitImage {
  std::string url;
  std::vector<fbdr::server::NamingContext> contexts;
  std::vector<std::string> indexes;
  std::vector<fbdr::ldap::EntryPtr> entries;  // parents first
};

DitImage capture_dit(const fbdr::server::DirectoryServer& server);

/// A fresh server holding the image: its contexts and indexes, and a copy
/// of every entry loaded without journaling, as generate_directory builds
/// its master. The server owns its entries, so its memory counts them.
std::shared_ptr<fbdr::server::DirectoryServer> load_dit(const DitImage& image);

/// One update of the paper-mix stream, as the master journaled it.
struct Update {
  fbdr::server::ChangeType type = fbdr::server::ChangeType::Add;
  fbdr::ldap::Dn dn;
  fbdr::ldap::Dn new_dn;            // ModifyDn
  fbdr::ldap::EntryPtr entry;       // after-image (Add, ModifyDn)
  std::vector<fbdr::server::Modification> mods;  // Modify
};

/// Runs `count` UpdateGenerator steps against a private copy of the DIT and
/// returns what that master journaled, in order.
std::vector<Update> generate_updates(const fbdr::workload::DirectoryConfig& config,
                                     unsigned seed, std::size_t count);

/// Applies one update through DirectoryServer's public update calls.
void apply_update(fbdr::server::DirectoryServer& server, const Update& update);

/// An update in control-plane form ("apply add|del|mod"). The control plane
/// has no rename, so a modify_dn becomes a delete plus an add.
struct ControlOp {
  enum class Kind { Add, Del, Mod };
  Kind kind = Kind::Add;
  std::string dn;
  std::vector<std::pair<std::string, std::vector<std::string>>> attrs;

  /// The control command line.
  std::string line() const;
  /// The same operation applied in-process, as the root node applies it.
  void apply(fbdr::server::DirectoryServer& server) const;
};

std::vector<ControlOp> to_control_ops(const Update& update);

/// Journaled adds that load every entry of `dit` below `suffix`, parents
/// first.
std::vector<ControlOp> load_ops(const DitImage& dit, const fbdr::ldap::Dn& suffix);

/// Filters of the relay tree: each leaf holds the Table-1 generalizations a
/// FilterSelector picks from its own seeded trace; the relay holds their
/// division-level covers, so it admits every leaf filter by containment.
struct TreeFilters {
  std::vector<fbdr::ldap::Query> relay;
  std::vector<fbdr::ldap::Query> leaves[2];
};

TreeFilters select_tree_filters(const fbdr::workload::EnterpriseDirectory& dir,
                                const Seeds& seeds);

/// "<base>|sub|<filter>", the control plane's query spelling.
std::string query_spec(const fbdr::ldap::Query& query);

/// Table-1 template bindings drawn with Zipf skew: the generalizations of a
/// seeded WorkloadGenerator trace, one per replica.
std::vector<fbdr::ldap::Query> replica_filters(
    const fbdr::workload::EnterpriseDirectory& dir, unsigned seed,
    std::size_t count);

/// A seeded Table-1 read trace (Zipf popularity, temporal re-reference).
std::vector<fbdr::workload::GeneratedQuery> read_trace(
    const fbdr::workload::EnterpriseDirectory& dir, unsigned seed,
    std::size_t count);

/// Sorted normalized DNs of `entries`.
std::vector<std::string> dn_keys(const std::vector<fbdr::ldap::EntryPtr>& entries);

}  // namespace perfbench
