#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ldap/dn.h"
#include "ldap/entry.h"
#include "ldap/query.h"
#include "server/change.h"

namespace fbdr::server {

/// In-memory Directory Information Tree: immutable entries indexed by
/// normalized DN with a parent -> children index for scoped traversal.
///
/// The DIT enforces tree shape: an entry can only be added when its parent
/// exists or its DN is a registered suffix (top of a naming context); only
/// leaves can be deleted. Update operations return the affected snapshots so
/// the server can journal them.
class Dit {
 public:
  /// Registers a naming-context suffix; entries at a suffix DN may be added
  /// without their parent existing in this DIT.
  void add_suffix(const ldap::Dn& suffix);

  bool contains(const ldap::Dn& dn) const;
  ldap::EntryPtr find(const ldap::Dn& dn) const;  // null when absent
  ldap::EntryPtr find_by_key(const std::string& norm_key) const;

  /// Adds an entry. Throws EntryAlreadyExists / NoSuchObject (parent).
  void add(ldap::EntryPtr entry);

  /// Deletes a leaf entry; returns the removed snapshot. Throws NoSuchObject
  /// / NotAllowedOnNonLeaf.
  ldap::EntryPtr remove(const ldap::Dn& dn);

  /// Applies modifications, returning (before, after) snapshots. Throws
  /// NoSuchObject; unknown delete-values are ignored (lenient, like most
  /// servers in relaxed mode). Only the indexed attributes the
  /// modifications name are re-indexed. A given `after` is installed as is:
  /// it must be what `mods` make of the stored entry.
  std::pair<ldap::EntryPtr, ldap::EntryPtr> modify(
      const ldap::Dn& dn, const std::vector<Modification>& mods,
      ldap::EntryPtr after = nullptr);

  /// Renames/moves the entry (and any subtree under it) to `new_dn`. Returns
  /// the per-entry (old DN, new DN, snapshot) triples, parent first.
  struct Renamed {
    ldap::Dn old_dn;
    ldap::Dn new_dn;
    ldap::EntryPtr entry;      // snapshot with the new DN
    ldap::EntryPtr old_entry;  // snapshot before the move
  };
  std::vector<Renamed> move(const ldap::Dn& dn, const ldap::Dn& new_dn);

  /// Children of `dn` (one level).
  std::vector<ldap::EntryPtr> children(const ldap::Dn& dn) const;

  /// The entry at `base` (if any) plus every entry below it.
  std::vector<ldap::EntryPtr> subtree(const ldap::Dn& base) const;

  /// Entries selected by `scope` from `base`. The base entry itself must
  /// exist for Base scope; for One/Subtree a missing base yields an empty
  /// result (callers decide whether that is an error).
  std::vector<ldap::EntryPtr> scoped(const ldap::Dn& base, ldap::Scope scope) const;

  void for_each(const std::function<void(const ldap::EntryPtr&)>& fn) const;

  /// Calls `fn` once for each entry `query` could match, in norm-key order,
  /// from the cheapest source the Dit knows: the base entry of a base
  /// search; else the postings of the first indexed (attr=value) or prefix
  /// (attr=p*...) predicate in the filter's top-level AND nesting, each key
  /// once; else the one-level children; else the subtree below a base that
  /// is neither the root nor a suffix; else every entry. The candidates are
  /// a superset of the matches: callers still test the region and the
  /// filter.
  void for_each_candidate(
      const ldap::Query& query,
      const std::function<void(const ldap::EntryPtr&)>& fn) const;

  std::size_t size() const noexcept { return entries_.size(); }

  // --- attribute indexes (equality + ordered prefix lookup) ---

  /// Maintains an index over `attr` (normalized values -> entry keys); any
  /// existing entries are indexed immediately. Directory servers configure
  /// such indexes for the attributes their workloads filter on.
  void add_index(std::string_view attr,
                 const ldap::Schema& schema = ldap::Schema::default_instance());

  bool has_index(std::string_view attr) const;

  /// Entries holding `value` for the indexed attribute, as a sorted vector
  /// of entry keys. Returns nullptr when the attribute is not indexed; an
  /// empty list when no entry matches.
  const std::vector<std::string>* index_lookup(std::string_view attr,
                                               std::string_view value) const;

  /// Entries whose indexed value starts with `prefix` (the value index is
  /// ordered, so this is a range scan). Precondition: has_index(attr).
  std::vector<std::string> index_prefix_lookup(std::string_view attr,
                                               std::string_view prefix) const;

 private:
  bool is_suffix_dn(const ldap::Dn& dn) const;
  void collect_subtree(const ldap::Dn& base,
                       std::vector<ldap::EntryPtr>& out) const;
  /// Appends every entry strictly below `base_key`, recursing on the stored
  /// normalized keys (no Dn re-derivation per hop).
  void collect_below(const std::string& base_key,
                     std::vector<ldap::EntryPtr>& out) const;
  /// normalized value -> sorted entry keys (posting list).
  using ValueIndex = std::map<std::string, std::vector<std::string>>;

  void index_entry(const ldap::Entry& entry);
  void deindex_entry(const ldap::Entry& entry);
  void index_values(const std::string& attr, ValueIndex& index,
                    const ldap::Entry& entry);
  void deindex_values(const std::string& attr, ValueIndex& index,
                      const ldap::Entry& entry);

  std::map<std::string, ldap::EntryPtr> entries_;          // by norm key
  std::map<std::string, std::set<std::string>> children_;  // parent -> children
  std::vector<ldap::Dn> suffixes_;
  std::map<std::string, ValueIndex> indexes_;  // lowercased attr -> index
  const ldap::Schema* index_schema_ = nullptr;
};

}  // namespace fbdr::server
