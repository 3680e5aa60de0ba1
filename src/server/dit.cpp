#include "server/dit.h"

#include <algorithm>

#include "ldap/error.h"
#include "ldap/text.h"

namespace fbdr::server {

using ldap::Dn;
using ldap::Entry;
using ldap::EntryPtr;
using ldap::OperationError;
using ldap::ResultCode;

void Dit::add_suffix(const Dn& suffix) {
  if (std::find(suffixes_.begin(), suffixes_.end(), suffix) == suffixes_.end()) {
    suffixes_.push_back(suffix);
  }
}

bool Dit::is_suffix_dn(const Dn& dn) const {
  return std::find(suffixes_.begin(), suffixes_.end(), dn) != suffixes_.end();
}

bool Dit::contains(const Dn& dn) const { return entries_.count(dn.norm_key()) > 0; }

EntryPtr Dit::find(const Dn& dn) const {
  return find_by_key(dn.norm_key());
}

EntryPtr Dit::find_by_key(const std::string& norm_key) const {
  const auto it = entries_.find(norm_key);
  return it == entries_.end() ? nullptr : it->second;
}

void Dit::add(EntryPtr entry) {
  if (!entry) {
    throw OperationError(ResultCode::OperationsError, "add of null entry");
  }
  const Dn& dn = entry->dn();
  if (dn.is_root()) {
    throw OperationError(ResultCode::NamingViolation, "cannot add the root DSE");
  }
  if (contains(dn)) {
    throw OperationError(ResultCode::EntryAlreadyExists, dn.to_string());
  }
  const Dn parent = dn.parent();
  if (!is_suffix_dn(dn) && !contains(parent)) {
    throw OperationError(ResultCode::NoSuchObject,
                         "parent of '" + dn.to_string() + "' not present");
  }
  index_entry(*entry);
  entries_[dn.norm_key()] = std::move(entry);
  children_[parent.norm_key()].insert(dn.norm_key());
}

EntryPtr Dit::remove(const Dn& dn) {
  const auto it = entries_.find(dn.norm_key());
  if (it == entries_.end()) {
    throw OperationError(ResultCode::NoSuchObject, dn.to_string());
  }
  const auto kids = children_.find(dn.norm_key());
  if (kids != children_.end() && !kids->second.empty()) {
    throw OperationError(ResultCode::NotAllowedOnNonLeaf, dn.to_string());
  }
  EntryPtr removed = it->second;
  deindex_entry(*removed);
  entries_.erase(it);
  children_.erase(dn.norm_key());
  const auto parent = children_.find(dn.parent().norm_key());
  if (parent != children_.end()) {
    parent->second.erase(dn.norm_key());
    if (parent->second.empty()) children_.erase(parent);
  }
  return removed;
}

std::pair<EntryPtr, EntryPtr> Dit::modify(const Dn& dn,
                                          const std::vector<Modification>& mods,
                                          EntryPtr after) {
  const auto it = entries_.find(dn.norm_key());
  if (it == entries_.end()) {
    throw OperationError(ResultCode::NoSuchObject, dn.to_string());
  }
  const EntryPtr before = it->second;
  if (!after) {
    auto modified = std::make_shared<Entry>(*before);
    for (const Modification& mod : mods) {
      switch (mod.op) {
        case Modification::Op::AddValues:
          for (const std::string& value : mod.values) {
            modified->add_value(mod.attr, value);
          }
          break;
        case Modification::Op::DeleteValues:
          if (mod.values.empty()) {
            modified->remove_attribute(mod.attr);
          } else {
            for (const std::string& value : mod.values) {
              modified->remove_value(mod.attr, value);
            }
          }
          break;
        case Modification::Op::Replace:
          modified->set_values(mod.attr, mod.values);
          break;
      }
    }
    after = std::move(modified);
  }
  // An attribute no modification names kept its values, so its postings
  // stay as they are.
  std::set<std::string> touched;
  for (const Modification& mod : mods) {
    std::string attr = ldap::text::lower(mod.attr);
    if (indexes_.count(attr) > 0) touched.insert(std::move(attr));
  }
  for (const std::string& attr : touched) {
    ValueIndex& index = indexes_.at(attr);
    deindex_values(attr, index, *before);
    index_values(attr, index, *after);
  }
  it->second = after;
  return {before, after};
}

std::vector<Dit::Renamed> Dit::move(const Dn& dn, const Dn& new_dn) {
  if (!contains(dn)) {
    throw OperationError(ResultCode::NoSuchObject, dn.to_string());
  }
  if (contains(new_dn)) {
    throw OperationError(ResultCode::EntryAlreadyExists, new_dn.to_string());
  }
  if (!new_dn.is_root() && !contains(new_dn.parent()) &&
      !is_suffix_dn(new_dn)) {
    throw OperationError(ResultCode::NoSuchObject,
                         "new superior of '" + new_dn.to_string() +
                             "' not present");
  }
  if (dn.is_ancestor_or_self(new_dn)) {
    throw OperationError(ResultCode::NamingViolation,
                         "cannot move '" + dn.to_string() + "' under itself");
  }

  // Collect the subtree snapshots (parent first), then re-root them.
  std::vector<EntryPtr> old_entries;
  collect_subtree(dn, old_entries);
  std::vector<Renamed> renamed;
  renamed.reserve(old_entries.size());

  // Remove old keys (children first to satisfy the leaf-only invariant is
  // unnecessary here; we bypass remove() and edit the indexes directly).
  for (const EntryPtr& old_entry : old_entries) {
    deindex_entry(*old_entry);
    entries_.erase(old_entry->dn().norm_key());
    children_.erase(old_entry->dn().norm_key());
    const auto parent = children_.find(old_entry->dn().parent().norm_key());
    if (parent != children_.end()) {
      parent->second.erase(old_entry->dn().norm_key());
      if (parent->second.empty()) children_.erase(parent);
    }
  }
  for (const EntryPtr& old_entry : old_entries) {
    const Dn moved_dn = old_entry->dn().rebase(dn, new_dn);
    auto moved = std::make_shared<Entry>(*old_entry);
    moved->set_dn(moved_dn);
    // Keep the naming attribute of the renamed apex consistent with its RDN.
    if (old_entry->dn() == dn) {
      moved->set_values(moved_dn.leaf_rdn().type(), {moved_dn.leaf_rdn().value()});
    }
    index_entry(*moved);
    entries_[moved_dn.norm_key()] = moved;
    children_[moved_dn.parent().norm_key()].insert(moved_dn.norm_key());
    renamed.push_back({old_entry->dn(), moved_dn, moved, old_entry});
  }
  return renamed;
}

std::vector<EntryPtr> Dit::children(const Dn& dn) const {
  std::vector<EntryPtr> out;
  const auto it = children_.find(dn.norm_key());
  if (it == children_.end()) return out;
  out.reserve(it->second.size());
  for (const std::string& key : it->second) {
    out.push_back(entries_.at(key));
  }
  return out;
}

void Dit::collect_subtree(const Dn& base, std::vector<EntryPtr>& out) const {
  const EntryPtr entry = find(base);
  if (entry) out.push_back(entry);
  collect_below(base.norm_key(), out);
}

void Dit::collect_below(const std::string& base_key,
                        std::vector<EntryPtr>& out) const {
  const auto it = children_.find(base_key);
  if (it == children_.end()) return;
  for (const std::string& key : it->second) {
    out.push_back(entries_.at(key));
    collect_below(key, out);
  }
}

std::vector<EntryPtr> Dit::subtree(const Dn& base) const {
  std::vector<EntryPtr> out;
  collect_subtree(base, out);
  return out;
}

std::vector<EntryPtr> Dit::scoped(const Dn& base, ldap::Scope scope) const {
  switch (scope) {
    case ldap::Scope::Base: {
      const EntryPtr entry = find(base);
      return entry ? std::vector<EntryPtr>{entry} : std::vector<EntryPtr>{};
    }
    case ldap::Scope::OneLevel:
      return children(base);
    case ldap::Scope::Subtree:
      return subtree(base);
  }
  return {};
}

void Dit::for_each(const std::function<void(const EntryPtr&)>& fn) const {
  for (const auto& [key, entry] : entries_) fn(entry);
}

namespace {

/// Finds a predicate inside top-level AND nesting that can drive an indexed
/// candidate lookup: (attr=value) or a prefix substring (attr=p*...).
const ldap::Filter* find_indexable(const ldap::Filter& filter, const Dit& dit) {
  switch (filter.kind()) {
    case ldap::FilterKind::Equality:
      return dit.has_index(filter.attribute()) ? &filter : nullptr;
    case ldap::FilterKind::Substring:
      return dit.has_index(filter.attribute()) &&
                     !filter.substrings().initial.empty()
                 ? &filter
                 : nullptr;
    case ldap::FilterKind::And:
      for (const ldap::FilterPtr& child : filter.children()) {
        if (const ldap::Filter* found = find_indexable(*child, dit)) return found;
      }
      return nullptr;
    default:
      return nullptr;
  }
}

}  // namespace

void Dit::for_each_candidate(
    const ldap::Query& query,
    const std::function<void(const EntryPtr&)>& fn) const {
  if (query.scope == ldap::Scope::Base) {
    if (const EntryPtr entry = find(query.base)) fn(entry);
    return;
  }
  const ldap::Filter* indexable =
      query.filter ? find_indexable(*query.filter, *this) : nullptr;
  if (indexable) {
    if (indexable->kind() == ldap::FilterKind::Equality) {
      if (const std::vector<std::string>* keys =
              index_lookup(indexable->attribute(), indexable->value())) {
        for (const std::string& key : *keys) fn(entries_.at(key));
        return;
      }
    } else {
      // One entry can hold several values under the prefix.
      std::vector<std::string> keys = index_prefix_lookup(
          indexable->attribute(), indexable->substrings().initial);
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      for (const std::string& key : keys) fn(entries_.at(key));
      return;
    }
  }
  if (query.scope == ldap::Scope::OneLevel) {
    const auto it = children_.find(query.base.norm_key());
    if (it == children_.end()) return;  // nothing in the region
    for (const std::string& key : it->second) fn(entries_.at(key));
    return;
  }
  if (!query.base.is_root() && !is_suffix_dn(query.base)) {
    std::vector<EntryPtr> region;
    collect_subtree(query.base, region);
    std::sort(region.begin(), region.end(),
              [](const EntryPtr& a, const EntryPtr& b) {
                return a->dn().norm_key() < b->dn().norm_key();
              });
    for (const EntryPtr& entry : region) fn(entry);
    return;
  }
  for_each(fn);
}

namespace {

/// Sorted-unique posting-list maintenance (vectors beat node-based sets on
/// lookup-heavy index traffic: one allocation, contiguous scan).
void posting_insert(std::vector<std::string>& list, const std::string& key) {
  const auto it = std::lower_bound(list.begin(), list.end(), key);
  if (it == list.end() || *it != key) list.insert(it, key);
}

void posting_erase(std::vector<std::string>& list, const std::string& key) {
  const auto it = std::lower_bound(list.begin(), list.end(), key);
  if (it != list.end() && *it == key) list.erase(it);
}

}  // namespace

void Dit::add_index(std::string_view attr, const ldap::Schema& schema) {
  index_schema_ = &schema;
  auto [it, inserted] = indexes_.try_emplace(ldap::text::lower(attr));
  // Attribute names normalize by lowercasing; reuse the schema for that.
  if (!inserted) return;
  for (const auto& [key, entry] : entries_) {
    if (const std::vector<std::string>* values = entry->get(it->first)) {
      for (const std::string& value : *values) {
        posting_insert(it->second[schema.normalize(it->first, value)], key);
      }
    }
  }
}

bool Dit::has_index(std::string_view attr) const {
  return index_schema_ && indexes_.count(ldap::text::lower(attr)) > 0;
}

const std::vector<std::string>* Dit::index_lookup(std::string_view attr,
                                                  std::string_view value) const {
  if (!index_schema_) return nullptr;
  const auto index = indexes_.find(ldap::text::lower(attr));
  if (index == indexes_.end()) return nullptr;
  static const std::vector<std::string> kEmpty;
  const auto it = index->second.find(index_schema_->normalize(index->first, value));
  return it == index->second.end() ? &kEmpty : &it->second;
}

std::vector<std::string> Dit::index_prefix_lookup(std::string_view attr,
                                                  std::string_view prefix) const {
  std::vector<std::string> keys;
  if (!index_schema_) return keys;
  const auto index = indexes_.find(ldap::text::lower(attr));
  if (index == indexes_.end()) return keys;
  const std::string norm = index_schema_->normalize(index->first, prefix);
  for (auto it = index->second.lower_bound(norm); it != index->second.end();
       ++it) {
    if (it->first.compare(0, norm.size(), norm) != 0) break;
    keys.insert(keys.end(), it->second.begin(), it->second.end());
  }
  return keys;
}

void Dit::index_entry(const ldap::Entry& entry) {
  for (auto& [attr, index] : indexes_) index_values(attr, index, entry);
}

void Dit::deindex_entry(const ldap::Entry& entry) {
  for (auto& [attr, index] : indexes_) deindex_values(attr, index, entry);
}

void Dit::index_values(const std::string& attr, ValueIndex& index,
                       const ldap::Entry& entry) {
  if (const std::vector<std::string>* values = entry.get(attr)) {
    for (const std::string& value : *values) {
      posting_insert(index[index_schema_->normalize(attr, value)],
                     entry.dn().norm_key());
    }
  }
}

void Dit::deindex_values(const std::string& attr, ValueIndex& index,
                         const ldap::Entry& entry) {
  if (const std::vector<std::string>* values = entry.get(attr)) {
    for (const std::string& value : *values) {
      const auto it = index.find(index_schema_->normalize(attr, value));
      if (it == index.end()) continue;
      posting_erase(it->second, entry.dn().norm_key());
      if (it->second.empty()) index.erase(it);
    }
  }
}

}  // namespace fbdr::server
