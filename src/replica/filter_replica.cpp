#include "replica/filter_replica.h"

#include "ldap/compiled_filter.h"
#include "ldap/error.h"
#include "ldap/filter_ir.h"
#include "sync/content_tracker.h"

namespace fbdr::replica {

using ldap::Dn;
using ldap::EntryPtr;
using ldap::Query;

FilterReplica::FilterReplica(const ldap::Schema& schema,
                             std::shared_ptr<ldap::TemplateRegistry> registry)
    : schema_(&schema), engine_(schema, std::move(registry)) {}

void FilterReplica::pool_add(const EntryPtr& entry, std::vector<std::string>& keys) {
  const std::string& key = entry->dn().norm_key();
  auto [it, inserted] = pool_.try_emplace(key, entry, 0u);
  ++it->second.second;
  if (!inserted) it->second.first = entry;  // refresh snapshot
  keys.push_back(key);
}

void FilterReplica::pool_release(const std::vector<std::string>& keys) {
  for (const std::string& key : keys) {
    const auto it = pool_.find(key);
    if (it == pool_.end()) continue;
    if (--it->second.second == 0) pool_.erase(it);
  }
}

std::size_t FilterReplica::add_query(const Query& query,
                                     std::size_t estimated_entries) {
  // Canonical-key dedup: spelling variants (child order, duplicates, value
  // case) of an already stored query map to the same key and reuse its slot.
  const std::string key = query.key();
  for (std::size_t i = 0; i < stored_.size(); ++i) {
    if (stored_[i].active && stored_[i].query.key() == key) return i;
  }
  StoredQuery stored;
  stored.query = query;
  stored.binding = query.filter ? engine_.bind(*query.filter) : std::nullopt;
  stored.estimated_entries = estimated_entries;
  stored.active = true;
  // Reuse a free slot if any.
  for (std::size_t i = 0; i < stored_.size(); ++i) {
    if (!stored_[i].active) {
      stored_[i] = std::move(stored);
      return i;
    }
  }
  stored_.push_back(std::move(stored));
  return stored_.size() - 1;
}

void FilterReplica::remove_query(std::size_t id) {
  StoredQuery& stored = stored_.at(id);
  if (!stored.active) return;
  pool_release(stored.content_keys);
  stored = StoredQuery{};
}

void FilterReplica::load_content(std::size_t id,
                                 const server::DirectoryServer& master) {
  StoredQuery& stored = stored_.at(id);
  if (!stored.active) {
    throw ldap::ProtocolError("load_content on removed query");
  }
  pool_release(stored.content_keys);
  stored.content_keys.clear();
  for (const EntryPtr& entry : master.evaluate(stored.query)) {
    pool_add(entry, stored.content_keys);
  }
  stored.estimated_entries = stored.content_keys.size();
}

void FilterReplica::set_content(std::size_t id,
                                const std::vector<EntryPtr>& entries) {
  StoredQuery& stored = stored_.at(id);
  if (!stored.active) {
    throw ldap::ProtocolError("set_content on removed query");
  }
  pool_release(stored.content_keys);
  stored.content_keys.clear();
  for (const EntryPtr& entry : entries) pool_add(entry, stored.content_keys);
  stored.estimated_entries = stored.content_keys.size();
}

std::size_t FilterReplica::query_count() const {
  std::size_t count = 0;
  for (const StoredQuery& stored : stored_) {
    if (stored.active) ++count;
  }
  return count;
}

std::vector<EntryPtr> FilterReplica::query_content(std::size_t id) const {
  const StoredQuery& stored = stored_.at(id);
  if (!stored.active) {
    throw ldap::ProtocolError("query_content on removed query");
  }
  std::vector<EntryPtr> out;
  out.reserve(stored.content_keys.size());
  for (const std::string& key : stored.content_keys) {
    const auto it = pool_.find(key);
    if (it != pool_.end()) out.push_back(it->second.first);
  }
  return out;
}

const Query& FilterReplica::query_at(std::size_t id) const {
  const StoredQuery& stored = stored_.at(id);
  if (!stored.active) {
    throw ldap::ProtocolError("query_at on removed query");
  }
  return stored.query;
}

void FilterReplica::set_query_cache_window(std::size_t window) {
  cache_window_ = window;
  while (cache_.size() > cache_window_) {
    pool_release(cache_.front().content_keys);
    cache_.pop_front();
  }
}

void FilterReplica::cache_user_query(const Query& query,
                                     const std::vector<EntryPtr>& result) {
  if (cache_window_ == 0) return;
  CachedQuery cached;
  cached.query = query;
  cached.binding = query.filter ? engine_.bind(*query.filter) : std::nullopt;
  for (const EntryPtr& entry : result) pool_add(entry, cached.content_keys);
  cache_.push_back(std::move(cached));
  while (cache_.size() > cache_window_) {
    pool_release(cache_.front().content_keys);
    cache_.pop_front();
  }
}

Decision FilterReplica::handle(const Query& raw_query) {
  ++stats_.queries;
  Decision decision;
  // Canonicalize the incoming filter (interned IR round trip: flattening,
  // child sorting, dedup, double-negation) so differently spelled but
  // structurally equal queries unify with templates and cached queries.
  Query query = raw_query;
  if (query.filter) {
    query.filter =
        ldap::FilterInterner::for_schema(*schema_).intern(query.filter)->to_filter();
  }
  const auto binding = query.filter ? engine_.bind(*query.filter) : std::nullopt;
  const std::uint64_t checks_before = engine_.stats().checks;

  // Most-recent cached user queries first (temporal locality).
  for (auto it = cache_.rbegin(); it != cache_.rend() && !decision.hit; ++it) {
    if (engine_.query_contained(query, binding, it->query, it->binding)) {
      decision.hit = true;
      decision.answered_by = "cache:" + it->query.to_string();
    }
  }
  // Then the replicated generalized queries.
  if (!decision.hit) {
    for (const StoredQuery& stored : stored_) {
      if (!stored.active) continue;
      if (engine_.query_contained(query, binding, stored.query, stored.binding)) {
        decision.hit = true;
        decision.answered_by = stored.query.to_string();
        break;
      }
    }
  }
  stats_.containment_checks += engine_.stats().checks - checks_before;
  if (decision.hit) {
    ++stats_.hits;
  } else {
    ++stats_.referrals;
  }
  return decision;
}

std::size_t FilterReplica::stored_entries() const {
  if (!pool_.empty()) return pool_.size();
  // Unmaterialized accounting: sum of per-query estimates.
  std::size_t total = 0;
  for (const StoredQuery& stored : stored_) {
    if (stored.active) total += stored.estimated_entries;
  }
  return total;
}

bool FilterReplica::holds_entry(const Dn& dn) const {
  return pool_.count(dn.norm_key()) > 0;
}

std::vector<EntryPtr> FilterReplica::answer(const Query& query) const {
  std::vector<EntryPtr> out;
  // Compile once per answered query instead of walking the AST per entry.
  const ldap::CompiledFilter compiled =
      ldap::CompiledFilter::compile(query.filter, *schema_);
  for (const auto& [key, entry_ref] : pool_) {
    const EntryPtr& entry = entry_ref.first;
    if (!query.region_covers(entry->dn())) continue;
    if (!compiled.matches(*entry)) continue;
    out.push_back(server::project(entry, query.attrs));
  }
  return out;
}

}  // namespace fbdr::replica
