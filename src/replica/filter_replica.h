#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "containment/engine.h"
#include "server/directory_server.h"

namespace fbdr::replica {

/// Outcome of presenting one client query to a replica.
struct Decision {
  bool hit = false;          // answered locally, no referral generated
  std::string answered_by;   // which replication unit answered (diagnostics)
};

/// Hit/miss statistics (§3.1: hit-ratio is "the fraction of client requests
/// which can be completely answered (without generating referrals) by the
/// replica").
struct ReplicaStats {
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t referrals = 0;
  std::uint64_t containment_checks = 0;  // query-processing overhead (§7.4)

  double hit_ratio() const {
    return queries == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(queries);
  }
};

/// The filter-based replication model proposed by the paper (§3): the
/// replica stores entries satisfying one or more LDAP queries plus, per
/// replicated query, meta information (the search specification). An
/// incoming query is a hit iff it is semantically contained in a stored
/// query (generalized filter) or in a recently cached user query.
///
/// Containment checks go through a template-aware ContainmentEngine
/// (Propositions 1-3); stored entries are pooled with reference counts so
/// overlapping queries do not double-count replica size.
class FilterReplica {
 public:
  explicit FilterReplica(
      const ldap::Schema& schema = ldap::Schema::default_instance(),
      std::shared_ptr<ldap::TemplateRegistry> registry = nullptr);

  containment::ContainmentEngine& engine() noexcept { return engine_; }

  // --- stored (generalized) queries ---

  /// Adds a replicated query; returns its id. `estimated_entries` seeds the
  /// size accounting when content is not materialized. Queries whose
  /// canonical key (Query::key) equals an active stored query's are
  /// deduplicated: the existing id is returned and no new slot is consumed,
  /// so spelling variants of one query never double-store content.
  std::size_t add_query(const ldap::Query& query, std::size_t estimated_entries = 0);

  /// Removes a stored query and releases its pooled entries.
  void remove_query(std::size_t id);

  /// Loads the query's content from the master (materialized storage).
  void load_content(std::size_t id, const server::DirectoryServer& master);

  /// Replaces the content of a stored query (sync delivery path).
  void set_content(std::size_t id, const std::vector<ldap::EntryPtr>& entries);

  std::size_t query_count() const;  // stored queries (excluding cache)
  const ldap::Query& query_at(std::size_t id) const;

  /// Entries currently held for one stored query.
  std::vector<ldap::EntryPtr> query_content(std::size_t id) const;

  // --- cached user queries (temporal locality, §7.4) ---

  /// Sets the window size for cached user queries (0 disables caching).
  void set_query_cache_window(std::size_t window);

  /// Caches a user query (with its result entries) after a miss was served
  /// by the master. Evicts the oldest cached query beyond the window.
  void cache_user_query(const ldap::Query& query,
                        const std::vector<ldap::EntryPtr>& result);

  std::size_t cached_query_count() const noexcept { return cache_.size(); }

  /// Total stored filters: replicated queries + cached user queries (the
  /// x-axis of Figs. 8-9).
  std::size_t stored_filter_count() const { return query_count() + cache_.size(); }

  /// Decides whether the replica can completely answer `query`.
  Decision handle(const ldap::Query& query);

  /// Entries currently stored.
  std::size_t stored_entries() const;

  const ReplicaStats& stats() const noexcept { return stats_; }

  /// Entry lookup (serving path).
  bool holds_entry(const ldap::Dn& dn) const;

  /// Serves a query from the pooled content: every stored entry in the
  /// query's region matching its filter, attributes projected per the
  /// query's selection. When handle(query).hit is true, the containment
  /// guarantee makes this the *complete* answer (equal to evaluating the
  /// query at the master).
  std::vector<ldap::EntryPtr> answer(const ldap::Query& query) const;

 private:
  struct StoredQuery {
    ldap::Query query;
    std::optional<ldap::BoundTemplate> binding;
    std::vector<std::string> content_keys;  // pooled entry keys
    std::size_t estimated_entries = 0;
    bool active = false;
  };

  struct CachedQuery {
    ldap::Query query;
    std::optional<ldap::BoundTemplate> binding;
    std::vector<std::string> content_keys;
  };

  void pool_add(const ldap::EntryPtr& entry, std::vector<std::string>& keys);
  void pool_release(const std::vector<std::string>& keys);

  const ldap::Schema* schema_;
  containment::ContainmentEngine engine_;
  std::vector<StoredQuery> stored_;
  std::deque<CachedQuery> cache_;
  std::size_t cache_window_ = 0;
  std::map<std::string, std::pair<ldap::EntryPtr, std::uint32_t>> pool_;
  ReplicaStats stats_;
};

}  // namespace fbdr::replica
