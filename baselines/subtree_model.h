#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ldap/dn.h"
#include "net/stats.h"
#include "replica/filter_replica.h"
#include "server/directory_server.h"
#include "server/endpoint.h"

// The subtree replication model the paper compares filter replicas against:
// the isContained test (§3.4.1), a replica of whole naming-context subtrees,
// its search endpoint, and the site that ships every change inside its
// subtrees (the subtree series of Figs. 6 and 7).

namespace fbdr::containment {

/// A subtree replication context (paper §2.3): a naming-context suffix plus
/// the DNs of its referral objects, which mark where subordinate naming
/// contexts (held by other servers) begin.
struct ReplicationContext {
  ldap::Dn suffix;
  std::vector<ldap::Dn> referrals;

  std::string to_string() const;
};

/// Paper §3.4.1, algorithm isContained(b, C): whether a query with base `b`
/// can be answered (fully or partially) by a subtree replica holding the
/// replication contexts `contexts`. The base must lie inside some context and
/// not under any of that context's referral cut-points.
bool subtree_is_contained(const ldap::Dn& base,
                          const std::vector<ReplicationContext>& contexts);

}  // namespace fbdr::containment

namespace fbdr::replica {

/// The subtree-based replication model (§3): the replica holds one or more
/// replication contexts and stores every entry of those subtrees. A query
/// contributes to the hit ratio iff its base passes isContained.
class SubtreeReplica {
 public:
  /// Adds a replication context. Call load_content() afterwards to populate
  /// entry storage from the master.
  void add_context(containment::ReplicationContext context) {
    contexts_.push_back(std::move(context));
  }

  /// Copies every entry of the configured contexts from the master DIT
  /// (minus regions under referral cut-points).
  void load_content(const server::DirectoryServer& master);

  /// Decides whether the replica can completely answer `query`.
  Decision handle(const ldap::Query& query);

  std::size_t stored_entries() const noexcept { return entries_.size(); }
  const std::vector<ldap::EntryPtr>& entries() const noexcept { return entries_; }

  /// True when a master change at `dn` falls inside the replicated contexts
  /// (and therefore costs update traffic).
  bool covers(const ldap::Dn& dn) const {
    return containment::subtree_is_contained(dn, contexts_);
  }

  const ReplicaStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  std::vector<containment::ReplicationContext> contexts_;
  std::vector<ldap::EntryPtr> entries_;
  ReplicaStats stats_;
};

/// A subtree replica exposed as a search endpoint: queries whose base passes
/// isContained are served from the replicated subtrees; the rest are
/// referred to the master. The counterpart of FilterReplicaEndpoint behind
/// the same client.
class SubtreeReplicaEndpoint : public server::SearchEndpoint {
 public:
  SubtreeReplicaEndpoint(std::string url, std::string master_url,
                         SubtreeReplica& replica)
      : url_(std::move(url)),
        master_url_(std::move(master_url)),
        replica_(&replica) {}

  const std::string& url() const override { return url_; }
  server::SearchResult process_search(const ldap::Query& query) override;

 private:
  std::string url_;
  std::string master_url_;
  SubtreeReplica* replica_;
};

}  // namespace fbdr::replica

namespace fbdr::core {

/// The subtree replication site: a SubtreeReplica over the configured
/// contexts, answering with handle(), whose sync() ships every master
/// change inside them.
class SubtreeReplicationService : public replica::SubtreeReplica {
 public:
  explicit SubtreeReplicationService(
      std::shared_ptr<server::DirectoryServer> master)
      : master_(std::move(master)), shipped_(master_->journal()) {}

  /// Loads the configured contexts from the master (initial fill is not
  /// counted as update traffic, mirroring the filter service).
  void load();

  /// Ships every journaled change inside the contexts since the last sync.
  void sync();

  const net::TrafficStats& traffic() const noexcept { return traffic_; }

 private:
  std::shared_ptr<server::DirectoryServer> master_;
  net::TrafficStats traffic_;
  server::ChangeJournal::Reader shipped_;  // last change shipped
};

}  // namespace fbdr::core
