#pragma once

#include <vector>

#include "containment/subtree.h"
#include "replica/replica.h"
#include "server/directory_server.h"

namespace fbdr::replica {

/// The subtree-based replication model (§3): the replica holds one or more
/// replication contexts (suffix + referral cut-points) and stores every
/// entry of those subtrees. A query contributes to the hit ratio iff its
/// base lies inside a held context and not under a referral cut-point
/// (algorithm isContained, §3.4.1).
class SubtreeReplica : public Replica {
 public:
  /// Adds a replication context. Call load_content() afterwards to populate
  /// entry storage from the master.
  void add_context(containment::ReplicationContext context);

  const std::vector<containment::ReplicationContext>& contexts() const noexcept {
    return contexts_;
  }

  /// Copies every entry of the configured contexts from the master DIT
  /// (minus regions under referral cut-points).
  void load_content(const server::DirectoryServer& master);

  Decision handle(const ldap::Query& query) override;
  std::size_t stored_entries() const override { return entries_.size(); }
  std::string model_name() const override { return "subtree"; }

  /// Entries the replica holds (for serving and for update-traffic
  /// accounting: every master change inside a context must be shipped).
  const std::vector<ldap::EntryPtr>& entries() const noexcept { return entries_; }

  /// True when a master change at `dn` falls inside the replicated contexts
  /// (and therefore costs update traffic).
  bool covers(const ldap::Dn& dn) const;

 private:
  std::vector<containment::ReplicationContext> contexts_;
  std::vector<ldap::EntryPtr> entries_;
};

}  // namespace fbdr::replica
