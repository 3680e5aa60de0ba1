#pragma once

#include <memory>
#include <string>

#include "ldap/compiled_filter.h"
#include "replica/subtree_replica.h"
#include "server/endpoint.h"

namespace fbdr::replica {

/// A subtree-based replica exposed as a search endpoint: queries whose base
/// passes the isContained test (§3.4.1) are served from the replicated
/// subtrees; the rest are referred to the master. The deployment counterpart
/// of FilterReplicaEndpoint, used to compare the two models behind the same
/// client.
class SubtreeReplicaEndpoint : public server::SearchEndpoint {
 public:
  SubtreeReplicaEndpoint(std::string url, std::string master_url,
                         SubtreeReplica& replica)
      : url_(std::move(url)),
        master_url_(std::move(master_url)),
        replica_(&replica) {}

  const std::string& url() const override { return url_; }

  server::SearchResult process_search(const ldap::Query& query) override {
    server::SearchResult result;
    if (replica_->handle(query).hit) {
      result.base_resolved = true;
      const ldap::CompiledFilter filter = ldap::CompiledFilter::compile(
          query.filter, ldap::Schema::default_instance());
      for (const ldap::EntryPtr& entry : replica_->entries()) {
        if (!query.region_covers(entry->dn())) continue;
        if (!filter.matches(*entry)) continue;
        result.entries.push_back(server::project(entry, query.attrs));
      }
    } else {
      result.referrals.push_back({master_url_, query.base, query.scope});
    }
    return result;
  }

 private:
  std::string url_;
  std::string master_url_;
  SubtreeReplica* replica_;
};

}  // namespace fbdr::replica
