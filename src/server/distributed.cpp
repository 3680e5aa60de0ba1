#include "server/distributed.h"

#include <deque>

#include "ldap/error.h"

namespace fbdr::server {

using ldap::EntryPtr;
using ldap::Query;

void ServerMap::add(std::shared_ptr<SearchEndpoint> endpoint) {
  const std::string url = endpoint->url();
  servers_[url] = std::move(endpoint);
}

SearchEndpoint* ServerMap::find(const std::string& url) const {
  const auto it = servers_.find(url);
  return it == servers_.end() ? nullptr : it->second.get();
}

SearchResult DistributedClient::request(const std::string& url,
                                        const Query& query) {
  SearchEndpoint* endpoint = servers_->find(url);
  if (!endpoint) {
    throw ldap::ProtocolError("no server at '" + url + "'");
  }
  stats_.count_round_trip();
  SearchResult result = endpoint->process_search(query);
  for (std::size_t i = 0; i < result.entries.size(); ++i) {
    stats_.note_entry();
  }
  for (std::size_t i = 0; i < result.referrals.size(); ++i) {
    stats_.note_referral();
  }
  return result;
}

std::vector<EntryPtr> DistributedClient::search(const std::string& start_url,
                                                const Query& query) {
  std::vector<EntryPtr> entries;
  struct Pending {
    std::string url;
    Query query;
  };
  std::deque<Pending> pending;
  pending.push_back({start_url, query});
  std::size_t hops = 0;

  while (!pending.empty()) {
    if (++hops > max_hops_) {
      throw ldap::ProtocolError("referral hop limit exceeded");
    }
    const Pending current = std::move(pending.front());
    pending.pop_front();
    const SearchResult result = request(current.url, current.query);
    entries.insert(entries.end(), result.entries.begin(), result.entries.end());
    for (const ReferralHint& hint : result.referrals) {
      Query continuation = current.query;
      if (result.base_resolved) {
        // Subordinate referral: continue with the referral point as base.
        continuation.base = hint.base;
        continuation.scope = hint.scope;
      }
      // Default referral: re-send the original request to the superior.
      pending.push_back({hint.url, std::move(continuation)});
    }
  }
  return entries;
}

}  // namespace fbdr::server
