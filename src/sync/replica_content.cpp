#include "sync/replica_content.h"

#include <set>

namespace fbdr::sync {

using ldap::Dn;
using ldap::EntryPtr;

void ReplicaContent::apply(const UpdateBatch& batch) {
  if (!batch.continued) {
    // First (or only) page of a logical batch: any unfinished paged
    // enumeration was aborted and its partial mentioned set is stale.
    enum_mentioned_.clear();
    enum_pending_ = false;
    if (batch.full_reload) {
      entries_.clear();
      digest_.clear();
    }
  }
  for (const EntryPtr& entry : batch.adds) {
    const std::string key = entry->dn().norm_key();
    entries_[key] = entry;
    digest_.upsert(key, *entry);
  }
  for (const EntryPtr& entry : batch.mods) {
    const std::string key = entry->dn().norm_key();
    entries_[key] = entry;
    digest_.upsert(key, *entry);
  }
  for (const Dn& dn : batch.deletes) {
    const std::string key = dn.norm_key();
    entries_.erase(key);
    digest_.erase(key);
  }
  if (batch.complete_enumeration) {
    // Equation (3): anything the enumeration did not mention has left the
    // content. Across a paged enumeration the mentioned set accumulates;
    // the drop waits for the final page.
    for (const EntryPtr& entry : batch.adds) {
      enum_mentioned_.insert(entry->dn().norm_key());
    }
    for (const EntryPtr& entry : batch.mods) {
      enum_mentioned_.insert(entry->dn().norm_key());
    }
    for (const Dn& dn : batch.retains) enum_mentioned_.insert(dn.norm_key());
    if (batch.more) {
      enum_pending_ = true;
    } else {
      for (auto it = entries_.begin(); it != entries_.end();) {
        if (enum_mentioned_.count(it->first) == 0) {
          digest_.erase(it->first);
          it = entries_.erase(it);
        } else {
          ++it;
        }
      }
      enum_mentioned_.clear();
      enum_pending_ = false;
    }
  }
}

bool ReplicaContent::contains(const Dn& dn) const {
  return entries_.count(dn.norm_key()) > 0;
}

EntryPtr ReplicaContent::find(const Dn& dn) const {
  const auto it = entries_.find(dn.norm_key());
  return it == entries_.end() ? nullptr : it->second;
}

std::vector<std::string> ReplicaContent::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(key);
  return out;
}

std::vector<EntryPtr> ReplicaContent::entries() const {
  std::vector<EntryPtr> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(entry);
  return out;
}

std::vector<EntryFingerprint> ReplicaContent::fingerprints_for(
    const std::vector<std::uint32_t>& buckets) const {
  std::set<std::uint32_t> wanted(buckets.begin(), buckets.end());
  std::vector<EntryFingerprint> out;
  for (const auto& [key, entry] : entries_) {
    if (wanted.count(ContentDigest::bucket_of(key)) == 0) continue;
    out.push_back({entry->dn(), digest_.hash_of(key)});
  }
  return out;
}

}  // namespace fbdr::sync
