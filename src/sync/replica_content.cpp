#include "sync/replica_content.h"

#include <set>

namespace fbdr::sync {

using ldap::Dn;
using ldap::EntryPtr;

void ReplicaContent::apply(const UpdateBatch& batch) {
  if (batch.full_reload) entries_.clear();
  for (const auto* bodies : {&batch.adds, &batch.mods}) {
    for (const EntryPtr& entry : *bodies) {
      entries_[entry->dn().norm_key()] = entry;
    }
  }
  for (const Dn& dn : batch.deletes) entries_.erase(dn.norm_key());
  if (!batch.complete_enumeration) return;
  // Equation (3): anything the enumeration did not mention has left the
  // content.
  std::set<std::string> mentioned;
  for (const auto* bodies : {&batch.adds, &batch.mods}) {
    for (const EntryPtr& entry : *bodies) {
      mentioned.insert(entry->dn().norm_key());
    }
  }
  for (const Dn& dn : batch.retains) mentioned.insert(dn.norm_key());
  std::erase_if(entries_, [&mentioned](const auto& item) {
    return mentioned.count(item.first) == 0;
  });
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

}  // namespace fbdr::sync
