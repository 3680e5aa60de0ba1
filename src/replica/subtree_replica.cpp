#include "replica/subtree_replica.h"

namespace fbdr::replica {

using containment::ReplicationContext;
using ldap::Dn;
using ldap::EntryPtr;

void SubtreeReplica::add_context(ReplicationContext context) {
  contexts_.push_back(std::move(context));
}

bool SubtreeReplica::covers(const Dn& dn) const {
  return containment::subtree_is_contained(dn, contexts_);
}

void SubtreeReplica::load_content(const server::DirectoryServer& master) {
  entries_.clear();
  master.dit().for_each([&](const EntryPtr& entry) {
    if (covers(entry->dn())) entries_.push_back(entry);
  });
}

Decision SubtreeReplica::handle(const ldap::Query& query) {
  ++stats_.queries;
  ++stats_.containment_checks;  // one isContained evaluation
  Decision decision;
  if (containment::subtree_is_contained(query.base, contexts_)) {
    decision.hit = true;
    for (const ReplicationContext& context : contexts_) {
      if (context.suffix.is_ancestor_or_self(query.base)) {
        decision.answered_by = context.to_string();
        break;
      }
    }
    ++stats_.hits;
  } else {
    ++stats_.referrals;
  }
  return decision;
}

}  // namespace fbdr::replica
