#include "subtree_model.h"

#include "ldap/compiled_filter.h"

namespace fbdr::containment {

std::string ReplicationContext::to_string() const {
  std::string out = "suffix='" + suffix.to_string() + "'";
  for (const ldap::Dn& r : referrals) {
    out += " referral='" + r.to_string() + "'";
  }
  return out;
}

bool subtree_is_contained(const ldap::Dn& base,
                          const std::vector<ReplicationContext>& contexts) {
  // Direct transcription of the paper's algorithm. For each context Ci with
  // suffix Si and referrals Rj: the base is contained when Si = b, or Si is
  // an ancestor of b and no referral Rj is b or an ancestor of b.
  for (const ReplicationContext& context : contexts) {
    if (context.suffix == base) return true;
    if (!is_suffix(context.suffix, base)) continue;
    bool cut_off = false;
    for (const ldap::Dn& referral : context.referrals) {
      cut_off = cut_off || referral == base || is_suffix(referral, base);
    }
    if (!cut_off) return true;
  }
  return false;
}

}  // namespace fbdr::containment

namespace fbdr::replica {

void SubtreeReplica::load_content(const server::DirectoryServer& master) {
  entries_.clear();
  master.dit().for_each([&](const ldap::EntryPtr& entry) {
    if (covers(entry->dn())) entries_.push_back(entry);
  });
}

Decision SubtreeReplica::handle(const ldap::Query& query) {
  ++stats_.queries;
  ++stats_.containment_checks;  // one isContained evaluation
  Decision decision;
  decision.hit = containment::subtree_is_contained(query.base, contexts_);
  if (!decision.hit) {
    ++stats_.referrals;
    return decision;
  }
  ++stats_.hits;
  for (const containment::ReplicationContext& context : contexts_) {
    if (context.suffix.is_ancestor_or_self(query.base)) {
      decision.answered_by = context.to_string();
      break;
    }
  }
  return decision;
}

server::SearchResult SubtreeReplicaEndpoint::process_search(
    const ldap::Query& query) {
  server::SearchResult result;
  if (!replica_->handle(query).hit) {
    result.referrals.push_back({master_url_, query.base, query.scope});
    return result;
  }
  result.base_resolved = true;
  const ldap::CompiledFilter filter = ldap::CompiledFilter::compile(
      query.filter, ldap::Schema::default_instance());
  for (const ldap::EntryPtr& entry : replica_->entries()) {
    if (query.region_covers(entry->dn()) && filter.matches(*entry)) {
      result.entries.push_back(server::project(entry, query.attrs));
    }
  }
  return result;
}

}  // namespace fbdr::replica

namespace fbdr::core {

void SubtreeReplicationService::load() {
  load_content(*master_);
  shipped_.advance(master_->journal().last_seq());
}

void SubtreeReplicationService::sync() {
  if (shipped_.behind()) {
    // Journal compaction dropped changes this replica never shipped: the
    // per-change stream cannot be reconstructed, so reload the configured
    // contexts wholesale (the subtree analogue of the eq.(3) heal).
    load();
    traffic_.count_round_trip();
    return;
  }
  const std::vector<const server::ChangeRecord*> records = shipped_.pending();
  for (const server::ChangeRecord* record : records) {
    // Every change inside a replicated subtree must be shipped: full entry
    // for add/modify, DN for delete; a rename ships delete + add.
    const bool renamed = record->type == server::ChangeType::ModifyDn;
    if ((renamed || record->type == server::ChangeType::Delete) &&
        covers(record->dn)) {
      traffic_.note_dn();
    }
    if (record->type != server::ChangeType::Delete && record->after &&
        covers(renamed ? record->new_dn : record->dn)) {
      traffic_.note_entry();
    }
  }
  if (!records.empty()) shipped_.advance(records.back()->seq);
  // The shipped changes keep the replica's copy current; answerability
  // depends only on the configured contexts, so no rescan is needed.
  traffic_.count_round_trip();
}

}  // namespace fbdr::core
