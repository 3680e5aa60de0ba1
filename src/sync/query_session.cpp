#include "sync/query_session.h"

#include <set>

#include "ldap/error.h"

namespace fbdr::sync {

using ldap::Dn;
using ldap::EntryPtr;

QuerySession::QuerySession(ldap::Query query, const ldap::Schema& schema)
    : tracker_(std::move(query), schema) {}

UpdateBatch QuerySession::initial(const server::Dit& dit) {
  // One DIT scan: the tracker's content is the initial batch, already in
  // norm-key order (the Dit's own iteration order).
  prepare(dit);
  return full_content_batch();
}

void QuerySession::prepare(const server::Dit& dit) {
  tracker_.initialize(dit);
  pending_.clear();
  touched_.clear();
  acked_.clear();
  degraded_ = false;
  full_bodies_ = false;
  initialized_ = true;
}

void QuerySession::ack_content() {
  acked_.clear();
  for (const auto& [key, entry] : tracker_.content()) {
    acked_.emplace(key, entry->dn());
  }
}

UpdateBatch QuerySession::full_content_batch() {
  UpdateBatch batch;
  batch.full_reload = true;
  for (const auto& [key, entry] : tracker_.content()) {
    batch.adds.push_back(entry);
  }
  ack_content();
  return batch;
}

UpdateBatch QuerySession::diff_batch(
    const std::vector<EntryFingerprint>& fingerprints,
    const std::vector<std::uint32_t>& buckets) {
  std::set<std::uint32_t> wanted(buckets.begin(), buckets.end());
  std::map<std::string, const EntryFingerprint*> offered;
  for (const EntryFingerprint& fp : fingerprints) {
    offered[fp.dn.norm_key()] = &fp;
  }
  UpdateBatch batch;
  for (const auto& [key, entry] : tracker_.content()) {
    if (wanted.count(ContentDigest::bucket_of(key)) == 0) continue;
    const auto it = offered.find(key);
    if (it != offered.end() &&
        it->second->hash == tracker_.digest().hash_of(key)) {
      offered.erase(it);  // identical on both sides
      continue;
    }
    batch.adds.push_back(entry);  // missing or mismatched replica-side
    if (it != offered.end()) offered.erase(it);
  }
  for (const auto& [key, fp] : offered) {
    batch.deletes.push_back(fp->dn);  // replica holds it, content does not
  }
  ack_content();
  return batch;
}

std::vector<ContentEvent> QuerySession::on_change(
    const server::ChangeRecord& record) {
  std::vector<ContentEvent> events = tracker_.on_change(record);
  note_events(events);
  return events;
}

void QuerySession::note_events(const std::vector<ContentEvent>& events) {
  if (full_bodies_) return;  // collapsed: the next poll enumerates everything
  if (degraded_) {
    for (const ContentEvent& event : events) {
      touched_.insert(event.dn.norm_key());
    }
    return;
  }
  pending_.insert(pending_.end(), events.begin(), events.end());
}

void QuerySession::degrade() {
  if (degraded_) return;
  degraded_ = true;
  for (const ContentEvent& event : pending_) {
    touched_.insert(event.dn.norm_key());
  }
  pending_.clear();
  pending_.shrink_to_fit();
}

void QuerySession::collapse_history() {
  degraded_ = true;
  full_bodies_ = true;
  pending_.clear();
  pending_.shrink_to_fit();
  touched_.clear();
}

UpdateBatch QuerySession::poll() {
  if (!initialized_) {
    throw ldap::ProtocolError("poll() before initial()");
  }
  // A degraded session has no event history to compact — only the retain
  // path can answer it exactly.
  if (degraded_) return poll_with_retains();
  // Compact pending events per DN: the final state decides the action.
  struct Final {
    bool in_content = false;
    EntryPtr entry;
    Dn dn;
  };
  std::map<std::string, Final> finals;
  for (const ContentEvent& event : pending_) {
    Final& f = finals[event.dn.norm_key()];
    f.dn = event.dn;
    f.in_content = event.transition != Transition::Leave;
    f.entry = event.entry;
  }
  pending_.clear();

  UpdateBatch batch;
  for (const auto& [key, f] : finals) {
    const bool known = acked_.count(key) > 0;
    if (f.in_content) {
      if (known) {
        batch.mods.push_back(f.entry);
      } else {
        batch.adds.push_back(f.entry);
        acked_.emplace(key, f.dn);
      }
    } else if (known) {
      batch.deletes.push_back(f.dn);
      acked_.erase(key);
    }
    // entered and left between polls: nothing to send.
  }
  return batch;
}

UpdateBatch QuerySession::poll_with_retains() {
  if (!initialized_) {
    throw ldap::ProtocolError("poll_with_retains() before initial()");
  }
  // Equation (3): enumerate the entire current content. Entries touched by a
  // pending event (or recorded in the degraded touched set) are shipped in
  // full; the rest are retained by DN — unless the history collapsed
  // entirely, in which case every entry ships in full.
  std::set<std::string> touched = std::move(touched_);
  touched_.clear();
  for (const ContentEvent& event : pending_) {
    touched.insert(event.dn.norm_key());
  }
  pending_.clear();

  UpdateBatch batch;
  batch.complete_enumeration = true;
  std::map<std::string, Dn> new_acked;
  for (const auto& [key, entry] : tracker_.content()) {
    const bool known = acked_.count(key) > 0;
    if (!known) {
      batch.adds.push_back(entry);  // E01
    } else if (full_bodies_ || touched.count(key) > 0) {
      batch.mods.push_back(entry);  // E11 (or unknown-change under collapse)
    } else {
      batch.retains.push_back(entry->dn());  // Eun
    }
    new_acked.emplace(key, entry->dn());
  }
  acked_ = std::move(new_acked);
  // The enumeration re-established the replica's exact view: the session can
  // resume complete-history tracking (heal).
  degraded_ = false;
  full_bodies_ = false;
  return batch;
}

UpdateBatch QuerySession::snapshot_enumeration() const {
  UpdateBatch batch;
  batch.complete_enumeration = true;
  for (const auto& [key, entry] : tracker_.content()) {
    batch.adds.push_back(entry);  // upserted replica-side whether known or not
  }
  return batch;
}

std::vector<ContentEvent> QuerySession::rebase(const server::Dit& dit) {
  if (!initialized_) return {};
  std::map<std::string, ldap::EntryPtr> old_content = tracker_.content();
  tracker_.initialize(dit);

  std::vector<ContentEvent> events;
  for (const auto& [key, entry] : tracker_.content()) {
    auto it = old_content.find(key);
    if (it == old_content.end()) {
      events.push_back({0, Transition::Enter, entry->dn(), entry});
    } else {
      if (!(*it->second == *entry)) {
        events.push_back({0, Transition::Update, entry->dn(), entry});
      }
      old_content.erase(it);
    }
  }
  for (const auto& [key, entry] : old_content) {
    events.push_back({0, Transition::Leave, entry->dn(), nullptr});
  }
  note_events(events);
  return events;
}

}  // namespace fbdr::sync
