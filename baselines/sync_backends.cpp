#include "sync_backends.h"

#include <map>
#include <set>

#include "ldap/error.h"

namespace fbdr::sync {

using ldap::Dn;
using ldap::EntryPtr;
using server::ChangeRecord;
using server::ChangeType;

namespace {

UpdateBatch make_initial(const server::DirectoryServer& master,
                         const ContentTracker& tracker) {
  UpdateBatch batch;
  batch.full_reload = true;
  master.dit().for_each([&](const EntryPtr& entry) {
    if (tracker.matches_query(*entry)) batch.adds.push_back(entry);
  });
  return batch;
}

/// Normalized DNs that some record touched through a filter attribute: every
/// add, delete and rename, and the modifies that change an attribute the
/// filter names (the changelog's extra information over tombstones).
std::set<std::string> filter_touched(
    const std::vector<const ChangeRecord*>& records, const ldap::Query& query) {
  std::set<std::string> filter_attrs;
  if (query.filter) {
    query.filter->for_each_predicate(
        [&](const ldap::Filter& p) { filter_attrs.insert(p.attribute()); });
  }
  std::set<std::string> touched;
  for (const ChangeRecord* record : records) {
    bool touches = record->type != ChangeType::Modify;
    for (const server::Modification& mod : record->mods) {
      touches = touches || filter_attrs.count(mod.attr) > 0;
    }
    if (touches) touched.insert(record->dn.norm_key());
    if (record->type == ChangeType::ModifyDn) {
      touched.insert(record->new_dn.norm_key());
    }
  }
  return touched;
}

}  // namespace

// --- SessionHistoryBackend ---

std::size_t SessionHistoryBackend::register_query(const ldap::Query& query) {
  sessions_.push_back(std::make_unique<QuerySession>(query));
  return sessions_.size() - 1;
}

QuerySession& SessionHistoryBackend::registered(std::size_t id) const {
  const std::unique_ptr<QuerySession>& session = sessions_.at(id);
  if (!session) {
    throw ldap::ProtocolError("query " + std::to_string(id) +
                              " is not registered");
  }
  return *session;
}

const ContentTracker& SessionHistoryBackend::tracker(std::size_t id) const {
  return registered(id).tracker();
}

UpdateBatch SessionHistoryBackend::initial(std::size_t id) {
  return registered(id).initial(*dit_);
}

UpdateBatch SessionHistoryBackend::poll(std::size_t id) {
  QuerySession& session = registered(id);
  return session.initialized() ? session.poll() : session.initial(*dit_);
}

void SessionHistoryBackend::on_change(const ChangeRecord& record) {
  for (const std::unique_ptr<QuerySession>& session : sessions_) {
    if (session) session->on_change(record);
  }
}

std::size_t SessionHistoryBackend::pending_events() const {
  std::size_t total = 0;
  for (const std::unique_ptr<QuerySession>& session : sessions_) {
    if (session) total += session->pending_events();
  }
  return total;
}

// --- JournalReplayBackend (tombstone, changelog) ---

std::size_t JournalReplayBackend::register_query(const ldap::Query& query) {
  states_.push_back({std::make_unique<ContentTracker>(query),
                     server::ChangeJournal::Reader(master_->journal())});
  return states_.size() - 1;
}

UpdateBatch JournalReplayBackend::initial(std::size_t id) {
  State& state = states_.at(id);
  state.polled.advance(master_->journal().last_seq());
  state.initialized = true;
  return make_initial(*master_, *state.tracker);
}

UpdateBatch JournalReplayBackend::poll(std::size_t id) {
  State& state = states_.at(id);
  if (!state.initialized) return initial(id);
  const std::vector<const ChangeRecord*> records = state.polled.pending();

  // Last-wins final situation per DN: the entry exists and is classified
  // against the current DIT (true), or a tombstone marks it gone (false).
  std::map<std::string, std::pair<Dn, bool>> finals;
  for (const ChangeRecord* record : records) {
    const bool renamed = record->type == ChangeType::ModifyDn;
    finals[record->dn.norm_key()] = {
        record->dn, record->type != ChangeType::Delete && !renamed};
    if (renamed) finals[record->new_dn.norm_key()] = {record->new_dn, true};
  }
  const std::set<std::string> touched =
      changelog_ ? filter_touched(records, state.tracker->query())
                 : std::set<std::string>{};

  UpdateBatch batch;
  for (const auto& [key, final_state] : finals) {
    const auto& [dn, exists] = final_state;
    const EntryPtr current = exists ? master_->dit().find(dn) : nullptr;
    if (current && state.tracker->matches_query(*current)) {
      batch.adds.push_back(current);  // the replica upserts
    } else if (!current || !changelog_ || touched.count(key) > 0) {
      // Gone (or raced with a later removal), or changed and not matching
      // now: it may have left the content.
      batch.deletes.push_back(dn);
    }
    // else: only non-filter attributes of a non-matching entry changed, so
    // its membership cannot have changed.
  }
  state.polled.advance(master_->journal().last_seq());
  return batch;
}

// --- FullReloadBackend ---

UpdateBatch FullReloadBackend::initial(std::size_t id) {
  return make_initial(*master_, ContentTracker(queries_.at(id)));
}

}  // namespace fbdr::sync
