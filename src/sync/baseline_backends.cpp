#include "sync/baseline_backends.h"

#include <map>
#include <set>

namespace fbdr::sync {

using ldap::Dn;
using ldap::EntryPtr;
using server::ChangeRecord;
using server::ChangeType;

namespace {

/// Final per-DN disposition after replaying the journal segment.
enum class Action {
  Candidate,  // entry exists; classify against the current DIT
  Gone,       // a tombstone exists; the DN must be shipped as a delete
};

/// Replays journal records into a last-wins per-DN action map
/// (tombstone/changelog protocols are stateless per session and only see the
/// final situation of each DN).
std::map<std::string, std::pair<Dn, Action>> replay(
    const std::vector<const ChangeRecord*>& records) {
  std::map<std::string, std::pair<Dn, Action>> finals;
  for (const ChangeRecord* record : records) {
    switch (record->type) {
      case ChangeType::Add:
      case ChangeType::Modify:
        finals[record->dn.norm_key()] = {record->dn, Action::Candidate};
        break;
      case ChangeType::Delete:
        finals[record->dn.norm_key()] = {record->dn, Action::Gone};
        break;
      case ChangeType::ModifyDn:
        finals[record->dn.norm_key()] = {record->dn, Action::Gone};
        finals[record->new_dn.norm_key()] = {record->new_dn, Action::Candidate};
        break;
    }
  }
  return finals;
}

/// Attribute names referenced by a filter.
std::set<std::string> filter_attributes(const ldap::Filter& filter) {
  std::set<std::string> attrs;
  filter.for_each_predicate(
      [&](const ldap::Filter& p) { attrs.insert(p.attribute()); });
  return attrs;
}

UpdateBatch make_initial(const server::DirectoryServer& master,
                         const ContentTracker& tracker) {
  UpdateBatch batch;
  batch.full_reload = true;
  master.dit().for_each([&](const EntryPtr& entry) {
    if (tracker.matches_query(*entry)) batch.adds.push_back(entry);
  });
  return batch;
}

}  // namespace

// --- TombstoneBackend ---

TombstoneBackend::TombstoneBackend(server::DirectoryServer& master,
                                   const ldap::Schema& schema)
    : master_(&master), schema_(&schema) {}

std::size_t TombstoneBackend::register_query(const ldap::Query& query) {
  states_.push_back({std::make_unique<ContentTracker>(query, *schema_),
                     server::ChangeJournal::Reader(master_->journal())});
  return states_.size() - 1;
}

UpdateBatch TombstoneBackend::initial(std::size_t id) {
  State& state = states_.at(id);
  state.polled.advance(master_->journal().last_seq());
  state.initialized = true;
  return make_initial(*master_, *state.tracker);
}

UpdateBatch TombstoneBackend::poll(std::size_t id) {
  State& state = states_.at(id);
  if (!state.initialized) return initial(id);
  const std::vector<const ChangeRecord*> records = state.polled.pending();
  UpdateBatch batch;
  for (const auto& [key, dn_action] : replay(records)) {
    const auto& [dn, action] = dn_action;
    if (action == Action::Gone) {
      // A tombstone has no attributes: the master cannot tell whether the
      // entry was in this content, so the DN is always shipped.
      batch.deletes.push_back(dn);
      continue;
    }
    const EntryPtr current = master_->dit().find(dn);
    if (!current) {
      batch.deletes.push_back(dn);  // raced with a later removal
      continue;
    }
    if (state.tracker->matches_query(*current)) {
      batch.adds.push_back(current);  // replica upserts
    } else {
      // Changed but not matching now: only modifyTimestamp is known, so a
      // conservative delete is shipped in case the entry moved out.
      batch.deletes.push_back(dn);
    }
  }
  state.polled.advance(master_->journal().last_seq());
  return batch;
}

void TombstoneBackend::on_change(const ChangeRecord&) {
  // Stateless between polls: everything is derived from the journal.
}

// --- ChangelogBackend ---

ChangelogBackend::ChangelogBackend(server::DirectoryServer& master,
                                   const ldap::Schema& schema)
    : master_(&master), schema_(&schema) {}

std::size_t ChangelogBackend::register_query(const ldap::Query& query) {
  states_.push_back({std::make_unique<ContentTracker>(query, *schema_),
                     server::ChangeJournal::Reader(master_->journal())});
  return states_.size() - 1;
}

UpdateBatch ChangelogBackend::initial(std::size_t id) {
  State& state = states_.at(id);
  state.polled.advance(master_->journal().last_seq());
  state.initialized = true;
  return make_initial(*master_, *state.tracker);
}

UpdateBatch ChangelogBackend::poll(std::size_t id) {
  State& state = states_.at(id);
  if (!state.initialized) return initial(id);
  const std::set<std::string> filter_attrs =
      state.tracker->query().filter ? filter_attributes(*state.tracker->query().filter)
                                    : std::set<std::string>{};

  // Track, per DN, whether any change record since the last poll touched a
  // filter attribute (the changelog's extra information over tombstones).
  const std::vector<const ChangeRecord*> records = state.polled.pending();
  std::map<std::string, bool> touched_filter;
  for (const ChangeRecord* record : records) {
    bool touches = record->type != ChangeType::Modify;  // add/del/rename: yes
    if (record->type == ChangeType::Modify) {
      for (const server::Modification& mod : record->mods) {
        if (filter_attrs.count(mod.attr) > 0) {
          touches = true;
          break;
        }
      }
    }
    touched_filter[record->dn.norm_key()] =
        touched_filter[record->dn.norm_key()] || touches;
    if (record->type == ChangeType::ModifyDn) {
      touched_filter[record->new_dn.norm_key()] = true;
    }
  }

  UpdateBatch batch;
  for (const auto& [key, dn_action] : replay(records)) {
    const auto& [dn, action] = dn_action;
    if (action == Action::Gone) {
      // "If an entry is first modified out of the content and then deleted,
      // change logs are not sufficient to determine whether the entry moved
      // out of the content" — ship every deleted DN.
      batch.deletes.push_back(dn);
      continue;
    }
    const EntryPtr current = master_->dit().find(dn);
    if (!current) {
      batch.deletes.push_back(dn);
      continue;
    }
    if (state.tracker->matches_query(*current)) {
      batch.adds.push_back(current);
    } else if (touched_filter[key]) {
      // The change may have moved the entry out of the content.
      batch.deletes.push_back(dn);
    }
    // else: only non-filter attributes changed on a non-matching entry; its
    // membership cannot have changed, nothing to ship.
  }
  state.polled.advance(master_->journal().last_seq());
  return batch;
}

void ChangelogBackend::on_change(const ChangeRecord&) {
  // Stateless between polls: everything is derived from the journal.
}

// --- FullReloadBackend ---

FullReloadBackend::FullReloadBackend(const server::DirectoryServer& master,
                                     const ldap::Schema& schema)
    : master_(&master), schema_(&schema) {}

std::size_t FullReloadBackend::register_query(const ldap::Query& query) {
  queries_.push_back(query);
  return queries_.size() - 1;
}

UpdateBatch FullReloadBackend::initial(std::size_t id) {
  ContentTracker tracker(queries_.at(id), *schema_);
  return make_initial(*master_, tracker);
}

}  // namespace fbdr::sync
