#include "sync/content_tracker.h"

namespace fbdr::sync {

using ldap::Dn;
using ldap::Entry;
using ldap::EntryPtr;
using ldap::Scope;
using server::ChangeRecord;
using server::ChangeType;

std::string to_string(Transition transition) {
  switch (transition) {
    case Transition::Enter:
      return "enter";
    case Transition::Leave:
      return "leave";
    case Transition::Update:
      return "update";
  }
  return "unknown";
}

ContentTracker::ContentTracker(ldap::Query query, const ldap::Schema& schema)
    : query_(std::move(query)),
      ir_(ldap::FilterInterner::for_schema(schema).intern(query_.filter)),
      compiled_(ldap::CompiledFilter::compile(
          ir_, ldap::FilterInterner::for_schema(schema))) {}

bool ContentTracker::in_region(const Dn& dn) const {
  switch (query_.scope) {
    case Scope::Base:
      return dn == query_.base;
    case Scope::OneLevel:
      return query_.base.is_parent_of(dn);
    case Scope::Subtree:
      return query_.base.is_ancestor_or_self(dn);
  }
  return false;
}

bool ContentTracker::matches_query(const Entry& entry) const {
  if (!in_region(entry.dn())) return false;
  return compiled_.matches(entry);
}

void ContentTracker::initialize(const server::Dit& dit) {
  content_.clear();
  digest_.clear();
  dit.for_each_candidate(query_, [&](const EntryPtr& entry) {
    if (matches_query(*entry)) {
      const std::string key = entry->dn().norm_key();
      content_[key] = entry;
      digest_.upsert(key, *entry);
    }
  });
}

bool ContentTracker::in_content(const Dn& dn) const {
  return content_.count(dn.norm_key()) > 0;
}

std::vector<std::string> ContentTracker::content_keys() const {
  std::vector<std::string> keys;
  keys.reserve(content_.size());
  for (const auto& [key, entry] : content_) keys.push_back(key);
  return keys;
}

std::vector<ContentEvent> ContentTracker::on_change(const ChangeRecord& record) {
  std::vector<ContentEvent> events;
  switch (record.type) {
    case ChangeType::Add: {
      if (record.after && matches_query(*record.after)) {
        const std::string key = record.dn.norm_key();
        content_[key] = record.after;
        digest_.upsert(key, *record.after);
        events.push_back({record.seq, Transition::Enter, record.dn, record.after});
      }
      break;
    }
    case ChangeType::Delete: {
      const std::string key = record.dn.norm_key();
      if (content_.erase(key) > 0) {
        digest_.erase(key);
        events.push_back({record.seq, Transition::Leave, record.dn, nullptr});
      }
      break;
    }
    case ChangeType::Modify: {
      const bool was_in = in_content(record.dn);
      const bool now_in = record.after && matches_query(*record.after);
      const std::string key = record.dn.norm_key();
      if (was_in && now_in) {
        content_[key] = record.after;
        digest_.upsert(key, *record.after);
        events.push_back({record.seq, Transition::Update, record.dn, record.after});
      } else if (was_in && !now_in) {
        content_.erase(key);
        digest_.erase(key);
        events.push_back({record.seq, Transition::Leave, record.dn, nullptr});
      } else if (!was_in && now_in) {
        content_[key] = record.after;
        digest_.upsert(key, *record.after);
        events.push_back({record.seq, Transition::Enter, record.dn, record.after});
      }
      break;
    }
    case ChangeType::ModifyDn: {
      const bool was_in = in_content(record.dn);
      const bool now_in = record.after && matches_query(*record.after);
      if (was_in) {
        const std::string key = record.dn.norm_key();
        content_.erase(key);
        digest_.erase(key);
        events.push_back({record.seq, Transition::Leave, record.dn, nullptr});
      }
      if (now_in) {
        const std::string key = record.new_dn.norm_key();
        content_[key] = record.after;
        digest_.upsert(key, *record.after);
        events.push_back(
            {record.seq, Transition::Enter, record.new_dn, record.after});
      }
      break;
    }
  }
  return events;
}

}  // namespace fbdr::sync
