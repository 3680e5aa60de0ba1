#include "sync/change_router.h"

#include <algorithm>

namespace fbdr::sync {

using ldap::Dn;
using ldap::EntryPtr;
using server::ChangeRecord;
using server::ChangeType;

ChangeRouter::Handle ChangeRouter::add_session(
    const ldap::Query& query, const ldap::CompiledFilter* compiled) {
  SessionInfo info;
  info.alive = true;
  // A compiled filter with a foreign attribute-id space (different schema
  // interner) is unindexable here: degrade to the fallback class rather
  // than compare incomparable ids.
  info.fallback = compiled == nullptr ||
                  compiled->attr_interner() != &interner_->attrs();
  info.base = query.base;
  info.scope = query.scope;
  info.compiled = compiled;

  Handle handle = sessions_.size();
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (!sessions_[i].alive) {
      handle = i;
      break;
    }
  }
  if (handle == sessions_.size()) {
    sessions_.push_back(std::move(info));
  } else {
    sessions_[handle] = std::move(info);
  }
  ++live_count_;

  const SessionInfo& stored = sessions_[handle];
  if (stored.fallback) {
    fallback_.push_back(handle);
    return handle;
  }
  for (const ldap::AttrId attr : compiled->attr_ids()) {
    bucket_insert(by_attr_[attr], handle);
  }
  if (!compiled->eq_pins().empty()) {
    const ldap::CompiledFilter::EqPin& pin = compiled->eq_pins().front();
    bucket_insert(by_pin_[pin.attr_id][pin.norm_value], handle);
  } else {
    switch (stored.scope) {
      case ldap::Scope::Base:
        bucket_insert(region_base_[stored.base.norm_key()], handle);
        break;
      case ldap::Scope::OneLevel:
        bucket_insert(region_onelevel_[stored.base.norm_key()], handle);
        break;
      case ldap::Scope::Subtree:
        bucket_insert(region_subtree_[stored.base.norm_key()], handle);
        break;
    }
  }
  return handle;
}

void ChangeRouter::remove_session(Handle handle) {
  if (handle >= sessions_.size() || !sessions_[handle].alive) return;
  SessionInfo& info = sessions_[handle];
  if (info.fallback) {
    bucket_erase(fallback_, handle);
  } else {
    for (const ldap::AttrId attr : info.compiled->attr_ids()) {
      const auto it = by_attr_.find(attr);
      if (it != by_attr_.end()) {
        bucket_erase(it->second, handle);
        if (it->second.empty()) by_attr_.erase(it);
      }
    }
    if (!info.compiled->eq_pins().empty()) {
      const ldap::CompiledFilter::EqPin& pin = info.compiled->eq_pins().front();
      const auto attr_it = by_pin_.find(pin.attr_id);
      if (attr_it != by_pin_.end()) {
        const auto value_it = attr_it->second.find(pin.norm_value);
        if (value_it != attr_it->second.end()) {
          bucket_erase(value_it->second, handle);
          if (value_it->second.empty()) attr_it->second.erase(value_it);
        }
        if (attr_it->second.empty()) by_pin_.erase(attr_it);
      }
    } else {
      auto& region = info.scope == ldap::Scope::Base      ? region_base_
                     : info.scope == ldap::Scope::OneLevel ? region_onelevel_
                                                           : region_subtree_;
      const auto it = region.find(info.base.norm_key());
      if (it != region.end()) {
        bucket_erase(it->second, handle);
        if (it->second.empty()) region.erase(it);
      }
    }
  }
  info = SessionInfo{};
  --live_count_;
}

void ChangeRouter::clear() {
  sessions_.clear();
  live_count_ = 0;
  holders_.clear();
  by_attr_.clear();
  by_pin_.clear();
  region_subtree_.clear();
  region_onelevel_.clear();
  region_base_.clear();
  fallback_.clear();
}

void ChangeRouter::note_enter(Handle handle, const std::string& norm_key) {
  bucket_insert(holders_[norm_key], handle);
}

void ChangeRouter::note_leave(Handle handle, const std::string& norm_key) {
  const auto it = holders_.find(norm_key);
  if (it == holders_.end()) return;
  bucket_erase(it->second, handle);
  if (it->second.empty()) holders_.erase(it);
}

bool ChangeRouter::region_covers(const SessionInfo& info, const Dn& dn) const {
  switch (info.scope) {
    case ldap::Scope::Base:
      return info.base == dn;
    case ldap::Scope::OneLevel:
      return info.base.is_parent_of(dn);
    case ldap::Scope::Subtree:
      return info.base.is_ancestor_or_self(dn);
  }
  return false;
}

bool ChangeRouter::pins_satisfied(const SessionInfo& info,
                                  const EntryPtr& after,
                                  std::string& scratch) const {
  if (!info.compiled || !after) return true;
  // Only indexed sessions reach this check, so the pins' attribute ids are
  // guaranteed to come from the router's interner.
  for (const ldap::CompiledFilter::EqPin& pin : info.compiled->eq_pins()) {
    const ldap::Syntax syntax = interner_->attrs().syntax(pin.attr_id);
    const std::vector<std::string>* values = after->get(pin.attr);
    if (!values ||
        std::none_of(values->begin(), values->end(), [&](const std::string& v) {
          ldap::Schema::normalize_into(syntax, v, scratch);
          return scratch == pin.norm_value;
        })) {
      return false;
    }
  }
  return true;
}

void ChangeRouter::emit(Handle handle, std::vector<Handle>& out,
                        bool via_fallback) {
  SessionInfo& info = sessions_[handle];
  if (!info.alive || info.stamp == generation_) return;
  info.stamp = generation_;
  out.push_back(handle);
  if (via_fallback) ++stats_.fallback_candidates;
}

void ChangeRouter::add_holders(const std::string& norm_key,
                               std::vector<Handle>& out) {
  const auto it = holders_.find(norm_key);
  if (it == holders_.end()) return;
  for (Handle handle : it->second) emit(handle, out);
}

void ChangeRouter::add_enter_candidates(const Dn& dn, const EntryPtr& after,
                                        std::vector<Handle>& out,
                                        std::string& scratch) {
  // Unpinned sessions, by region. Bucket membership already implies the
  // region covers `dn`, so no per-candidate recheck is needed here.
  if (!region_subtree_.empty()) {
    Dn ancestor = dn;
    while (true) {
      const auto it = region_subtree_.find(ancestor.norm_key());
      if (it != region_subtree_.end()) {
        for (Handle handle : it->second) emit(handle, out);
      }
      if (ancestor.is_root()) break;
      ancestor = ancestor.parent();
    }
  }
  if (!region_onelevel_.empty() && !dn.is_root()) {
    const auto it = region_onelevel_.find(dn.parent().norm_key());
    if (it != region_onelevel_.end()) {
      for (Handle handle : it->second) emit(handle, out);
    }
  }
  if (!region_base_.empty()) {
    const auto it = region_base_.find(dn.norm_key());
    if (it != region_base_.end()) {
      for (Handle handle : it->second) emit(handle, out);
    }
  }

  // Unindexable sessions: region is the only available pruner.
  for (Handle handle : fallback_) {
    const SessionInfo& info = sessions_[handle];
    if (!info.alive || info.stamp == generation_) continue;
    if (!region_covers(info, dn)) continue;
    emit(handle, out, true);
  }

  // Pinned sessions, by the new snapshot's values for each pinned attribute.
  if (!after) return;
  for (const auto& [attr_id, value_map] : by_pin_) {
    const std::vector<std::string>* values =
        after->get(interner_->attrs().name(attr_id));
    if (!values) continue;
    const ldap::Syntax syntax = interner_->attrs().syntax(attr_id);
    for (const std::string& value : *values) {
      ldap::Schema::normalize_into(syntax, value, scratch);
      const auto it = value_map.find(scratch);
      if (it == value_map.end()) continue;
      for (Handle handle : it->second) {
        const SessionInfo& info = sessions_[handle];
        if (!info.alive || info.stamp == generation_) continue;
        if (!region_covers(info, dn)) continue;
        if (!pins_satisfied(info, after, scratch)) continue;
        emit(handle, out);
      }
    }
  }
}

void ChangeRouter::route(const ChangeRecord& record, std::vector<Handle>& out) {
  ++generation_;
  ++stats_.routed_changes;
  stats_.exhaustive += live_count_;
  const std::size_t before_count = out.size();
  std::string scratch;  // pin checks normalize the after-entry's values here

  switch (record.type) {
    case ChangeType::Add:
      add_enter_candidates(record.dn, record.after, out, scratch);
      break;
    case ChangeType::Delete:
      // Only sessions holding the entry can be affected; the holder index
      // mirrors content membership exactly.
      add_holders(record.dn.norm_key(), out);
      break;
    case ChangeType::Modify: {
      add_holders(record.dn.norm_key(), out);
      if (!record.before || !record.after) {
        // Malformed record: route conservatively to every session.
        for (Handle handle = 0; handle < sessions_.size(); ++handle) {
          emit(handle, out, true);
        }
        break;
      }
      // Non-holders can only enter when a referenced attribute changed and
      // the (unchanged) region covers the DN and every pin is satisfied.
      const auto& before_attrs = record.before->attributes();
      const auto& after_attrs = record.after->attributes();
      auto consider_attr = [&](const std::string& attr) {
        // find() does not insert: an attribute no tracked filter references
        // has no id, and provably hits no bucket.
        const std::optional<ldap::AttrId> id = interner_->attrs().find(attr);
        if (!id) return;
        const auto it = by_attr_.find(*id);
        if (it == by_attr_.end()) return;
        for (Handle handle : it->second) {
          const SessionInfo& info = sessions_[handle];
          if (!info.alive || info.stamp == generation_) continue;
          if (!region_covers(info, record.dn)) continue;
          if (!pins_satisfied(info, record.after, scratch)) continue;
          emit(handle, out);
        }
      };
      auto b = before_attrs.begin();
      auto a = after_attrs.begin();
      while (b != before_attrs.end() || a != after_attrs.end()) {
        if (a == after_attrs.end() ||
            (b != before_attrs.end() && b->first < a->first)) {
          consider_attr(b->first);  // attribute removed
          ++b;
        } else if (b == before_attrs.end() || a->first < b->first) {
          consider_attr(a->first);  // attribute added
          ++a;
        } else {
          if (b->second != a->second) consider_attr(a->first);
          ++b;
          ++a;
        }
      }
      for (Handle handle : fallback_) {
        const SessionInfo& info = sessions_[handle];
        if (!info.alive || info.stamp == generation_) continue;
        if (!region_covers(info, record.dn)) continue;
        emit(handle, out, true);
      }
      break;
    }
    case ChangeType::ModifyDn:
      add_holders(record.dn.norm_key(), out);
      add_enter_candidates(record.new_dn, record.after, out, scratch);
      break;
  }
  stats_.candidates += out.size() - before_count;
}

void ChangeRouter::bucket_insert(std::vector<Handle>& bucket, Handle handle) {
  bucket.push_back(handle);
}

void ChangeRouter::bucket_erase(std::vector<Handle>& bucket, Handle handle) {
  const auto it = std::find(bucket.begin(), bucket.end(), handle);
  if (it == bucket.end()) return;
  *it = bucket.back();
  bucket.pop_back();
}

}  // namespace fbdr::sync
