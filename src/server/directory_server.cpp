#include "server/directory_server.h"

#include <algorithm>

#include "ldap/compiled_filter.h"
#include "ldap/error.h"

namespace fbdr::server {

using ldap::Dn;
using ldap::Entry;
using ldap::EntryPtr;
using ldap::Query;
using ldap::Scope;

DirectoryServer::DirectoryServer(std::string url, const ldap::Schema& schema)
    : url_(std::move(url)), schema_(&schema) {}

void DirectoryServer::add_context(NamingContext context) {
  dit_.add_suffix(context.suffix);
  contexts_.push_back(std::move(context));
}

const NamingContext* DirectoryServer::resolve(const Dn& dn) const {
  for (const NamingContext& context : contexts_) {
    if (!context.suffix.is_ancestor_or_self(dn)) continue;
    bool cut_off = false;
    for (const SubordinateReferral& sub : context.subordinates) {
      if (sub.at == dn || sub.at.is_ancestor_of(dn)) {
        cut_off = true;
        break;
      }
    }
    if (!cut_off) return &context;
  }
  return nullptr;
}

EntryPtr project(const EntryPtr& entry, const ldap::AttributeSelection& attrs) {
  if (attrs.all) return entry;
  auto projected = std::make_shared<Entry>(entry->dn());
  for (const std::string& name : attrs.names) {
    if (const std::vector<std::string>* values = entry->get(name)) {
      projected->set_values(name, *values);
    }
  }
  return projected;
}

SearchResult DirectoryServer::search(const Query& query) const {
  SearchResult result;
  // Compile the filter once per search: assertion values are normalized
  // here instead of once per candidate comparison.
  const ldap::CompiledFilter compiled =
      ldap::CompiledFilter::compile(query.filter, *schema_);
  const NamingContext* holder = resolve(query.base);
  // The null base names the root DSE, which exists on every server: a
  // subtree search from it covers all held contexts (the shape of requests
  // minimally directory enabled applications issue, §3.1.1). Any other
  // unheld base fails name resolution here.
  const bool root_search =
      !holder && query.base.is_root() && query.scope == Scope::Subtree;
  if (!holder && !root_search) {
    // Name resolution failed here. If the base lies at/under one of our
    // subordinate referral objects, we know exactly which server continues
    // the operation (the name resolution passed through the referral
    // object); otherwise hand out the default (superior) referral, as hostB
    // does in Figure 2.
    for (const NamingContext& context : contexts_) {
      for (const SubordinateReferral& sub : context.subordinates) {
        if (sub.at == query.base || sub.at.is_ancestor_of(query.base)) {
          result.referrals.push_back({sub.url, query.base, query.scope});
          return result;
        }
      }
    }
    if (default_referral_) {
      result.referrals.push_back({*default_referral_, query.base, query.scope});
    } else {
      throw ldap::OperationError(ldap::ResultCode::NoSuchObject,
                                 query.base.to_string());
    }
    return result;
  }
  result.base_resolved = true;
  if (root_search) {
    // Contribute every held context (plus subordinate referrals below).
    std::set<std::string> seen;
    for (const NamingContext& context : contexts_) {
      for (const EntryPtr& entry : dit_.subtree(context.suffix)) {
        if (!compiled.matches(*entry)) continue;
        if (!seen.insert(entry->dn().norm_key()).second) continue;
        result.entries.push_back(project(entry, query.attrs));
      }
      for (const SubordinateReferral& sub : context.subordinates) {
        result.referrals.push_back({sub.url, sub.at, Scope::Subtree});
      }
    }
    return result;
  }

  // Entries from the holding context.
  for (const EntryPtr& entry : dit_.scoped(query.base, query.scope)) {
    // Entries under a subordinate referral point are not part of this
    // context (they belong to the subordinate server); the DIT never stores
    // them on this server, so no filtering is needed here.
    if (!compiled.matches(*entry)) continue;
    result.entries.push_back(project(entry, query.attrs));
  }

  // Subordinate referrals for cut-points inside the search region. A
  // one-level search only has the referral *object* in scope, so its
  // continuation is a BASE search at the cut-point; a subtree search
  // continues over the whole subordinate context.
  if (query.scope != Scope::Base) {
    for (const SubordinateReferral& sub : holder->subordinates) {
      if (query.scope == Scope::Subtree) {
        if (query.base == sub.at || query.base.is_ancestor_of(sub.at)) {
          result.referrals.push_back({sub.url, sub.at, Scope::Subtree});
        }
      } else if (query.base.is_parent_of(sub.at)) {
        result.referrals.push_back({sub.url, sub.at, Scope::Base});
      }
    }
  }

  // Contexts rooted below the search base that this server also holds
  // contribute their entries directly (no referral needed). Entries already
  // reached through the holding context (a physically connected subtree) are
  // not added twice.
  if (query.scope == Scope::Subtree) {
    std::set<std::string> seen;
    for (const EntryPtr& entry : result.entries) {
      seen.insert(entry->dn().norm_key());
    }
    for (const NamingContext& context : contexts_) {
      if (&context == holder) continue;
      if (query.base.is_ancestor_of(context.suffix)) {
        for (const EntryPtr& entry : dit_.subtree(context.suffix)) {
          if (!compiled.matches(*entry)) continue;
          if (!seen.insert(entry->dn().norm_key()).second) continue;
          result.entries.push_back(project(entry, query.attrs));
        }
      }
    }
  }
  return result;
}

void DirectoryServer::add_index(std::string_view attr) {
  dit_.add_index(attr, *schema_);
}

std::vector<EntryPtr> DirectoryServer::evaluate(const Query& query) const {
  std::vector<EntryPtr> out;
  const ldap::CompiledFilter compiled =
      ldap::CompiledFilter::compile(query.filter, *schema_);
  dit_.for_each_candidate(query, [&](const EntryPtr& entry) {
    if (query.region_covers(entry->dn()) && compiled.matches(*entry)) {
      out.push_back(entry);
    }
  });
  return out;
}

bool DirectoryServer::compare(const Dn& dn, std::string_view attr,
                              std::string_view value) const {
  const EntryPtr entry = dit_.find(dn);
  if (!entry) {
    throw ldap::OperationError(ldap::ResultCode::NoSuchObject, dn.to_string());
  }
  return entry->has_value(attr, value, *schema_);
}

std::uint64_t DirectoryServer::add(EntryPtr entry) {
  dit_.add(entry);
  ChangeRecord record;
  record.type = ChangeType::Add;
  record.dn = entry->dn();
  record.after = std::move(entry);
  return journal_.append(std::move(record));
}

std::uint64_t DirectoryServer::remove(const Dn& dn) {
  EntryPtr removed = dit_.remove(dn);
  ChangeRecord record;
  record.type = ChangeType::Delete;
  record.dn = dn;
  record.before = std::move(removed);
  return journal_.append(std::move(record));
}

std::uint64_t DirectoryServer::modify(const Dn& dn, std::vector<Modification> mods,
                                      EntryPtr after_image) {
  auto [before, after] = dit_.modify(dn, mods, std::move(after_image));
  ChangeRecord record;
  record.type = ChangeType::Modify;
  record.dn = dn;
  record.before = std::move(before);
  record.after = std::move(after);
  record.mods = std::move(mods);
  return journal_.append(std::move(record));
}

std::uint64_t DirectoryServer::modify_dn(const Dn& dn, const Dn& new_dn) {
  std::uint64_t last = 0;
  for (Dit::Renamed& renamed : dit_.move(dn, new_dn)) {
    ChangeRecord record;
    record.type = ChangeType::ModifyDn;
    record.dn = renamed.old_dn;
    record.new_dn = renamed.new_dn;
    record.before = std::move(renamed.old_entry);
    record.after = std::move(renamed.entry);
    last = journal_.append(std::move(record));
  }
  return last;
}

void DirectoryServer::load(EntryPtr entry) { dit_.add(std::move(entry)); }

}  // namespace fbdr::server
