#include "topology/relay_node.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <utility>

#include "ldap/error.h"
#include "sync/content_digest.h"

namespace fbdr::topology {

using ldap::EntryPtr;
using ldap::Query;

RelayNode::RelayNode(Config config, const ldap::Schema& schema,
                     std::shared_ptr<ldap::TemplateRegistry> registry)
    : config_(std::move(config)),
      url_("ldap://" + config_.name),
      replica_(schema, std::move(registry)),
      mirror_(url_ + "/mirror", schema),
      downstream_(mirror_) {
  mirror_.add_context({config_.suffix, {}});
  downstream_.set_session_time_limit(config_.session_time_limit);
  downstream_.set_resource_limits(config_.downstream_limits);
  downstream_.set_pump_shards(config_.pump_shards);
  downstream_.set_pump_threads(config_.pump_threads);
}

void RelayNode::connect(std::shared_ptr<net::Channel> channel,
                        std::string parent_url) {
  channel_ = std::move(channel);
  parent_url_ = std::move(parent_url);
}

void RelayNode::add_filter(const Query& query) {
  const std::string key = query.key();
  for (const UpstreamFilter& filter : filters_) {
    if (filter.query.key() == key) return;
  }
  UpstreamFilter filter;
  filter.query = query;
  filter.replica_id = replica_.add_query(query);
  filters_.push_back(std::move(filter));
}

resync::ReSyncResponse RelayNode::request(UpstreamFilter& filter,
                                          const resync::ReSyncControl& control) {
  return net::exchange_with_retry(*channel_, filter.query, control,
                                  config_.retry, &filter.retries);
}

resync::ReSyncResponse RelayNode::collect_pages(UpstreamFilter& filter,
                                                resync::ReSyncResponse first) {
  while (first.more) {
    resync::ReSyncResponse page =
        request(filter, {resync::Mode::Poll, filter.cookie});
    filter.cookie = page.cookie;
    ++filter.paged_polls;
    first.more = page.more;
    first.full_reload = first.full_reload || page.full_reload;
    first.complete_enumeration =
        first.complete_enumeration || page.complete_enumeration;
    first.origin_time = std::max(first.origin_time, page.origin_time);
    first.pdus.insert(first.pdus.end(),
                      std::make_move_iterator(page.pdus.begin()),
                      std::make_move_iterator(page.pdus.end()));
  }
  return first;
}

bool RelayNode::install_all() {
  if (down_ || channel_ == nullptr) return false;
  bool all = true;
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    UpstreamFilter& filter = filters_[i];
    if (!filter.cookie.empty()) continue;
    if (refetch(i, /*recovery=*/false)) {
      filter.degraded = false;
    } else {
      all = false;
      if (!referred_to_.empty()) break;  // runtime must re-target first
      ++filter.failed_syncs;
      filter.degraded = true;  // heals through the sync() recovery path
    }
  }
  return all && referred_to_.empty();
}

void RelayNode::sync() {
  if (down_) return;
  epoch_bumped_this_round_ = false;
  bool attempted = false;
  bool transport_ok = false;
  const auto steady = [](const UpstreamFilter& filter) {
    return !filter.cookie.empty() && !filter.degraded;
  };
  std::vector<net::ExchangeItem> run;
  for (std::size_t i = 0; i < filters_.size() && channel_ != nullptr;) {
    if (!referred_to_.empty()) break;  // stop pumping a parent that refused us
    attempted = true;
    if (!steady(filters_[i])) {
      // Session never established (post-restart/rewire) or down past the
      // retry budget: re-establish with a full reload.
      if (reestablish(i, /*recovery=*/filters_[i].degraded)) {
        transport_ok = true;
      }
      ++i;
      continue;
    }
    // Pipeline the polls of this run of steady filters: one batch per link
    // per round, answered in filter order.
    run.clear();
    for (std::size_t j = i; j < filters_.size() && steady(filters_[j]); ++j) {
      run.emplace_back(filters_[j].query,
                       resync::ReSyncControl{resync::Mode::Poll,
                                             filters_[j].cookie});
    }
    channel_->exchange_all(run);
    for (net::ExchangeItem& item : run) {
      if (!referred_to_.empty()) break;
      if (finish_poll(i, item)) transport_ok = true;
      ++i;
    }
  }
  if (attempted) failed_streak_ = transport_ok ? 0 : failed_streak_ + 1;

  // The relay's content is only as fresh as its stalest session.
  if (!filters_.empty()) {
    std::uint64_t oldest = filters_.front().last_origin;
    for (const UpstreamFilter& filter : filters_) {
      oldest = std::min(oldest, filter.last_origin);
    }
    root_time_ = oldest;
  }

  downstream_.pump();
  downstream_.tick(1);
}

bool RelayNode::finish_poll(std::size_t index, net::ExchangeItem& item) {
  UpstreamFilter& filter = filters_[index];
  try {
    resync::ReSyncResponse response =
        net::finish_with_retry(*channel_, item, config_.retry, &filter.retries);
    filter.cookie = response.cookie;
    response = collect_pages(filter, std::move(response));
    if (response.complete_enumeration) ++filter.degraded_polls;
    // max(): a replayed poll (duplicate retried through a FaultyPipe)
    // may carry an older stamp; root time must never roll backwards.
    filter.last_origin = std::max(filter.last_origin, response.origin_time);
    filter.last_synced = downstream_.now();
    apply_response(index, response);
    return true;
  } catch (const ldap::StaleCookieError&) {
    // The parent expired or lost the session (restart, epoch bump):
    // recover with a full reload — and cascade the bump to descendants.
    return reestablish(index, /*recovery=*/true);
  } catch (const net::TransportError&) {
    ++filter.failed_syncs;
    filter.degraded = true;
    return false;
  }
}

bool RelayNode::reestablish(std::size_t index, bool recovery) {
  UpstreamFilter& filter = filters_[index];
  if (refetch(index, recovery)) {
    filter.degraded = false;
    return true;
  }
  if (!referred_to_.empty()) return true;  // the parent answered — with a bounce
  ++filter.failed_syncs;
  filter.degraded = true;
  return false;
}

bool RelayNode::refetch(std::size_t index, bool recovery) {
  UpstreamFilter& filter = filters_[index];
  try {
    if (config_.reconcile && !filter.members.empty()) {
      // The mirror already holds this filter's view (restart, rewire or a
      // degradation heal — the membership set survives all of them): offer
      // its digests instead of accepting a full content enumeration.
      std::map<std::string, ldap::EntryPtr> snapshot;
      auto offer = std::make_shared<resync::ReconcileRequest>();
      offer->round = 1;
      sync::ContentDigest digest;
      for (const auto& [key, dn] : filter.members) {
        const EntryPtr entry = mirror_.dit().find(dn);
        if (!entry) continue;
        snapshot.emplace(key, entry);
        digest.upsert(key, *entry);
      }
      offer->root_digest = digest.root();
      offer->entry_count = digest.entry_count();
      offer->buckets = digest.bucket_digests();
      resync::ReSyncControl control{resync::Mode::Poll, ""};
      control.reconcile = std::move(offer);
      resync::ReSyncResponse response = request(filter, control);
      if (response.referred()) {
        referred_to_ = response.referral_url;
        return false;
      }
      if (response.busy) {
        ++filter.busy_rejections;
        return false;
      }
      filter.cookie = response.cookie;
      if (response.reconcile && !response.reconcile->fallback) {
        try {
          return reconcile_refetch(index, std::move(response), snapshot,
                                   recovery);
        } catch (const ldap::StaleCookieError&) {
          // The walk expired between rounds: plain reload below.
          filter.cookie.clear();
        }
      } else {
        // Walk fallback (diverged too far / cap) or a parent that does not
        // speak reconciliation: the response body is the full content.
        return apply_full(index, std::move(response), recovery);
      }
    }
    resync::ReSyncResponse response = request(filter, {resync::Mode::Poll, ""});
    if (response.referred()) {
      referred_to_ = response.referral_url;
      return false;
    }
    if (response.busy) {
      // The parent is at session capacity: stay degraded (serving the
      // possibly-stale mirror) and try again on a later sync round, once
      // another descendant's session has drained or been evicted.
      ++filter.busy_rejections;
      return false;
    }
    return apply_full(index, std::move(response), recovery);
  } catch (const net::TransportError&) {
    return false;
  }
}

bool RelayNode::apply_full(std::size_t index, resync::ReSyncResponse response,
                           bool recovery) {
  UpstreamFilter& filter = filters_[index];
  filter.cookie = response.cookie;
  response = collect_pages(filter, std::move(response));
  filter.last_origin = std::max(filter.last_origin, response.origin_time);
  filter.last_synced = downstream_.now();
  ++filter.full_reloads;
  // Diff the enumerated content into the mirror: upsert everything
  // shipped, then drop what this filter previously claimed but the parent
  // no longer lists. Diffing (rather than clearing and reloading) keeps
  // the journal minimal, so descendants receive only real changes.
  std::map<std::string, ldap::Dn> shipped;
  for (const resync::EntryPdu& pdu : response.pdus) {
    if (!pdu.entry) continue;
    shipped.emplace(pdu.dn.norm_key(), pdu.dn);
    upsert(pdu.entry);
  }
  const std::map<std::string, ldap::Dn> previous =
      std::exchange(filter.members, std::move(shipped));
  for (const auto& [key, dn] : previous) {
    if (filter.members.find(key) == filter.members.end()) {
      erase_unless_claimed(dn, index);
    }
  }
  if (recovery) {
    ++filter.recoveries;
    ++recoveries_;
    if (!epoch_bumped_this_round_) bump_epoch();
  }
  return true;
}

bool RelayNode::reconcile_refetch(
    std::size_t index, resync::ReSyncResponse round1,
    const std::map<std::string, ldap::EntryPtr>& snapshot, bool recovery) {
  UpstreamFilter& filter = filters_[index];
  if (round1.reconcile->in_sync) {
    // Roots matched: the mirror's view is already exact; nothing shipped.
    filter.last_origin = std::max(filter.last_origin, round1.origin_time);
    filter.last_synced = downstream_.now();
    ++filter.reconciles;
    if (recovery) {
      ++filter.recoveries;
      ++recoveries_;
    }
    return true;
  }
  // Round 2: upload fingerprints for the divergent buckets; the answer is
  // the exact diff, applied through the ordinary delta path so the mirror
  // journals it and descendant sessions ride through (no epoch bump —
  // that is the cascading saving).
  auto upload = std::make_shared<resync::ReconcileRequest>();
  upload->round = 2;
  std::set<std::uint32_t> wanted(round1.reconcile->need_buckets.begin(),
                                 round1.reconcile->need_buckets.end());
  for (const auto& [key, entry] : snapshot) {
    if (wanted.count(sync::ContentDigest::bucket_of(key)) == 0) continue;
    upload->fingerprints.push_back(
        {entry->dn(), sync::ContentDigest::hash_entry(*entry)});
  }
  resync::ReSyncControl control{resync::Mode::Poll, filter.cookie};
  control.reconcile = std::move(upload);
  resync::ReSyncResponse diff = request(filter, control);
  filter.cookie = diff.cookie;
  diff = collect_pages(filter, std::move(diff));
  filter.last_origin = std::max(filter.last_origin, diff.origin_time);
  filter.last_synced = downstream_.now();
  filter.reconcile_entries_shipped += diff.pdus.size();
  apply_response(index, diff);
  ++filter.reconciles;
  if (recovery) {
    ++filter.recoveries;
    ++recoveries_;
  }
  return true;
}

void RelayNode::apply_response(std::size_t index,
                               const resync::ReSyncResponse& response) {
  UpstreamFilter& filter = filters_[index];
  std::set<std::string> mentioned;
  for (const resync::EntryPdu& pdu : response.pdus) {
    const std::string key = pdu.dn.norm_key();
    if (response.complete_enumeration) mentioned.insert(key);
    switch (pdu.action) {
      case resync::Action::Add:
      case resync::Action::Modify:
        filter.members.insert_or_assign(key, pdu.dn);
        upsert(pdu.entry);
        break;
      case resync::Action::Delete:
        filter.members.erase(key);
        erase_unless_claimed(pdu.dn, index);
        break;
      case resync::Action::Retain:
        filter.members.insert_or_assign(key, pdu.dn);  // membership confirmed
        break;
    }
  }
  if (response.complete_enumeration) {
    // Equation (3): unmentioned entries are gone from the parent.
    std::vector<std::pair<std::string, ldap::Dn>> stale;
    for (const auto& [key, dn] : filter.members) {
      if (mentioned.find(key) == mentioned.end()) stale.emplace_back(key, dn);
    }
    for (const auto& [key, dn] : stale) {
      filter.members.erase(key);
      erase_unless_claimed(dn, index);
    }
  }
}

void RelayNode::ensure_parents(const ldap::Dn& dn) {
  if (dn.is_root() || dn.norm_key() == config_.suffix.norm_key()) return;
  std::vector<ldap::Dn> missing;
  ldap::Dn cursor = dn.parent();
  while (!cursor.is_root() && !mirror_.dit().contains(cursor)) {
    missing.push_back(cursor);
    if (cursor.norm_key() == config_.suffix.norm_key()) break;
    cursor = cursor.parent();
  }
  for (auto it = missing.rbegin(); it != missing.rend(); ++it) {
    mirror_.add(std::make_shared<ldap::Entry>(*it));
  }
}

void RelayNode::upsert(const EntryPtr& entry) {
  const EntryPtr existing = mirror_.dit().find(entry->dn());
  if (existing) {
    if (*existing == *entry) return;  // re-delivery; keep the journal quiet
    std::vector<server::Modification> mods;
    for (const auto& [attr, values] : entry->attributes()) {
      mods.push_back({server::Modification::Op::Replace, attr, values});
    }
    for (const auto& [attr, values] : existing->attributes()) {
      if (!entry->has_attribute(attr)) {
        mods.push_back({server::Modification::Op::Replace, attr, {}});
      }
    }
    mirror_.modify(entry->dn(), std::move(mods));
    return;
  }
  ensure_parents(entry->dn());
  mirror_.add(entry);
}

void RelayNode::erase_unless_claimed(const ldap::Dn& dn, std::size_t source) {
  const EntryPtr entry = mirror_.dit().find(dn);
  if (!entry) return;  // shared delete already applied via another filter
  // Consult what each session's parent actually lists, never the mirror
  // copy: a truly deleted shared entry keeps matching every overlapping
  // filter through its stale attributes, so re-matching would make each
  // filter's Delete defer to the others forever.
  const std::string key = dn.norm_key();
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    if (i == source) continue;
    const UpstreamFilter& other = filters_[i];
    if (other.members.find(key) != other.members.end()) {
      return;  // still replicated here under another session
    }
  }
  try {
    mirror_.remove(dn);
  } catch (const ldap::OperationError& error) {
    if (error.code() != ldap::ResultCode::NotAllowedOnNonLeaf) throw;
    // Its children are replicated content: downgrade to attribute-less
    // glue so the tree shape survives. Downstream filters stop matching,
    // so sessions see the entry leave — the semantic delete.
    std::vector<server::Modification> mods;
    for (const std::string& attr : entry->attribute_names()) {
      mods.push_back({server::Modification::Op::Replace, attr, {}});
    }
    if (!mods.empty()) mirror_.modify(dn, std::move(mods));
  }
}

void RelayNode::rewire(std::shared_ptr<net::Channel> channel,
                       std::string parent_url) {
  for (UpstreamFilter& filter : filters_) {
    if (!filter.cookie.empty() && channel_ != nullptr) {
      try {
        channel_->exchange(filter.query,
                           {resync::Mode::SyncEnd, filter.cookie});
      } catch (const net::TransportError&) {
        // Old parent unreachable (likely why we are re-parenting); its
        // orphaned session expires under the admin time limit.
      } catch (const ldap::ProtocolError&) {
      }
    }
    filter.cookie.clear();
    filter.degraded = false;
  }
  channel_ = std::move(channel);
  parent_url_ = std::move(parent_url);
  referred_to_.clear();
  failed_streak_ = 0;
  ++reparents_;
  // Sessions rebuild wholesale at the new parent; descendants must not
  // resume against the mid-rebuild mirror.
  bump_epoch();
}

void RelayNode::crash() { down_ = true; }

void RelayNode::restart() {
  down_ = false;
  bump_epoch();  // downstream session state died with the process
  for (UpstreamFilter& filter : filters_) {
    filter.cookie.clear();  // upstream sessions must be re-established
    filter.degraded = false;
  }
}

void RelayNode::reset() { restart(); }

void RelayNode::bump_epoch() {
  ++epoch_;
  downstream_.reset();
  epoch_bumped_this_round_ = true;
}

std::string RelayNode::wrap_cookie(const std::string& inner) const {
  std::string cookie = "e";
  cookie += std::to_string(epoch_);
  cookie += '!';
  cookie += inner;
  return cookie;
}

std::string RelayNode::unwrap_cookie(const std::string& cookie) const {
  const std::size_t bang = cookie.find('!');
  if (cookie.empty() || cookie.front() != 'e' || bang == std::string::npos) {
    throw ldap::ProtocolError("malformed relay cookie '" + cookie + "'");
  }
  std::uint64_t epoch = 0;
  try {
    epoch = std::stoull(cookie.substr(1, bang - 1));
  } catch (const std::exception&) {
    throw ldap::ProtocolError("malformed relay cookie epoch '" + cookie + "'");
  }
  if (epoch != epoch_) {
    throw ldap::StaleCookieError(
        "relay " + url_ + " rebuilt its content (epoch " +
        std::to_string(epoch_) + ", cookie has " + std::to_string(epoch) + ")");
  }
  return cookie.substr(bang + 1);
}

bool RelayNode::admit(const Query& query) { return replica_.handle(query).hit; }

resync::ReSyncResponse RelayNode::handle(const Query& query,
                                         const resync::ReSyncControl& control) {
  if (down_) throw net::TransportError(url_ + ": relay down");
  if (control.mode == resync::Mode::SyncEnd) {
    if (control.initial()) return {};
    try {
      return downstream_.handle(query,
                                {control.mode, unwrap_cookie(control.cookie)});
    } catch (const ldap::StaleCookieError&) {
      return {};  // ending an already-invalidated session is a no-op
    }
  }
  resync::ReSyncResponse response;
  if (control.initial()) {
    if (!admit(query)) {
      // Not contained in the replicated set: bounce to the parent, the
      // default-referral rule of §2.3 applied to update sessions.
      ++admission_rejects_;
      response.referral_url = parent_url_;
      return response;
    }
    response = downstream_.handle(query, control);
    if (response.busy) {
      // Downstream master at its session cap: pass the busy result through
      // unwrapped (no session was created, so there is no cookie to epoch-
      // stamp); the descendant retries with backoff like any busy client.
      response.origin_time = root_time_;
      return response;
    }
  } else {
    // Copy the control so the reconcile payload (a round-2 fingerprint
    // upload through this relay) survives the cookie unwrap.
    resync::ReSyncControl inner = control;
    inner.cookie = unwrap_cookie(control.cookie);
    response = downstream_.handle(query, inner);
  }
  response.cookie = wrap_cookie(response.cookie);
  response.origin_time = root_time_;
  return response;
}

void RelayNode::abandon(const std::string& cookie) {
  if (down_) return;  // best effort, like the wire operation
  try {
    downstream_.abandon(unwrap_cookie(cookie));
  } catch (const ldap::ProtocolError&) {
    // Stale epoch or malformed: the session it named no longer exists.
  }
}

void RelayNode::tick(std::uint64_t delta) { downstream_.tick(delta); }

server::SearchResult RelayNode::process_search(const Query& query) {
  if (down_) throw net::TransportError(url_ + ": relay down");
  server::SearchResult result;
  if (admit(query)) {
    // Containment guarantees the mirror holds the complete answer (§3).
    result.base_resolved = true;
    for (const EntryPtr& entry : mirror_.evaluate(query)) {
      result.entries.push_back(server::project(entry, query.attrs));
    }
  } else {
    result.referrals.push_back({parent_url_, query.base, query.scope});
  }
  return result;
}

net::HealthStats RelayNode::upstream_health() const {
  net::HealthStats stats;
  const std::uint64_t now = downstream_.now();
  for (const UpstreamFilter& filter : filters_) {
    net::FilterHealth health;
    health.degraded = filter.degraded;
    health.ticks_behind =
        now > filter.last_synced ? now - filter.last_synced : 0;
    health.retries = filter.retries;
    health.recoveries = filter.recoveries;
    health.failed_syncs = filter.failed_syncs;
    health.busy_rejections = filter.busy_rejections;
    health.degraded_polls = filter.degraded_polls;
    health.paged_polls = filter.paged_polls;
    health.full_reloads = filter.full_reloads;
    health.reconciles = filter.reconciles;
    health.reconcile_entries_shipped = filter.reconcile_entries_shipped;
    stats.filters.emplace(filter.query.key(), health);
  }
  return stats;
}

bool RelayNode::any_degraded() const {
  for (const UpstreamFilter& filter : filters_) {
    if (filter.degraded) return true;
  }
  return false;
}

}  // namespace fbdr::topology
