#include "topology/relay_node.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "ldap/error.h"
#include "ldap/text.h"

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
}

void RelayNode::connect(std::shared_ptr<net::Channel> channel,
                        std::string parent_url) {
  channel_ = std::move(channel);
  parent_url_ = std::move(parent_url);
}

void RelayNode::add_filter(const Query& query) {
  const std::string key = query.key();
  for (const UpstreamFilter& filter : filters_) {
    if (filter.session.query().key() == key) return;
  }
  replica_.add_query(query);
  filters_.push_back({resync::UpstreamSession(query, filters_.size()), {}});
}

resync::UpstreamLink RelayNode::link() {
  return {*channel_, config_.retry, *this};
}

bool RelayNode::install_all() {
  if (down_ || channel_ == nullptr) return false;
  bool all = true;
  for (UpstreamFilter& filter : filters_) {
    if (!filter.session.cookie().empty()) continue;
    const resync::UpstreamSession::Outcome outcome =
        filter.session.establish(link(), /*recovery=*/false);
    if (outcome == resync::UpstreamSession::Outcome::Referred) {
      referred_to_ = filter.session.referral();  // runtime must re-target first
      return false;
    }
    // A failed install leaves the filter degraded; it heals through sync().
    if (outcome != resync::UpstreamSession::Outcome::Synced) all = false;
  }
  return all && referred_to_.empty();
}

void RelayNode::sync() {
  if (down_) return;
  epoch_bumped_this_round_ = false;
  // Stop pumping a parent that refused us until the runtime re-targets.
  if (channel_ != nullptr && referred_to_.empty() && !filters_.empty()) {
    std::vector<resync::UpstreamSession*> sessions;
    sessions.reserve(filters_.size());
    for (UpstreamFilter& filter : filters_) sessions.push_back(&filter.session);
    const resync::PollRound round = resync::poll_round(sessions, link());
    referred_to_ = round.referral;
    failed_streak_ = round.answered ? 0 : failed_streak_ + 1;
  }

  // The relay's content is only as fresh as its stalest session.
  if (!filters_.empty()) {
    std::uint64_t oldest = filters_.front().session.origin_time();
    for (const UpstreamFilter& filter : filters_) {
      oldest = std::min(oldest, filter.session.origin_time());
    }
    root_time_ = oldest;
  }

  downstream_.pump();
  downstream_.tick(1);
}

std::map<std::string, EntryPtr> RelayNode::snapshot(std::size_t slot) {
  std::map<std::string, EntryPtr> view;
  for (const auto& [key, dn] : filters_[slot].members) {
    if (EntryPtr entry = mirror_.dit().find(dn)) view.emplace(key, entry);
  }
  return view;
}

void RelayNode::adopt_full(std::size_t slot,
                           const resync::ReSyncResponse& response,
                           bool recovery) {
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
      std::exchange(filters_[slot].members, std::move(shipped));
  for (const auto& [key, dn] : previous) {
    if (filters_[slot].members.count(key) == 0) erase_unless_claimed(dn, slot);
  }
  // A recovery reload rebuilt the content wholesale: descendants must not
  // resume against it.
  if (recovery && !epoch_bumped_this_round_) bump_epoch();
}

void RelayNode::apply_delta(std::size_t slot,
                            const resync::ReSyncResponse& response) {
  std::map<std::string, ldap::Dn>& members = filters_[slot].members;
  std::set<std::string> mentioned;
  for (const resync::EntryPdu& pdu : response.pdus) {
    const std::string key = pdu.dn.norm_key();
    if (response.complete_enumeration) mentioned.insert(key);
    switch (pdu.action) {
      case resync::Action::Add:
      case resync::Action::Modify:
        members.insert_or_assign(key, pdu.dn);
        upsert(pdu.entry);
        break;
      case resync::Action::Delete:
        members.erase(key);
        erase_unless_claimed(pdu.dn, slot);
        break;
      case resync::Action::Retain:
        members.insert_or_assign(key, pdu.dn);  // membership confirmed
        break;
    }
  }
  if (response.complete_enumeration) {
    // Equation (3): unmentioned entries are gone from the parent.
    std::vector<std::pair<std::string, ldap::Dn>> stale;
    for (const auto& [key, dn] : members) {
      if (mentioned.find(key) == mentioned.end()) stale.emplace_back(key, dn);
    }
    for (const auto& [key, dn] : stale) {
      members.erase(key);
      erase_unless_claimed(dn, slot);
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
    // `mods` still drive re-indexing and the journal; `entry` is their result.
    mirror_.modify(entry->dn(), std::move(mods), entry);
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
    // The old parent is likely unreachable (why we are re-parenting); then
    // its orphaned session expires under the admin time limit.
    if (channel_ != nullptr) {
      filter.session.end(*channel_);
    } else {
      filter.session.forget();
    }
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
  // Upstream sessions must be re-established.
  for (UpstreamFilter& filter : filters_) filter.session.forget();
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
  const std::optional<std::uint64_t> epoch =
      ldap::text::parse_u64(std::string_view(cookie).substr(1, bang - 1));
  if (!epoch) {
    throw ldap::ProtocolError("malformed relay cookie epoch '" + cookie + "'");
  }
  if (*epoch != epoch_) {
    throw ldap::StaleCookieError(
        "relay " + url_ + " rebuilt its content (epoch " +
        std::to_string(epoch_) + ", cookie has " + std::to_string(*epoch) + ")");
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
  for (const UpstreamFilter& filter : filters_) {
    stats.filters.emplace(filter.session.query().key(),
                          filter.session.health(downstream_.now()));
  }
  return stats;
}

net::FilterHealth RelayNode::upstream_total() const noexcept {
  net::FilterHealth total;
  for (const UpstreamFilter& filter : filters_) {
    total += filter.session.health(downstream_.now());
  }
  return total;
}

RelayNode::Status RelayNode::status() const {
  return {epoch_, failed_streak_, root_time_, downstream_.session_count(),
          upstream_total()};
}

}  // namespace fbdr::topology
