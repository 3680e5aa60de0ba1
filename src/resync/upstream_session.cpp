#include "resync/upstream_session.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "ldap/error.h"
#include "sync/content_digest.h"

namespace fbdr::resync {

UpstreamSession::UpstreamSession(ldap::Query query, std::size_t slot)
    : query_(std::move(query)), slot_(slot) {}

net::FilterHealth UpstreamSession::health(std::uint64_t now) const {
  net::FilterHealth health = health_;
  health.ticks_behind = now > last_synced_ ? now - last_synced_ : 0;
  return health;
}

ReSyncResponse UpstreamSession::request(const UpstreamLink& link,
                                        const ReSyncControl& control) {
  return net::exchange_with_retry(link.channel, query_, control, link.retry,
                                  &health_.retries);
}

void UpstreamSession::collect_pages(const UpstreamLink& link, Mode mode,
                                    ReSyncResponse& first) {
  cookie_ = first.cookie;
  while (first.more) {
    ReSyncResponse page = request(link, {mode, cookie_});
    ++health_.paged_polls;
    cookie_ = page.cookie;
    first.more = page.more;
    first.full_reload = first.full_reload || page.full_reload;
    first.complete_enumeration =
        first.complete_enumeration || page.complete_enumeration;
    first.origin_time = std::max(first.origin_time, page.origin_time);
    first.pdus.insert(first.pdus.end(),
                      std::make_move_iterator(page.pdus.begin()),
                      std::make_move_iterator(page.pdus.end()));
  }
}

void UpstreamSession::synced(const UpstreamLink& link,
                             std::uint64_t origin_time) {
  // max(): a replayed answer (a duplicate retried through a faulty link) may
  // carry an older stamp; root time must never roll backwards.
  origin_time_ = std::max(origin_time_, origin_time);
  last_synced_ = link.store.now();
}

UpstreamSession::Outcome UpstreamSession::establish(const UpstreamLink& link,
                                                    bool recovery, Mode mode) {
  const Outcome outcome = release(link.channel, link.retry)
                              ? open(link, recovery, mode)
                              : Outcome::Failed;
  if (outcome == Outcome::Synced) {
    health_.degraded = false;
  } else if (outcome != Outcome::Referred) {
    // Stay degraded, serving the local content, and try again on a later
    // round — once the link returns or another session has drained.
    ++health_.failed_syncs;
    health_.degraded = true;
  }
  return outcome;
}

UpstreamSession::Outcome UpstreamSession::open(const UpstreamLink& link,
                                               bool recovery, Mode mode) {
  try {
    std::map<std::string, ldap::EntryPtr> snapshot = link.store.snapshot(slot_);
    for (;;) {
      ReSyncControl control{mode, ""};
      if (!snapshot.empty()) {
        // Round 1: offer digests of the local view instead of accepting a
        // full reload (DESIGN.md §12).
        sync::ContentDigest digest;
        for (const auto& [key, entry] : snapshot) digest.upsert(key, *entry);
        auto offer = std::make_shared<ReconcileRequest>();
        offer->round = 1;
        offer->root_digest = digest.root();
        offer->entry_count = digest.entry_count();
        offer->buckets = digest.bucket_digests();
        control.reconcile = std::move(offer);
      }
      ReSyncResponse response = request(link, control);
      if (response.referred()) {
        referral_ = response.referral_url;
        return Outcome::Referred;
      }
      if (response.busy) {
        // Admission control: no session was created.
        ++health_.busy_rejections;
        return Outcome::Busy;
      }
      if (!response.reconcile || response.reconcile->fallback) {
        // No offer, a peer that does not speak reconciliation, or a walk
        // refused (diverged too far, walk cap): the body is the content.
        return reload(link, mode, std::move(response), recovery);
      }
      cookie_ = response.cookie;
      try {
        return walk(link, mode, response, snapshot, recovery);
      } catch (const ldap::StaleCookieError&) {
        // The walk expired between rounds: reload in full.
        cookie_.clear();
        snapshot.clear();
      }
    }
  } catch (const net::TransportError&) {
    return Outcome::Failed;
  }
}

UpstreamSession::Outcome UpstreamSession::reload(const UpstreamLink& link,
                                                 Mode mode,
                                                 ReSyncResponse response,
                                                 bool recovery) {
  collect_pages(link, mode, response);
  synced(link, response.origin_time);
  link.store.adopt_full(slot_, response, recovery);
  if (recovery) {
    ++health_.recoveries;
    ++health_.full_reloads;
    // A reconcile answer on a reload is a walk the upstream refused.
    if (response.reconcile) ++health_.reconcile_fallbacks;
  }
  return Outcome::Synced;
}

UpstreamSession::Outcome UpstreamSession::walk(
    const UpstreamLink& link, Mode mode, const ReSyncResponse& round1,
    const std::map<std::string, ldap::EntryPtr>& snapshot, bool recovery) {
  std::size_t shipped = 0;
  if (round1.reconcile->in_sync) {
    // Roots matched: the local view is already exact; nothing shipped.
    synced(link, round1.origin_time);
  } else {
    // Round 2: fingerprints for the divergent buckets; the answer is the
    // exact diff, applied as an ordinary delta.
    auto upload = std::make_shared<ReconcileRequest>();
    upload->round = 2;
    const std::set<std::uint32_t> wanted(round1.reconcile->need_buckets.begin(),
                                         round1.reconcile->need_buckets.end());
    for (const auto& [key, entry] : snapshot) {
      if (wanted.count(sync::ContentDigest::bucket_of(key)) == 0) continue;
      upload->fingerprints.push_back(
          {entry->dn(), sync::ContentDigest::hash_entry(*entry)});
    }
    ReSyncControl control{mode, cookie_};
    control.reconcile = std::move(upload);
    ReSyncResponse diff = request(link, control);
    collect_pages(link, mode, diff);
    synced(link, diff.origin_time);
    link.store.apply_delta(slot_, diff);
    shipped = diff.pdus.size();
  }
  if (recovery) {
    ++health_.recoveries;
    ++health_.reconciles;
    health_.reconcile_entries_shipped += shipped;
  }
  return Outcome::Synced;
}

UpstreamSession::Outcome UpstreamSession::finish_poll(const UpstreamLink& link,
                                                      net::ExchangeItem& item) {
  try {
    ReSyncResponse response =
        net::finish_with_retry(link.channel, item, link.retry, &health_.retries);
    collect_pages(link, item.control.mode, response);
    if (response.complete_enumeration) ++health_.degraded_polls;
    synced(link, response.origin_time);
    link.store.apply_delta(slot_, response);
    return Outcome::Synced;
  } catch (const ldap::StaleCookieError&) {
    // The upstream expired or lost the session (restart, relay epoch bump):
    // there is nothing left to end.
    cookie_.clear();
    return establish(link, /*recovery=*/true);
  } catch (const net::TransportError&) {
    // Retry budget exhausted: degrade; the local content keeps serving.
    ++health_.failed_syncs;
    health_.degraded = true;
    return Outcome::Failed;
  }
}

bool UpstreamSession::release(net::Channel& channel,
                              const net::RetryPolicy& retry) {
  if (cookie_.empty()) return true;
  try {
    net::exchange_with_retry(channel, query_, {Mode::SyncEnd, cookie_}, retry,
                             &health_.retries);
  } catch (const net::TransportError&) {
    // The end did not get through: keep the cookie, so the next attempt
    // ends the session before opening another.
    return false;
  } catch (const ldap::ProtocolError&) {
    // The upstream already forgot the session.
  }
  cookie_.clear();
  return true;
}

void UpstreamSession::end(net::Channel& channel) {
  release(channel, net::RetryPolicy{});
  forget();
}

void UpstreamSession::forget() {
  cookie_.clear();
  health_.degraded = false;
}

void throw_unless_synced(UpstreamSession::Outcome outcome,
                         const UpstreamSession& session,
                         std::string_view action) {
  using Outcome = UpstreamSession::Outcome;
  if (outcome == Outcome::Synced) return;
  const std::string what =
      std::string(action) + " of '" + session.query().to_string() + "'";
  if (outcome == Outcome::Busy) {
    throw ldap::BusyError(what + " rejected: upstream at session capacity");
  }
  if (outcome == Outcome::Referred) {
    throw ldap::ProtocolError(what + " referred to " + session.referral());
  }
  throw net::TransportError(what + " failed: link down past the retry budget");
}

PollRound poll_round(std::span<UpstreamSession* const> sessions,
                     const UpstreamLink& link) {
  PollRound round;
  const auto note = [&round](const UpstreamSession& session,
                             UpstreamSession::Outcome outcome) {
    if (outcome == UpstreamSession::Outcome::Referred) {
      round.referral = session.referral();
    }
    if (outcome == UpstreamSession::Outcome::Synced ||
        outcome == UpstreamSession::Outcome::Referred) {
      round.answered = true;
    }
  };
  std::vector<net::ExchangeItem> run;
  for (std::size_t i = 0; i < sessions.size() && round.referral.empty();) {
    UpstreamSession& session = *sessions[i];
    if (!session.steady()) {
      // Never established (a restart or re-wire dropped it) or down past the
      // retry budget: re-establish.
      note(session, session.establish(link, /*recovery=*/session.degraded()));
      ++i;
      continue;
    }
    // Pipeline the polls of this run of steady sessions: one batch per link
    // per round, finished in order.
    run.clear();
    for (std::size_t j = i; j < sessions.size() && sessions[j]->steady(); ++j) {
      run.emplace_back(sessions[j]->query(),
                       ReSyncControl{Mode::Poll, sessions[j]->cookie()});
    }
    link.channel.exchange_all(run);
    for (net::ExchangeItem& item : run) {
      if (!round.referral.empty()) break;
      note(*sessions[i], sessions[i]->finish_poll(link, item));
      ++i;
    }
  }
  return round;
}

}  // namespace fbdr::resync
