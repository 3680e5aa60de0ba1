#include "resync/replica_client.h"

#include <algorithm>

#include "ldap/error.h"

namespace fbdr::resync {

ReSyncReplica::ReSyncReplica(ReSyncMaster& master, ldap::Query query)
    : owned_channel_(std::make_unique<net::DirectChannel>(master)),
      channel_(owned_channel_.get()),
      query_(std::move(query)) {}

ReSyncReplica::ReSyncReplica(net::Channel& channel, ldap::Query query)
    : channel_(&channel), query_(std::move(query)) {}

ReSyncResponse ReSyncReplica::request(const ReSyncControl& control) {
  return net::exchange_with_retry(*channel_, query_, control, retry_, &retries_);
}

void ReSyncReplica::apply(const ReSyncResponse& response) {
  if (response.complete_enumeration && !response.continued) ++degraded_polls_;
  content_.apply(to_batch(response));
}

std::size_t ReSyncReplica::drain_pages(const ReSyncResponse& first, Mode mode) {
  // Each page is applied as it arrives and advances the cookie, so the
  // client never holds more than one page and a mid-drain transport failure
  // resumes at the next unfetched page (the last page replays from the
  // master's cache if the loss hit the response).
  bool more = first.more;
  std::size_t applied = 0;
  while (more) {
    const ReSyncResponse page = request({mode, cookie_});
    cookie_ = page.cookie;
    ++pages_fetched_;
    applied += page.pdus.size();
    content_.apply(to_batch(page));
    more = page.more;
  }
  return applied;
}

ReSyncResponse ReSyncReplica::initial_exchange(
    Mode mode, const std::shared_ptr<const ReconcileRequest>& reconcile) {
  ReSyncControl control{mode, ""};
  control.reconcile = reconcile;
  ReSyncResponse response = request(control);
  // Admission control: a governed master at its session cap answers busy
  // without creating a session. Retry the initial request under the same
  // backoff schedule as transport retries.
  std::size_t attempt = 0;
  while (response.busy) {
    if (attempt + 1 >= std::max<std::size_t>(retry_.max_attempts, 1)) {
      throw ldap::BusyError("master at session capacity; " +
                            std::to_string(attempt + 1) +
                            " initial request(s) rejected busy");
    }
    channel_->elapse(retry_.backoff(attempt));
    ++attempt;
    ++busy_rejections_;
    response = request(control);
  }
  return response;
}

void ReSyncReplica::start(Mode mode) {
  mode_ = mode;
  const ReSyncResponse response = initial_exchange(mode, nullptr);
  cookie_ = response.cookie;
  active_ = true;
  apply(response);
  drain_pages(response, mode);
}

void ReSyncReplica::adopt_reload(const ReSyncResponse& response) {
  ++recoveries_;
  ++full_reloads_;
  cookie_ = response.cookie;
  active_ = true;
  apply(response);
  drain_pages(response, Mode::Poll);
}

void ReSyncReplica::recover() {
  // A recovery is counted, under exactly one heal mode, once the exchange
  // that establishes its new session succeeds. A transport failure before
  // that leaves the old cookie stale, so the next poll recovers afresh.
  if (!reconcile_ || content_.size() == 0) {
    // Reconciliation disabled, or nothing local to reconcile against: the
    // full reload IS the diff.
    adopt_reload(initial_exchange(Mode::Poll, nullptr));
    return;
  }
  // Round 1: offer the local content's digests instead of accepting a full
  // reload (DESIGN.md §12).
  auto offer = std::make_shared<ReconcileRequest>();
  offer->round = 1;
  offer->root_digest = content_.digest().root();
  offer->entry_count = content_.digest().entry_count();
  offer->buckets = content_.digest().bucket_digests();
  const ReSyncResponse response = initial_exchange(Mode::Poll, offer);
  if (!response.reconcile) {
    // The peer does not speak reconciliation: the offer was ignored and a
    // plain initial full reload came back (version gating).
    adopt_reload(response);
    return;
  }
  if (response.reconcile->fallback) {
    // Diverged too far (or walk cap): the master shipped the content.
    ++reconcile_fallbacks_;
    adopt_reload(response);
    return;
  }
  if (response.reconcile->in_sync) {
    // Roots matched: nothing shipped at all; resume polling.
    ++recoveries_;
    ++reconciles_;
    cookie_ = response.cookie;
    active_ = true;
    return;
  }
  // Round 2: upload fingerprints for the divergent buckets; the answer is
  // the exact diff (plus continuation pages when the master paginates).
  auto upload = std::make_shared<ReconcileRequest>();
  upload->round = 2;
  upload->fingerprints =
      content_.fingerprints_for(response.reconcile->need_buckets);
  try {
    ReSyncControl control{Mode::Poll, response.cookie};
    control.reconcile = upload;
    const ReSyncResponse diff = request(control);
    ++recoveries_;
    ++reconciles_;
    cookie_ = diff.cookie;
    active_ = true;
    std::size_t shipped = diff.pdus.size();
    apply(diff);
    shipped += drain_pages(diff, Mode::Poll);
    reconcile_entries_shipped_ += shipped;
  } catch (const ldap::StaleCookieError&) {
    // The walk expired between rounds: the plain reload path always works.
    adopt_reload(initial_exchange(Mode::Poll, nullptr));
  }
}

void ReSyncReplica::poll() {
  if (!active_) {
    throw ldap::ProtocolError("poll() before start()");
  }
  try {
    const ReSyncResponse response = request({Mode::Poll, cookie_});
    cookie_ = response.cookie;
    apply(response);
    drain_pages(response, Mode::Poll);
  } catch (const ldap::StaleCookieError&) {
    // Session lost at the master (expiry or restart): recover. With
    // reconciliation, only the divergent entries ship; without it, the
    // initial response is a full reload — convergence either way. Any other
    // protocol error is a client or protocol bug and propagates.
    if (!auto_recover_) throw;
    recover();
  }
}

void ReSyncReplica::sync_end() {
  if (!active_) return;
  request({Mode::SyncEnd, cookie_});
  active_ = false;
}

void ReSyncReplica::abandon() {
  if (!active_) return;
  channel_->abandon(cookie_);
  active_ = false;
}

void ReSyncReplica::deliver(const std::vector<EntryPdu>& pdus) {
  content_.apply(from_pdus(pdus, /*full_reload=*/false,
                           /*complete_enumeration=*/false));
}

void NotificationRouter::attach(ReSyncMaster& master) {
  master.set_notification_sink(
      [this](const std::string& cookie, const std::vector<EntryPdu>& pdus) {
        const auto it = by_cookie_.find(cookie);
        if (it != by_cookie_.end()) it->second->deliver(pdus);
      });
}

void NotificationRouter::subscribe(ReSyncReplica& replica) {
  by_cookie_[replica.cookie()] = &replica;
}

void NotificationRouter::unsubscribe(const std::string& cookie) {
  by_cookie_.erase(cookie);
}

}  // namespace fbdr::resync
