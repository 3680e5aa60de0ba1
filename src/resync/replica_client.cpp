#include "resync/replica_client.h"

#include <algorithm>
#include <exception>

#include "ldap/error.h"

namespace fbdr::resync {

using Outcome = UpstreamSession::Outcome;

ReSyncReplica::ReSyncReplica(ReSyncMaster& master, ldap::Query query)
    : owned_channel_(std::make_unique<net::DirectChannel>(master)),
      channel_(owned_channel_.get()),
      session_(std::move(query), 0) {}

ReSyncReplica::ReSyncReplica(net::Channel& channel, ldap::Query query)
    : channel_(&channel), session_(std::move(query), 0) {}

namespace {

/// A stale answer carried past the session's own heal (see StaleGuard).
struct SessionLost {
  std::exception_ptr error;
};

/// The link of a poll with auto-recover off: any exchange of the poll that
/// meets a stale cookie (the first send, a transport retry, a continuation
/// page) throws SessionLost, which UpstreamSession::finish_poll does not
/// catch, instead of ldap::StaleCookieError, which it would heal.
class StaleGuard final : public net::Channel {
 public:
  explicit StaleGuard(net::Channel& inner) : inner_(&inner) {}

  ReSyncResponse exchange(const ldap::Query& query,
                          const ReSyncControl& control) override {
    try {
      return inner_->exchange(query, control);
    } catch (const ldap::StaleCookieError&) {
      throw SessionLost{std::current_exception()};
    }
  }
  void abandon(const std::string& cookie) override { inner_->abandon(cookie); }
  void elapse(std::uint64_t ticks) override { inner_->elapse(ticks); }

 private:
  net::Channel* inner_;
};

}  // namespace

void ReSyncReplica::settle(Outcome outcome, bool recovery, Mode mode) {
  // Admission control: a governed master at its session cap answers busy
  // without creating a session. Retry under the same backoff schedule as
  // transport retries.
  const std::size_t attempts = std::max<std::size_t>(retry_.max_attempts, 1);
  for (std::size_t attempt = 1; outcome == Outcome::Busy && attempt < attempts;
       ++attempt) {
    channel_->elapse(retry_.backoff(attempt - 1));
    outcome = session_.establish(link(), recovery, mode);
  }
  throw_unless_synced(outcome, session_, "sync");
}

void ReSyncReplica::start(Mode mode) {
  settle(session_.establish(link(), false, mode), /*recovery=*/false, mode);
  active_ = true;
}

void ReSyncReplica::poll() {
  if (!active_) {
    throw ldap::ProtocolError("poll() before start()");
  }
  if (!session_.steady()) {
    // The link failed past the retry budget on an earlier poll: end that
    // session and heal by walk or reload, as the service and relays do.
    settle(session_.establish(link(), true), /*recovery=*/true, Mode::Poll);
    return;
  }
  // The item is unsent, so finish_poll runs the whole retry policy. Without
  // auto-recover a lost session is the caller's to handle: the poll runs
  // over the guard.
  net::ExchangeItem item(session_.query(), {Mode::Poll, session_.cookie()});
  StaleGuard guard(*channel_);
  net::Channel& channel = auto_recover_ ? *channel_ : guard;
  try {
    settle(session_.finish_poll({channel, retry_, *this}, item),
           /*recovery=*/true, Mode::Poll);
  } catch (const SessionLost& lost) {
    std::rethrow_exception(lost.error);
  }
}

void ReSyncReplica::sync_end() {
  if (!active_) return;
  session_.end(*channel_);
  active_ = false;
}

void ReSyncReplica::abandon() {
  if (!active_) return;
  channel_->abandon(session_.cookie());
  session_.forget();
  active_ = false;
}

void ReSyncReplica::deliver(const std::vector<EntryPdu>& pdus) {
  content_.apply(from_pdus(pdus, /*full_reload=*/false,
                           /*complete_enumeration=*/false));
}

std::map<std::string, ldap::EntryPtr> ReSyncReplica::snapshot(
    std::size_t /*slot*/) {
  // With reconciliation off there is nothing to offer: recoveries reload.
  if (!reconcile_) return {};
  return content_.by_key();
}

void ReSyncReplica::apply_delta(std::size_t /*slot*/,
                                const ReSyncResponse& response) {
  content_.apply(to_batch(response));
}

void ReSyncReplica::adopt_full(std::size_t /*slot*/,
                               const ReSyncResponse& response,
                               bool /*recovery*/) {
  content_.apply(to_batch(response));
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

}  // namespace fbdr::resync
