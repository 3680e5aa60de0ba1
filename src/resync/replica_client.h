#pragma once

#include <map>
#include <memory>
#include <string>

#include "net/channel.h"
#include "resync/master.h"
#include "resync/upstream_session.h"
#include "sync/replica_content.h"

namespace fbdr::resync {

/// Replica-side ReSync client for one replicated query: runs the update
/// session against a master through a net::Channel, applies the received
/// PDUs to a local content store, and exposes the store for serving queries.
///
/// The session is a resync::UpstreamSession (DESIGN.md §12), the one the
/// service and the relay run; the client is its store. Transport faults
/// (net::TransportError) are retried under the configured RetryPolicy; the
/// master's replay-safe cookies make those retries idempotent. A stale
/// cookie (session expired, master restarted) triggers the recovery — a
/// digest walk or a full reload — when auto-recover is enabled.
class ReSyncReplica : private SessionStore {
 public:
  /// Direct in-process link to the master (owns a DirectChannel).
  ReSyncReplica(ReSyncMaster& master, ldap::Query query);

  /// Session over an explicit (possibly faulty) channel.
  ReSyncReplica(net::Channel& channel, ldap::Query query);

  /// Retry discipline for transport failures. Default: no retries. The same
  /// attempt/backoff schedule paces retries of busy-rejected initial
  /// requests (admission control at a governed master).
  void set_retry_policy(net::RetryPolicy policy) { retry_ = policy; }

  /// Opens the session in the given mode; every request of the opening
  /// (continuation pages, a walk's round 2) carries it, so a persist session
  /// stays one. Content still held from an earlier session (after sync_end
  /// or abandon) is offered as a digest walk, as on recovery. A busy
  /// rejection (master at its session cap) is retried with backoff under the
  /// retry policy; ldap::BusyError propagates once attempts run out,
  /// net::TransportError when the link fails past the retry budget.
  void start(Mode mode = Mode::Poll);

  /// Poll-mode pull of accumulated updates; a paged answer is fetched whole
  /// and applied as one batch. Throws ldap::StaleCookieError when the
  /// session is unknown/expired at the master, on any attempt of the poll
  /// (unless recovery is enabled; recoveries() then stays unchanged), and
  /// net::TransportError when the link fails past the retry budget; the
  /// next poll then ends that session and heals by walk or reload. Busy
  /// answers to a recovery behave as in start(); other protocol errors
  /// always propagate.
  void poll();

  /// When enabled, a poll whose cookie the master no longer recognizes
  /// (session timed out, master restarted) transparently re-starts the
  /// session and polling resumes under the fresh cookie. With reconciliation
  /// on (the default) the restart first offers the local content's digests
  /// so only the divergent entries ship; otherwise (or when the master does
  /// not speak reconciliation, or the walk falls back) the master replies
  /// with the full content and the replica reloads. Only stale-cookie errors
  /// recover; every other protocol error propagates.
  void set_auto_recover(bool enabled) { auto_recover_ = enabled; }

  /// Disables the digest offer on recovery: every recovery is a full reload,
  /// as before reconciliation existed (DESIGN.md §12).
  void set_reconcile(bool enabled) { reconcile_ = enabled; }

  /// The session's counters (ticks_behind stays 0: the client keeps no
  /// clock). recoveries == full_reloads + reconciles, and
  /// reconcile_fallbacks (walks the master refused) <= full_reloads.
  net::FilterHealth health() const { return session_.health(0); }
  std::uint64_t recoveries() const { return health().recoveries; }
  std::uint64_t full_reloads() const { return health().full_reloads; }
  std::uint64_t reconciles() const { return health().reconciles; }
  std::uint64_t reconcile_fallbacks() const {
    return health().reconcile_fallbacks;
  }
  std::uint64_t reconcile_entries_shipped() const {
    return health().reconcile_entries_shipped;
  }
  std::uint64_t retries() const { return health().retries; }
  std::uint64_t busy_rejections() const { return health().busy_rejections; }
  /// Continuation pages fetched beyond the first response of an exchange.
  std::uint64_t pages_fetched() const { return health().paged_polls; }
  /// Polls answered with a complete enumeration — the master answered from
  /// a degraded (equation (3)) session or healed a stripped replay.
  std::uint64_t degraded_polls() const { return health().degraded_polls; }

  /// Ends the session (mode sync_end, best effort).
  void sync_end();

  /// Abandons a persistent search (the other way a session ends) and
  /// forgets its cookie.
  void abandon();

  /// Takes one push of the session (persist mode; see
  /// UpstreamSession::accept_push); normally invoked via a
  /// NotificationRouter installed as the master's sink.
  void deliver(const ReSyncResponse& push);

  const sync::ReplicaContent& content() const noexcept { return content_; }
  const std::string& cookie() const noexcept { return session_.cookie(); }
  bool active() const noexcept { return active_; }

 private:
  UpstreamLink link() { return {*channel_, retry_, *this}; }
  /// Re-establishes while `outcome` is Busy, backing off under the retry
  /// policy, and throws what start()/poll() promise for a session that did
  /// not sync.
  void settle(UpstreamSession::Outcome outcome, bool recovery, Mode mode);

  // resync::SessionStore over content_ (one slot).
  std::map<std::string, ldap::EntryPtr> snapshot(std::size_t slot) override;
  void apply_delta(std::size_t slot, const ReSyncResponse& response) override;
  void adopt_full(std::size_t slot, const ReSyncResponse& response,
                  bool recovery) override;
  std::uint64_t now() const override { return 0; }

  std::unique_ptr<net::Channel> owned_channel_;
  net::Channel* channel_;
  UpstreamSession session_;
  sync::ReplicaContent content_;
  net::RetryPolicy retry_;
  bool active_ = false;
  bool auto_recover_ = false;
  bool reconcile_ = true;
};

/// The in-process stand-in for a push transport: installs itself as one
/// master's sink, binds each subscribed replica's persist session to a link
/// of its own and delivers that link's pushes to the replica.
class NotificationRouter {
 public:
  void attach(ReSyncMaster& master);
  /// Binds the replica's session; call after replica.start(Mode::Persist).
  void subscribe(ReSyncReplica& replica);

 private:
  ReSyncMaster* master_ = nullptr;
  std::map<std::uint64_t, ReSyncReplica*> by_link_;
};

}  // namespace fbdr::resync
