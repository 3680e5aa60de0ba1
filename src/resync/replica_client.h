#pragma once

#include <map>
#include <memory>
#include <string>

#include "net/channel.h"
#include "resync/master.h"
#include "sync/replica_content.h"

namespace fbdr::resync {

/// Replica-side ReSync client for one replicated query: runs the update
/// session against a master through a net::Channel, applies the received
/// PDUs to a local content store, and exposes the store for serving queries.
///
/// Transport faults (net::TransportError) are retried under the configured
/// RetryPolicy; the master's replay-safe cookies make those retries
/// idempotent. A stale cookie (session expired, master restarted) triggers
/// the full-reload recovery when auto-recover is enabled.
class ReSyncReplica {
 public:
  /// Direct in-process link to the master (owns a DirectChannel).
  ReSyncReplica(ReSyncMaster& master, ldap::Query query);

  /// Session over an explicit (possibly faulty) channel.
  ReSyncReplica(net::Channel& channel, ldap::Query query);

  /// Retry discipline for transport failures. Default: no retries. The same
  /// attempt/backoff schedule paces retries of busy-rejected initial
  /// requests (admission control at a governed master).
  void set_retry_policy(net::RetryPolicy policy) { retry_ = policy; }

  /// Sends the initial request (null cookie) in the given mode. A busy
  /// rejection (master at its session cap) is retried with backoff under the
  /// retry policy; ldap::BusyError propagates once attempts run out.
  void start(Mode mode = Mode::Poll);

  /// Poll-mode pull of accumulated updates. Throws ldap::StaleCookieError
  /// when the session is unknown/expired at the master (unless recovery is
  /// enabled) and net::TransportError when the link fails past the retry
  /// budget; other protocol errors always propagate.
  ///
  /// A paged response (`more`) is followed up immediately: each page is
  /// applied and advances the cookie, so a transport failure mid-drain
  /// resumes at the next unfetched page after the retry.
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

  /// Number of recoveries performed. Always equals
  /// full_reloads() + reconciles().
  std::uint64_t recoveries() const noexcept { return recoveries_; }

  /// Recoveries (or starts after a recovery fallback) that reloaded the
  /// entire content.
  std::uint64_t full_reloads() const noexcept { return full_reloads_; }

  /// Recoveries healed by a reconciliation walk (in-sync or diff).
  std::uint64_t reconciles() const noexcept { return reconciles_; }

  /// Walks the master refused (divergence/cap) — a subset of full_reloads().
  std::uint64_t reconcile_fallbacks() const noexcept {
    return reconcile_fallbacks_;
  }

  /// Diff PDUs received by completed walks — the O(diff) shipping the
  /// chaos suites assert on.
  std::uint64_t reconcile_entries_shipped() const noexcept {
    return reconcile_entries_shipped_;
  }

  /// Transport retries spent across all exchanges.
  std::uint64_t retries() const noexcept { return retries_; }

  /// Busy rejections absorbed by start() before a session was admitted.
  std::uint64_t busy_rejections() const noexcept { return busy_rejections_; }

  /// Continuation pages fetched beyond the first response of a poll/start.
  std::uint64_t pages_fetched() const noexcept { return pages_fetched_; }

  /// Responses that carried a complete enumeration — the master answered
  /// from a degraded (equation (3)) session or healed a stripped replay.
  std::uint64_t degraded_polls() const noexcept { return degraded_polls_; }

  /// Ends the session (mode sync_end).
  void sync_end();

  /// Abandons a persistent search (the other way a session ends).
  void abandon();

  /// Delivers pushed notifications (persist mode); normally invoked via a
  /// NotificationRouter installed as the master's sink.
  void deliver(const std::vector<EntryPdu>& pdus);

  const sync::ReplicaContent& content() const noexcept { return content_; }
  const std::string& cookie() const noexcept { return cookie_; }
  bool active() const noexcept { return active_; }

 private:
  ReSyncResponse request(const ReSyncControl& control);
  void apply(const ReSyncResponse& response);
  /// Fetches and applies continuation pages until the final one. Returns the
  /// number of PDUs applied from the continuation pages.
  std::size_t drain_pages(const ReSyncResponse& first, Mode mode);
  /// Initial request (busy-retried); `reconcile` rides along when non-null.
  ReSyncResponse initial_exchange(
      Mode mode, const std::shared_ptr<const ReconcileRequest>& reconcile);
  /// Stale-cookie recovery: digest walk when possible, full reload otherwise.
  void recover();
  /// Adopts a full-reload recovery response (cookie, content, pages) and
  /// counts the recovery.
  void adopt_reload(const ReSyncResponse& response);

  std::unique_ptr<net::Channel> owned_channel_;
  net::Channel* channel_;
  ldap::Query query_;
  sync::ReplicaContent content_;
  net::RetryPolicy retry_;
  std::string cookie_;
  Mode mode_ = Mode::Poll;
  bool active_ = false;
  bool auto_recover_ = false;
  bool reconcile_ = true;
  std::uint64_t recoveries_ = 0;
  std::uint64_t full_reloads_ = 0;
  std::uint64_t reconciles_ = 0;
  std::uint64_t reconcile_fallbacks_ = 0;
  std::uint64_t reconcile_entries_shipped_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t busy_rejections_ = 0;
  std::uint64_t pages_fetched_ = 0;
  std::uint64_t degraded_polls_ = 0;
};

/// Routes persist-mode notifications from one master to the replicas that
/// own the corresponding sessions. Install via master.set_notification_sink.
class NotificationRouter {
 public:
  void attach(ReSyncMaster& master);
  void subscribe(ReSyncReplica& replica);
  void unsubscribe(const std::string& cookie);

 private:
  std::map<std::string, ReSyncReplica*> by_cookie_;
};

}  // namespace fbdr::resync
