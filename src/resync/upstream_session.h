#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "ldap/entry.h"
#include "ldap/query.h"
#include "net/channel.h"
#include "net/stats.h"
#include "resync/protocol.h"

namespace fbdr::resync {

/// The store seam between upstream sessions and the site that owns them:
/// the site's local copy of each replicated filter, addressed by the slot
/// the site gave the session. FilterReplicationService backs it with its
/// FilterReplica's per-query content; RelayNode with its journaled mirror
/// and per-filter membership sets; ReSyncReplica with its ReplicaContent.
class SessionStore {
 public:
  virtual ~SessionStore() = default;

  /// The local view of the slot's content, keyed by normalized DN — what a
  /// digest walk offers. Empty means nothing to reconcile against.
  virtual std::map<std::string, ldap::EntryPtr> snapshot(std::size_t slot) = 0;

  /// Applies one poll's page-combined PDUs. A complete enumeration
  /// (equation (3)) also drops every entry it does not mention.
  virtual void apply_delta(std::size_t slot, const ReSyncResponse& response) = 0;

  /// Replaces the slot's content with a full enumeration. `recovery` marks
  /// a reload that heals lost session state rather than a first load.
  virtual void adopt_full(std::size_t slot, const ReSyncResponse& response,
                          bool recovery) = 0;

  /// The site's clock: every successful sync is stamped with it, and
  /// FilterHealth::ticks_behind is measured against it.
  virtual std::uint64_t now() const = 0;
};

/// What a site lends its sessions for one round: the link to its upstream
/// endpoint, the retry discipline for that link, and its store.
struct UpstreamLink {
  net::Channel& channel;
  const net::RetryPolicy& retry;
  SessionStore& store;
};

/// The consumer side of one ReSync update session against an upstream
/// endpoint (the root master or a relay), shared by every site that keeps a
/// replicated filter current (DESIGN.md §12, "One upstream session"):
///
///  - steady: a cookie is held; each round polls with it (pipelined with
///    the site's other steady sessions, see poll_round), pages the answer
///    out and applies it as one delta;
///  - stale or degraded: the upstream forgot the cookie, or the link failed
///    past the retry budget; establish() ends the abandoned session, then
///    opens a fresh one — a digest walk over the local snapshot first, a
///    full reload when there is nothing to offer, the upstream refuses the
///    walk, or the walk expires — and the session is steady again.
///
/// A busy upstream or a dead link leaves the session degraded (the local
/// content keeps serving); a referral is reported to the site, which
/// re-wires. Counters live in one net::FilterHealth; full_reloads and
/// reconciles count only recoveries, so recoveries == full_reloads +
/// reconciles always holds, and reconcile_fallbacks <= full_reloads.
class UpstreamSession {
 public:
  enum class Outcome {
    Synced,    // the upstream answered; the store holds the result
    Failed,    // the link failed past the retry budget
    Busy,      // the upstream is at session capacity
    Referred,  // the upstream does not serve the query; see referral()
  };

  UpstreamSession(ldap::Query query, std::size_t slot);

  const ldap::Query& query() const noexcept { return query_; }
  std::size_t slot() const noexcept { return slot_; }
  const std::string& cookie() const noexcept { return cookie_; }
  bool degraded() const noexcept { return health_.degraded; }
  /// A cookie is held and the link is up: the next round is a plain poll.
  bool steady() const noexcept { return !cookie_.empty() && !health_.degraded; }
  /// Root-master time of the freshest answer received (origin_time).
  std::uint64_t origin_time() const noexcept { return origin_time_; }
  /// The referral target of the last Referred outcome.
  const std::string& referral() const noexcept { return referral_; }

  /// The session's counters, ticks_behind measured at `now` on the store
  /// clock.
  net::FilterHealth health(std::uint64_t now) const;

  /// Opens a fresh session: a first load, or (`recovery`) a heal of lost
  /// session state that is counted as one. A session still held upstream
  /// (the link failed past the retry budget) is ended first, so it does not
  /// linger there under an admin limit of 0; when that SyncEnd cannot get
  /// through the outcome is Failed and the cookie is kept for the next
  /// attempt, otherwise the old cookie is gone whatever the outcome. `mode`
  /// is carried by every request of the establishment: the initial request,
  /// its continuation pages and a walk's round 2. Busy and Failed degrade
  /// the session.
  Outcome establish(const UpstreamLink& link, bool recovery,
                    Mode mode = Mode::Poll);

  /// Finishes this session's poll from an exchange_all batch: a
  /// TransportError in the batch is the first attempt of the retry policy;
  /// the reply is paged out and applied; a stale cookie re-establishes the
  /// session as a recovery.
  Outcome finish_poll(const UpstreamLink& link, net::ExchangeItem& item);

  /// Ends the session at the upstream (best effort: an orphaned session
  /// expires under the upstream's admin limit), then forgets it.
  void end(net::Channel& channel);

  /// Forgets the session without telling the upstream (its state died with
  /// the process): the next round re-establishes it, not as a recovery.
  void forget();

 private:
  ReSyncResponse request(const UpstreamLink& link, const ReSyncControl& control);
  /// Adopts `first`'s cookie and fetches its remaining pages in `mode` (the
  /// mode of the request they continue), advancing the cookie page by page
  /// and merging them into `first`. Collect-then-apply:
  /// a failure mid-drain propagates before the store was touched, so a torn
  /// pagination never leaves half a delta or half an eq.(3) drop behind.
  void collect_pages(const UpstreamLink& link, Mode mode, ReSyncResponse& first);
  /// Records a successful sync at the store clock.
  void synced(const UpstreamLink& link, std::uint64_t origin_time);
  /// Sends SyncEnd for the held cookie, if any, under `retry`, and drops
  /// the cookie. False when the link failed past the retry budget: the
  /// cookie is kept, so the session is ended on a later attempt instead of
  /// being orphaned upstream. A protocol error (already forgotten) counts as
  /// ended.
  bool release(net::Channel& channel, const net::RetryPolicy& retry);
  Outcome open(const UpstreamLink& link, bool recovery, Mode mode);
  Outcome reload(const UpstreamLink& link, Mode mode, ReSyncResponse response,
                 bool recovery);
  /// Completes a digest walk whose round-1 answer is `round1`: the in-sync
  /// short-circuit, or the fingerprint upload and its diff. Throws
  /// StaleCookieError when the walk expired between rounds.
  Outcome walk(const UpstreamLink& link, Mode mode,
               const ReSyncResponse& round1,
               const std::map<std::string, ldap::EntryPtr>& snapshot,
               bool recovery);

  ldap::Query query_;
  std::size_t slot_;
  std::string cookie_;  // empty = no session
  std::string referral_;
  std::uint64_t origin_time_ = 0;
  std::uint64_t last_synced_ = 0;
  net::FilterHealth health_;  // ticks_behind is filled in by health()
};

/// For a site that cannot go on without a synced session: returns on
/// Synced, otherwise throws ldap::BusyError (Busy), ldap::ProtocolError
/// naming the referral (Referred) or net::TransportError (Failed). `action`
/// names the attempt in the message ("install", "sync").
void throw_unless_synced(UpstreamSession::Outcome outcome,
                         const UpstreamSession& session,
                         std::string_view action);

/// The result of one poll_round.
struct PollRound {
  bool answered = false;  // some exchange got an answer (a referral counts)
  std::string referral;   // set when a session was referred; the round stopped
};

/// One sync round over `sessions`, in order: each run of consecutive steady
/// sessions goes upstream as one Channel::exchange_all batch and is finished
/// session by session; every other session is re-established (as a recovery
/// when it was degraded). A referral stops the round.
PollRound poll_round(std::span<UpstreamSession* const> sessions,
                     const UpstreamLink& link);

}  // namespace fbdr::resync
