#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace fbdr::resync {

/// Resource budgets for a ReSync master (the enterprise root or a relay's
/// downstream-facing master). Every limit defaults to 0 = unlimited, which
/// reproduces the ungoverned behavior exactly; a production deployment sets
/// all of them so that no single slow, wedged or absent consumer can grow
/// master-side state without bound (§5: the protocol is explicitly designed
/// to survive incomplete history via the retain-based enumeration of
/// equation (3)).
struct ResourceLimits {
  /// Admission control: initial requests beyond this many live sessions are
  /// answered with a protocol-level busy result (no session is created); the
  /// client retries with backoff.
  std::size_t max_sessions = 0;

  /// Per-session history budget, in pending events (complete history) or
  /// touched DNs (degraded history). A poll session exceeding it is degraded:
  /// its event history is dropped and its next poll answers with the
  /// retain-based complete enumeration of equation (3). Persist sessions are
  /// exempt — their history drains on every pump.
  std::size_t max_session_history = 0;

  /// Global history budget across all sessions. When the total exceeds it,
  /// the largest poll sessions are degraded (and, if already degraded,
  /// collapsed to ship-everything mode) until the total fits again.
  std::size_t max_total_history = 0;

  /// Per-session replay-cache budget in approximate entry-body bytes. A
  /// cached last response whose bodies exceed it is stripped; a duplicated
  /// poll is then answered with a fresh complete enumeration instead of the
  /// verbatim replay (convergent either way; see master.cpp).
  std::size_t max_replay_bytes = 0;

  /// Response paging: a poll (or initial) response carries at most this many
  /// PDUs; the remainder is held server-side and fetched with continuation
  /// polls under the ordinary replay-safe cookie sequence. 0 = unpaged.
  std::size_t max_page_entries = 0;

  /// Slow-poller deadline in logical ticks: a poll session idle longer is
  /// evicted by tick() and its cookie goes stale (the client heals through
  /// the existing StaleCookieError full-reload path). Combines with the admin
  /// session time limit; the tighter of the two wins.
  std::uint64_t poll_deadline_ticks = 0;

  /// Retention horizon for the master's change journal, in records: the cap
  /// on a journal reader that stops advancing (readers that keep up trim the
  /// journal themselves). The journal self-trims past it; a master that
  /// pumps after its window was compacted away rebases every session from
  /// the DIT (see ReSyncMaster::pump). 0 = no cap.
  std::size_t journal_retention_records = 0;

  /// Cap on concurrent in-flight reconciliation walks (round 1 answered,
  /// round 2 pending). An offer beyond the cap is answered with a fallback
  /// full reload instead of holding more provisional state. 0 = unlimited.
  std::size_t max_pending_reconciles = 0;

  /// True when any limit is set (the master runs governed).
  bool any() const noexcept {
    return max_sessions != 0 || max_session_history != 0 ||
           max_total_history != 0 || max_replay_bytes != 0 ||
           max_page_entries != 0 || poll_deadline_ticks != 0 ||
           journal_retention_records != 0 || max_pending_reconciles != 0;
  }
};

/// What the governor actually did — the overload observability counters
/// (cumulative; surfaced per hop through topology::NodeHealth).
struct GovernorStats {
  std::uint64_t sessions_rejected_busy = 0;  // admission-control bounces
  std::uint64_t sessions_degraded = 0;       // forced to equation (3)
  std::uint64_t histories_collapsed = 0;     // degraded history overflowed too
  std::uint64_t sessions_evicted = 0;        // dropped past the poll deadline
  std::uint64_t pages_served = 0;            // continuation pages shipped
  std::uint64_t replay_caches_stripped = 0;  // replay bodies dropped
  std::uint64_t compaction_rebases = 0;      // sessions rebased after a journal gap
  std::uint64_t reconcile_walks = 0;          // round-1 walks answered
  std::uint64_t reconciles_completed = 0;     // healed via digest diff/in-sync
  std::uint64_t reconcile_fallbacks = 0;      // diverged/capped -> full reload
  std::uint64_t reconcile_entries_shipped = 0;  // diff PDUs shipped by walks

  /// Folds a per-shard counter delta into this (the sharded pump accumulates
  /// parallel-phase counters shard-locally and merges them at the barrier, so
  /// totals are deterministic regardless of thread interleaving).
  void merge(const GovernorStats& other) noexcept {
    sessions_rejected_busy += other.sessions_rejected_busy;
    sessions_degraded += other.sessions_degraded;
    histories_collapsed += other.histories_collapsed;
    sessions_evicted += other.sessions_evicted;
    pages_served += other.pages_served;
    replay_caches_stripped += other.replay_caches_stripped;
    compaction_rebases += other.compaction_rebases;
    reconcile_walks += other.reconcile_walks;
    reconciles_completed += other.reconciles_completed;
    reconcile_fallbacks += other.reconcile_fallbacks;
    reconcile_entries_shipped += other.reconcile_entries_shipped;
  }

  std::string to_string() const;
};

/// Policy + accounting layer for a governed ReSync master: holds the limits,
/// answers the enforcement questions the master's hot paths ask, and keeps
/// the overload counters. Pure decisions — all state mutation stays in
/// ReSyncMaster, which consults the governor at each enforcement point
/// (admission, history growth, replay caching, response assembly, expiry).
class ResourceGovernor {
 public:
  void set_limits(ResourceLimits limits) { limits_ = limits; }
  const ResourceLimits& limits() const noexcept { return limits_; }

  bool admits(std::size_t live_sessions) const noexcept {
    return limits_.max_sessions == 0 || live_sessions < limits_.max_sessions;
  }

  bool over_session_history(std::size_t units) const noexcept {
    return limits_.max_session_history != 0 &&
           units > limits_.max_session_history;
  }

  bool over_total_history(std::size_t units) const noexcept {
    return limits_.max_total_history != 0 && units > limits_.max_total_history;
  }

  bool over_replay_bytes(std::size_t bytes) const noexcept {
    return limits_.max_replay_bytes != 0 && bytes > limits_.max_replay_bytes;
  }

  /// Page size for response assembly (0 = unpaged).
  std::size_t page_size() const noexcept { return limits_.max_page_entries; }

  /// Effective idle deadline given the admin time limit: the tighter of the
  /// two non-zero values (0 when both are unset — no expiry).
  std::uint64_t effective_deadline(std::uint64_t admin_limit) const noexcept {
    const std::uint64_t deadline = limits_.poll_deadline_ticks;
    if (admin_limit == 0) return deadline;
    if (deadline == 0) return admin_limit;
    return deadline < admin_limit ? deadline : admin_limit;
  }

  GovernorStats& stats() noexcept { return stats_; }
  const GovernorStats& stats() const noexcept { return stats_; }

 private:
  ResourceLimits limits_;
  GovernorStats stats_;
};

}  // namespace fbdr::resync
