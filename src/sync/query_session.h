#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "server/dit.h"
#include "sync/content_tracker.h"
#include "sync/update_batch.h"

namespace fbdr::sync {

/// The per-replicated-query synchronization state a ReSync master keeps for
/// one session: the content tracker, the pending events since the last poll
/// (the session history) and the replica's last acknowledged view.
///
/// Complete-history polls compact pending events into the minimal update set
/// of equation (2); incomplete-history polls fall back to the retain-based
/// complete enumeration of equation (3).
class QuerySession {
 public:
  explicit QuerySession(ldap::Query query,
                        const ldap::Schema& schema = ldap::Schema::default_instance());

  const ldap::Query& query() const { return tracker_.query(); }
  const ContentTracker& tracker() const { return tracker_; }
  bool initialized() const noexcept { return initialized_; }

  /// Full initial content (clears history).
  UpdateBatch initial(const server::Dit& dit);

  /// Initializes the tracker and clears history WITHOUT building the initial
  /// batch or acking anything. Used for provisional sessions created while a
  /// reconciliation walk decides what (if anything) the replica needs.
  void prepare(const server::Dit& dit);

  /// Marks the entire current content as acknowledged by the replica. Called
  /// when a reconciliation walk proves the replica already holds the exact
  /// content (in-sync short-circuit).
  void ack_content();

  /// The entire current content as a full-reload batch; acks everything.
  /// Used when a reconciliation walk falls back to shipping it all.
  UpdateBatch full_content_batch();

  /// Reconciliation round 2: given the replica's fingerprints for the
  /// divergent `buckets`, builds the exact diff — content entries missing or
  /// mismatched replica-side ship as adds, fingerprinted entries absent from
  /// the content ship as deletes. Acks the full content afterwards so the
  /// session continues with complete-history polls (DESIGN.md §12).
  UpdateBatch diff_batch(const std::vector<EntryFingerprint>& fingerprints,
                         const std::vector<std::uint32_t>& buckets);

  /// Feeds one journaled master change into the session history. Returns the
  /// content events the change produced (the master's ChangeRouter mirrors
  /// its holder index from them).
  std::vector<ContentEvent> on_change(const server::ChangeRecord& record);

  /// Minimal updates since the last poll (equation (2)); requires the
  /// session history fed via on_change.
  UpdateBatch poll();

  /// Retain-based updates (equation (3)): changed in-content entries as
  /// add/mod plus retain DNs for unchanged ones; the replica drops anything
  /// unmentioned. Used when the server keeps no per-session leave history.
  /// Answering heals a degraded session back to complete-history tracking
  /// (the enumeration re-established the replica's exact view).
  UpdateBatch poll_with_retains();

  /// Drops the event history under resource pressure, keeping only the
  /// compact set of touched DN keys (no entry bodies, no per-event records).
  /// The next poll must use poll_with_retains(): touched keys ship as mods,
  /// unchanged content as retains, so the replica stays exact even though
  /// the leave history is gone (equation (3) degradation).
  void degrade();
  bool degraded() const noexcept { return degraded_; }

  /// Second-stage degradation: even the touched-key set is dropped; the next
  /// poll_with_retains() ships every content entry in full (no retains).
  /// Session history cost becomes zero at the price of one full enumeration.
  void collapse_history();
  bool history_collapsed() const noexcept { return full_bodies_; }

  /// Pending (unpolled) events — the history size the master holds.
  std::size_t pending_events() const noexcept { return pending_.size(); }

  /// History accounting units the governor budgets: pending events while
  /// complete, touched keys while degraded, zero once collapsed.
  std::size_t history_units() const noexcept {
    return pending_.size() + touched_.size();
  }

  /// The entire current content as one complete enumeration with full bodies
  /// (adds only). Touches no session state — used to answer a duplicated
  /// poll whose cached response had its entry bodies stripped: applying it
  /// converges the replica whether or not the original response was applied.
  UpdateBatch snapshot_enumeration() const;

  /// Re-anchors the session after journal compaction left a gap it cannot
  /// replay: recomputes the content from the DIT and synthesizes the
  /// Enter/Update/Leave events for every difference, feeding them through
  /// the normal history path. Returns the events so the master can re-mirror
  /// its routing index.
  std::vector<ContentEvent> rebase(const server::Dit& dit);

 private:
  void note_events(const std::vector<ContentEvent>& events);

  ContentTracker tracker_;
  std::vector<ContentEvent> pending_;
  std::set<std::string> touched_;  // degraded history: touched DN keys only
  std::map<std::string, ldap::Dn> acked_;  // replica's last known DNs
  bool initialized_ = false;
  bool degraded_ = false;
  bool full_bodies_ = false;  // collapsed: next eq(3) poll ships everything
};

}  // namespace fbdr::sync
