#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ldap/dn.h"
#include "ldap/entry.h"
#include "ldap/query.h"
#include "net/stats.h"
#include "sync/content_digest.h"
#include "sync/update_batch.h"

namespace fbdr::resync {

/// Update mode requested by the replica (§5.2): "the client can specify the
/// mode of update as polling or notifications".
enum class Mode {
  Poll,     // pull accumulated updates, receive a resumption cookie
  Persist,  // keep the connection open; further changes are pushed
  SyncEnd,  // terminate the session
};

std::string to_string(Mode mode);

/// One digest PDU of a reconciliation walk: a bucket's additive fingerprint
/// plus the entry count it covers (DESIGN.md §12).
using DigestPdu = sync::BucketDigest;

/// Reconciliation offer attached to a request instead of accepting a full
/// reload. Round 1 carries the replica's root digest and per-bucket digests;
/// round 2 carries per-entry fingerprints for the buckets the master flagged
/// as divergent. Version-gated: a master that does not speak reconciliation
/// ignores the field and answers a plain initial full reload.
struct ReconcileRequest {
  int round = 1;
  std::uint64_t root_digest = 0;
  std::uint64_t entry_count = 0;
  std::vector<DigestPdu> buckets;                     // round 1
  std::vector<sync::EntryFingerprint> fingerprints;   // round 2
};

/// Master's answer to a reconciliation round.
struct ReconcileResponse {
  /// Root digests matched: the replica already holds the exact content;
  /// no entries ship at all.
  bool in_sync = false;
  /// Divergence too large (or reconciliation not admitted): the response
  /// carries a plain full reload instead of a diff.
  bool fallback = false;
  /// Round-1 answer: bucket indices whose digests diverged; the replica
  /// must send fingerprints for exactly these in round 2.
  std::vector<std::uint32_t> need_buckets;
};

/// The resync control attached to a search request:
///   reSyncControl = (mode, cookie).
/// An empty cookie marks the initial request of an update session.
struct ReSyncControl {
  Mode mode = Mode::Poll;
  std::string cookie;
  /// Non-null on an initial request offering digests instead of accepting a
  /// full reload, and on the round-2 fingerprint upload.
  std::shared_ptr<const ReconcileRequest> reconcile;

  ReSyncControl() = default;
  ReSyncControl(Mode m, std::string c) : mode(m), cookie(std::move(c)) {}

  bool initial() const noexcept { return cookie.empty(); }
  std::string to_string() const;
};

/// Action carried by a notification/update PDU: "if the action is add or
/// modify, the complete entry is sent, otherwise if the action is delete,
/// only the DN of the entry is sent". Retain conveys the unchanged entries
/// of equation (3) when history information is incomplete.
enum class Action { Add, Modify, Delete, Retain };

std::string to_string(Action action);

/// One update PDU: an entry (or bare DN) plus the action control.
struct EntryPdu {
  Action action = Action::Add;
  ldap::Dn dn;
  ldap::EntryPtr entry;  // null for Delete/Retain

  std::string to_string() const;
};

/// Response to one resync request.
struct ReSyncResponse {
  std::vector<EntryPdu> pdus;
  std::string cookie;        // resumption cookie (poll mode)
  bool persistent = false;   // connection remains open (persist mode)
  bool full_reload = false;  // initial content: replica starts empty
  /// Equation (3) responses enumerate the whole content; unmentioned entries
  /// must be discarded by the replica.
  bool complete_enumeration = false;
  /// Admission control: the server is at its session cap and created no
  /// session. The cookie is unchanged; the client retries with backoff.
  bool busy = false;
  /// Paged responses: `more` means further pages of the SAME logical batch
  /// follow, and the consumer merges every page before it applies the batch
  /// (full_reload and complete-enumeration act on the whole); `continued`
  /// marks pages 2..n of a paged batch.
  bool more = false;
  bool continued = false;
  /// Non-empty when the server did not admit the session: the query is not
  /// contained in the endpoint's replicated set, and the client should
  /// re-target the session at this URL (the relay's parent, mirroring the
  /// default-referral bounce of §2.3). No session was created.
  std::string referral_url;
  /// Logical time at the tree root that the shipped content reflects, as far
  /// as the answering endpoint knows: the root master stamps its own clock;
  /// a relay forwards the root time learned on its last upstream sync. The
  /// difference against the root clock is the per-hop staleness lag.
  std::uint64_t origin_time = 0;
  /// Non-null when the server answered a reconciliation round. Its absence on
  /// a response to a reconcile-offering request means the peer does not speak
  /// reconciliation (old master): the response body is a plain full reload.
  std::shared_ptr<const ReconcileResponse> reconcile;

  bool referred() const noexcept { return !referral_url.empty(); }

  std::size_t entries_sent() const;
  std::size_t dns_sent() const;
};

/// Converts a sync::UpdateBatch into the wire PDUs.
std::vector<EntryPdu> to_pdus(const sync::UpdateBatch& batch);

/// Tallies `pdus` into `traffic`: one entry or DN-only PDU each.
void count_pdus(net::TrafficStats& traffic, const std::vector<EntryPdu>& pdus);

/// Applies wire PDUs back into an UpdateBatch shape (replica side).
sync::UpdateBatch from_pdus(const std::vector<EntryPdu>& pdus, bool full_reload,
                            bool complete_enumeration);

/// Replica-side view of one (page-merged) response as an applyable batch.
sync::UpdateBatch to_batch(const ReSyncResponse& response);

}  // namespace fbdr::resync
