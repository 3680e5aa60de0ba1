#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ldap/entry.h"
#include "sync/content_digest.h"
#include "sync/update_batch.h"

namespace fbdr::sync {

/// The replica-side entry store for one replicated query: applies update
/// batches produced by any sync back-end. Convergence means this store's
/// contents equal the master-side ContentTracker's after each poll.
class ReplicaContent {
 public:
  /// Applies one batch. Handles full reloads, the add/mod/delete actions of
  /// equation (2) and the retain-based complete enumeration of equation (3).
  /// Deletes of unknown DNs (the conservative notifications of the baseline
  /// protocols) are ignored.
  ///
  /// Paged batches (`more`/`continued`) are applied incrementally: a full
  /// reload clears only on the first page, and a complete enumeration's
  /// mentioned set accumulates across pages so unmentioned entries are
  /// dropped only once the final page arrived. A non-continued batch
  /// supersedes any unfinished paged one (aborted pagination).
  void apply(const UpdateBatch& batch);

  bool contains(const ldap::Dn& dn) const;
  ldap::EntryPtr find(const ldap::Dn& dn) const;
  std::size_t size() const noexcept { return entries_.size(); }

  /// Sorted normalized DN keys (for convergence comparison).
  std::vector<std::string> keys() const;

  std::vector<ldap::EntryPtr> entries() const;

  /// Digest tree over the stored entries, maintained incrementally by
  /// apply(). A recovering client offers its root/bucket digests to the
  /// master instead of accepting a full reload (DESIGN.md §12).
  const ContentDigest& digest() const noexcept { return digest_; }

  /// Fingerprints of the stored entries whose DN keys fall in `buckets`
  /// (the round-2 payload of a reconciliation walk).
  std::vector<EntryFingerprint> fingerprints_for(
      const std::vector<std::uint32_t>& buckets) const;

  void clear() {
    entries_.clear();
    enum_mentioned_.clear();
    enum_pending_ = false;
    digest_.clear();
  }

 private:
  std::map<std::string, ldap::EntryPtr> entries_;
  ContentDigest digest_;
  /// DNs mentioned so far by an in-flight paged complete enumeration.
  std::set<std::string> enum_mentioned_;
  bool enum_pending_ = false;
};

}  // namespace fbdr::sync
