#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ldap/entry.h"
#include "sync/update_batch.h"

namespace fbdr::sync {

/// The replica-side entry store for one replicated query: applies update
/// batches produced by any sync back-end. Convergence means this store's
/// contents equal the master-side ContentTracker's after each poll.
class ReplicaContent {
 public:
  ReplicaContent() = default;
  /// Starts from `entries`, keyed by normalized DN.
  explicit ReplicaContent(std::map<std::string, ldap::EntryPtr> entries)
      : entries_(std::move(entries)) {}

  /// Applies one batch. Handles full reloads, the add/mod/delete actions of
  /// equation (2) and the retain-based complete enumeration of equation (3).
  /// Deletes of unknown DNs (the conservative notifications of the baseline
  /// protocols) are ignored. A paged answer is merged into one batch before
  /// it is applied.
  void apply(const UpdateBatch& batch);

  bool contains(const ldap::Dn& dn) const;
  ldap::EntryPtr find(const ldap::Dn& dn) const;
  std::size_t size() const noexcept { return entries_.size(); }

  /// Sorted normalized DN keys (for convergence comparison).
  std::vector<std::string> keys() const;

  std::vector<ldap::EntryPtr> entries() const;

  /// The stored entries keyed by normalized DN.
  const std::map<std::string, ldap::EntryPtr>& by_key() const noexcept {
    return entries_;
  }

 private:
  std::map<std::string, ldap::EntryPtr> entries_;
};

}  // namespace fbdr::sync
