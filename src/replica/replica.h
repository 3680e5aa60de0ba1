#pragma once

#include <cstdint>
#include <string>

#include "ldap/query.h"

namespace fbdr::replica {

/// Outcome of presenting one client query to a replica.
struct Decision {
  bool hit = false;          // answered locally, no referral generated
  std::string answered_by;   // which replication unit answered (diagnostics)
};

/// Hit/miss statistics (§3.1: hit-ratio is "the fraction of client requests
/// which can be completely answered (without generating referrals) by the
/// replica").
struct ReplicaStats {
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t referrals = 0;
  std::uint64_t containment_checks = 0;  // query-processing overhead (§7.4)

  double hit_ratio() const {
    return queries == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(queries);
  }

  void reset() { *this = {}; }
};

/// Common interface of the two replication models compared in the paper.
class Replica {
 public:
  virtual ~Replica() = default;

  /// Decides whether the replica can completely answer `query`.
  virtual Decision handle(const ldap::Query& query) = 0;

  /// Entries currently stored.
  virtual std::size_t stored_entries() const = 0;

  virtual std::string model_name() const = 0;

  const ReplicaStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_.reset(); }

 protected:
  ReplicaStats stats_;
};

}  // namespace fbdr::replica
