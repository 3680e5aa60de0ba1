#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ldap/compiled_filter.h"
#include "ldap/entry.h"
#include "ldap/filter_ir.h"
#include "ldap/query.h"
#include "ldap/schema.h"
#include "server/change.h"
#include "server/dit.h"
#include "sync/content_digest.h"

namespace fbdr::sync {

/// Content-membership transition of one entry caused by one update (§5.1).
enum class Transition {
  Enter,   // E01: entry moved into the content
  Leave,   // E10: entry moved out of the content
  Update,  // E11: entry changed but stayed inside
};

std::string to_string(Transition transition);

/// One classified event on a replicated query's content.
struct ContentEvent {
  std::uint64_t seq = 0;
  Transition transition = Transition::Enter;
  ldap::Dn dn;            // the content DN affected (new DN for rename-enters)
  ldap::EntryPtr entry;   // current snapshot for Enter/Update, null for Leave
};

/// Tracks the content C_S(t) of one replicated query S at the master and
/// classifies every journaled change into the transitions of equation (2).
/// A modify DN of an in-content entry that stays in content is reported as a
/// Leave of the old DN plus an Enter of the new DN, exactly as the Figure 3
/// session shows for E3 -> E5.
///
/// Concurrency contract (sharded pump, DESIGN.md §13): a tracker belongs to
/// exactly one session and is only driven by the session's owning shard
/// worker — on_change() mutates the tracked content and is never called
/// concurrently on one tracker. Its shared inputs are safe by immutability:
/// ChangeRecord snapshots, EntryPtr bodies, the Schema and the compiled
/// filter are all read-only during a pump (filter evaluation keeps its
/// normalization buffer on the stack).
class ContentTracker {
 public:
  explicit ContentTracker(ldap::Query query,
                          const ldap::Schema& schema = ldap::Schema::default_instance());

  const ldap::Query& query() const noexcept { return query_; }

  /// (Re)computes the content from the master DIT, evaluating only the
  /// candidates Dit::for_each_candidate plans from the query.
  void initialize(const server::Dit& dit);

  /// Classifies one change; updates the tracked content; returns the events
  /// (0, 1, or 2 — a rename can produce Leave+Enter).
  std::vector<ContentEvent> on_change(const server::ChangeRecord& record);

  bool in_content(const ldap::Dn& dn) const;
  std::size_t content_size() const noexcept { return content_.size(); }

  /// Current content DNs (normalized keys, sorted).
  std::vector<std::string> content_keys() const;

  /// Current content snapshots keyed by normalized DN.
  const std::map<std::string, ldap::EntryPtr>& content() const noexcept {
    return content_;
  }

  /// Digest tree over the tracked content, maintained incrementally at every
  /// membership mutation. The master compares it against a recovering
  /// replica's offered digests to ship only the divergent entries
  /// (DESIGN.md §12).
  const ContentDigest& digest() const noexcept { return digest_; }

  /// True when `entry` satisfies the query (region + filter).
  bool matches_query(const ldap::Entry& entry) const;

  /// The filter compiled once at construction; the ChangeRouter indexes
  /// sessions by its referenced attribute ids and equality pins.
  const ldap::CompiledFilter& compiled_filter() const noexcept {
    return compiled_;
  }

  /// The query filter's canonical IR, interned once at construction (null
  /// for a filterless query). Shared with the compiled program.
  const ldap::FilterIrPtr& ir() const noexcept { return ir_; }

 private:
  bool in_region(const ldap::Dn& dn) const;

  ldap::Query query_;
  ldap::FilterIrPtr ir_;
  ldap::CompiledFilter compiled_;
  std::map<std::string, ldap::EntryPtr> content_;  // norm key -> snapshot
  ContentDigest digest_;
};

}  // namespace fbdr::sync
