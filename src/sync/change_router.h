#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ldap/compiled_filter.h"
#include "ldap/filter_ir.h"
#include "ldap/query.h"
#include "server/change.h"

namespace fbdr::sync {

/// Attribute-indexed predicate routing for the ReSync master's hot path
/// (cf. Le Subscribe / Fabret et al., SIGMOD 2001): instead of walking every
/// journaled change through every session's filter, the router computes the
/// (usually tiny) candidate set of sessions a change can possibly affect.
/// Candidates are the union of:
///
///  - **holders**: sessions whose tracked content contains the changed DN —
///    they must always process the change (Update/Leave), regardless of
///    which attributes moved. The router mirrors each session's content
///    membership via note_enter/note_leave, driven by the tracker's own
///    ContentEvents, so this index is exact.
///  - **attribute buckets** (Modify only): sessions whose filter references
///    an attribute whose values actually changed between the before/after
///    snapshots. A non-holder can only *enter* a content when its filter's
///    verdict flips, and the verdict only depends on referenced attributes,
///    so a modify touching only telephoneNumber never wakes a dept filter.
///  - **equality-pin buckets** (Add / ModifyDn enter): sessions whose
///    top-level AND pins (attr=value) are looked up by the new entry's
///    normalized values — an add with dept=42 never wakes (dept=17).
///  - **region buckets**: sessions *without* an equality pin are indexed by
///    their scope-region base key (subtree bases prune by DN ancestry, one-
///    level by parent key, base by exact key), so an add only fans out to
///    the regions it lands in.
///  - **fallback**: sessions whose filter the router cannot index (no
///    compiled filter supplied) are candidates for every entering change,
///    pruned only by region. Deletes route through holders alone for every
///    class — content membership is the ground truth of the prior verdict.
///
/// Every emitted candidate is verified against the session's region and
/// pins before being returned, so the candidate set is a superset of the
/// affected set and routed evaluation is equivalent to exhaustive
/// evaluation (see tests/routing_equivalence_test.cpp).
///
/// Concurrency: a router is confined to one shard (one pump worker at a
/// time) — route() mutates the dedup generation stamps and the stats
/// counters, so it is not const and not shareable. Because a session's
/// candidacy for a record depends only on that session's own index entries,
/// running one router per session shard emits exactly the candidates the
/// global router would (ReSyncMaster shards on this property; DESIGN.md
/// §13). The schema and interner the router reads are shared but append-only
/// /immutable during pump.
class ChangeRouter {
 public:
  using Handle = std::size_t;
  static constexpr Handle kInvalidHandle = static_cast<Handle>(-1);

  explicit ChangeRouter(
      const ldap::Schema& schema = ldap::Schema::default_instance())
      : interner_(&ldap::FilterInterner::for_schema(schema)) {}

  /// Registers a session. `compiled` supplies the referenced attribute ids
  /// and equality pins; it must outlive the registration (the master's
  /// ContentTracker owns it). Pass nullptr for an unindexable session
  /// (routed via the region fallback on every entering change). A compiled
  /// filter whose attribute-id space comes from a different interner than
  /// the router's schema also degrades to the fallback class — its ids
  /// would not be comparable with the router's buckets.
  Handle add_session(const ldap::Query& query,
                     const ldap::CompiledFilter* compiled);

  /// Unregisters a session from the static indexes. Holder entries must be
  /// released first via note_leave (the master walks the tracker's content).
  void remove_session(Handle handle);

  void clear();

  /// Content-membership mirror, driven by the tracker's ContentEvents.
  void note_enter(Handle handle, const std::string& norm_key);
  void note_leave(Handle handle, const std::string& norm_key);

  /// Appends the deduplicated candidate handles for `record` to `out`.
  void route(const server::ChangeRecord& record, std::vector<Handle>& out);

  std::size_t session_count() const noexcept { return live_count_; }

  struct Stats {
    std::uint64_t routed_changes = 0;
    std::uint64_t candidates = 0;   // candidate sessions emitted in total
    std::uint64_t exhaustive = 0;   // what a full fan-out would have cost
    std::uint64_t fallback_candidates = 0;  // emitted via the fallback class

    /// Folds another router's counters into this one. The sharded master
    /// runs one router per shard and reports the fold: candidates/exhaustive
    /// sum to the same totals a single global router would report, while
    /// routed_changes counts per-shard route() invocations (shards x
    /// records).
    void merge(const Stats& other) noexcept {
      routed_changes += other.routed_changes;
      candidates += other.candidates;
      exhaustive += other.exhaustive;
      fallback_candidates += other.fallback_candidates;
    }
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  struct SessionInfo {
    bool alive = false;
    bool fallback = false;  // unindexable: candidate for every entering change
    ldap::Dn base;
    ldap::Scope scope = ldap::Scope::Subtree;
    const ldap::CompiledFilter* compiled = nullptr;
    std::uint64_t stamp = 0;
  };

  bool region_covers(const SessionInfo& info, const ldap::Dn& dn) const;
  /// True when `after` holds every pin of `info`'s filter; after's values
  /// are normalized into `scratch`.
  bool pins_satisfied(const SessionInfo& info, const ldap::EntryPtr& after,
                      std::string& scratch) const;
  void emit(Handle handle, std::vector<Handle>& out, bool via_fallback = false);
  void add_holders(const std::string& norm_key, std::vector<Handle>& out);
  /// Candidates that may *enter* content at `dn` with snapshot `after`:
  /// region buckets for unpinned sessions, pin buckets for pinned ones.
  void add_enter_candidates(const ldap::Dn& dn, const ldap::EntryPtr& after,
                            std::vector<Handle>& out, std::string& scratch);
  static void bucket_insert(std::vector<Handle>& bucket, Handle handle);
  static void bucket_erase(std::vector<Handle>& bucket, Handle handle);

  ldap::FilterInterner* interner_;
  std::vector<SessionInfo> sessions_;
  std::size_t live_count_ = 0;
  std::uint64_t generation_ = 0;

  /// norm DN key -> sessions holding the entry in content (exact mirror).
  std::unordered_map<std::string, std::vector<Handle>> holders_;
  /// referenced attribute id -> indexable sessions (Modify enter routing).
  /// Ids come from the router schema's interner; a Modify naming an
  /// attribute the interner has never seen cannot hit any bucket.
  std::unordered_map<ldap::AttrId, std::vector<Handle>> by_attr_;
  /// pin attr id -> pin value -> pinned sessions (Add/ModifyDn enter
  /// routing). Pin values are pre-normalized on the compiled filter.
  std::unordered_map<ldap::AttrId,
                     std::unordered_map<std::string, std::vector<Handle>>>
      by_pin_;
  /// base norm key -> unpinned sessions, per scope (enter routing).
  std::unordered_map<std::string, std::vector<Handle>> region_subtree_;
  std::unordered_map<std::string, std::vector<Handle>> region_onelevel_;
  std::unordered_map<std::string, std::vector<Handle>> region_base_;
  /// Unindexable sessions: region-checked candidates for every non-delete.
  std::vector<Handle> fallback_;

  Stats stats_;
};

}  // namespace fbdr::sync
