#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ldap/entry.h"
#include "ldap/filter.h"
#include "ldap/filter_ir.h"
#include "ldap/schema.h"

namespace fbdr::ldap {

/// Memoizes schema-normalized attribute values per entry so that evaluating
/// many filters against the same entry normalizes each attribute once, not
/// once per comparison. Entries are immutable (`shared_ptr<const Entry>`),
/// so pointer identity is a sound cache key; the cache pins each entry it
/// has seen to keep that identity stable. A capacity bound (entries, not
/// bytes) clears the cache wholesale when exceeded — epoch-style eviction is
/// enough because the hot path revisits a small working set of snapshots.
///
/// Internally keyed by (entry, AttrId); one cache instance must only be fed
/// ids from one AttrInterner (one schema), which is how the master uses it.
class NormalizedValueCache {
 public:
  explicit NormalizedValueCache(std::size_t max_entries = 4096)
      : capacity_(max_entries) {}

  /// Normalized values of `attr` on `entry` (empty when the attribute is
  /// absent). The returned reference stays valid until the next get() that
  /// triggers a capacity clear; callers must not hold it across inserts.
  const std::vector<std::string>& get(const EntryPtr& entry,
                                      const std::string& attr,
                                      const Schema& schema);

  /// Id-keyed fast path: no name hashing, the interner supplies the name
  /// and schema for misses.
  const std::vector<std::string>& get(const EntryPtr& entry, AttrId attr,
                                      const AttrInterner& attrs);

  void clear();
  std::size_t entry_count() const noexcept { return entries_.size(); }
  std::uint64_t hits() const noexcept { return hits_; }

 private:
  struct PerEntry {
    EntryPtr pin;  // keeps the pointer key valid
    std::unordered_map<AttrId, std::vector<std::string>> attrs;
  };

  std::unordered_map<const Entry*, PerEntry> entries_;
  std::size_t capacity_;
  std::uint64_t hits_ = 0;
};

/// A canonical filter IR flattened once into a contiguous predicate program.
/// Assertion values arrive pre-normalized on the IR nodes — compilation does
/// not normalize anything. Evaluation is a flat scan with subtree skip
/// offsets instead of a pointer-chasing AST walk; combined with a
/// NormalizedValueCache for the entry side, a comparison is a plain string
/// (or canonical-integer) compare.
///
/// Also exposes the routing metadata ChangeRouter indexes sessions by:
/// the referenced attributes (as interned AttrIds) and the equality
/// assertions its top-level AND pins (conjuncts every matching entry must
/// satisfy).
class CompiledFilter {
 public:
  /// An equality conjunct at the top level (possibly under nested ANDs):
  /// every entry matching the filter holds `norm_value` for `attr`.
  struct EqPin {
    std::string attr;
    AttrId attr_id = 0;
    std::string norm_value;
  };

  /// Compiles `filter` under `schema`: interns it into canonical IR via
  /// FilterInterner::for_schema, then compiles the IR. A null filter
  /// compiles to the match-everything program (mirrors the
  /// `!query.filter ||` convention).
  static CompiledFilter compile(const FilterPtr& filter, const Schema& schema);
  static CompiledFilter compile(const Filter& filter, const Schema& schema);

  /// Compiles an already-interned IR. `interner` must be the interner that
  /// produced `ir` (it resolves attr ids and outlives every compilation —
  /// for_schema interners are process-lived).
  static CompiledFilter compile(const FilterIrPtr& ir,
                                const FilterInterner& interner);

  /// Matches everything: compiled from a null filter.
  CompiledFilter() = default;

  bool match_all() const noexcept { return nodes_.empty(); }

  /// Evaluates against `entry`, normalizing entry values inline.
  bool matches(const Entry& entry) const;

  /// Evaluates using `cache` for the entry-side normalized values; pass
  /// nullptr to normalize inline.
  bool matches(const EntryPtr& entry, NormalizedValueCache* cache) const;

  /// Distinct attributes referenced by any predicate (lowercased). The
  /// filter's verdict on an entry can only change when one of these does.
  const std::vector<std::string>& attributes() const noexcept { return attrs_; }

  /// Interned ids of attributes(), parallel vector.
  const std::vector<AttrId>& attr_ids() const noexcept { return attr_ids_; }

  /// Top-level AND equality pins (empty when none).
  const std::vector<EqPin>& eq_pins() const noexcept { return pins_; }

  /// The canonical IR this program was compiled from (null for match-all).
  const FilterIrPtr& ir() const noexcept { return ir_; }

  /// The attribute interner whose id space attr_ids()/pins refer to. The
  /// ChangeRouter checks this against its own interner before indexing by
  /// id; a mismatch degrades the session to the unindexed fallback class.
  const AttrInterner* attr_interner() const noexcept { return interner_; }

 private:
  struct Node {
    FilterKind kind = FilterKind::Present;
    std::uint32_t skip = 0;      // index one past this node's subtree
    std::uint32_t attr = 0;      // predicate: index into attrs_/attr_ids_
    std::string norm_value;      // Equality/GreaterEq/LessEq, pre-normalized
    bool value_is_int = false;   // integer syntax and norm_value is canonical
    SubstringPattern pattern;    // Substring, pre-normalized
  };

  std::uint32_t intern_attr(AttrId id);
  std::uint32_t emit(const FilterIr& ir);
  void collect_pins(const FilterIr& ir);
  bool eval(std::size_t index, const Entry& entry, const EntryPtr* pinned,
            NormalizedValueCache* cache) const;
  bool eval_predicate(const Node& node, const Entry& entry,
                      const EntryPtr* pinned, NormalizedValueCache* cache) const;

  std::vector<Node> nodes_;
  std::vector<std::string> attrs_;   // referenced attribute names
  std::vector<AttrId> attr_ids_;     // parallel interned ids
  std::vector<EqPin> pins_;
  FilterIrPtr ir_;
  const AttrInterner* interner_ = nullptr;
  const Schema* schema_ = nullptr;
};

}  // namespace fbdr::ldap
