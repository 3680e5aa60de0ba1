#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ldap/entry.h"
#include "ldap/filter.h"
#include "ldap/filter_ir.h"
#include "ldap/schema.h"

namespace fbdr::ldap {

/// A canonical filter IR flattened once into a contiguous predicate program.
/// Assertion values arrive pre-normalized on the IR nodes — compilation does
/// not normalize anything — and each predicate carries its attribute's
/// syntax, resolved at compile time from the same schema snapshot the
/// assertion values were normalized under. Evaluation is a flat scan with
/// subtree skip offsets instead of a pointer-chasing AST walk; each entry
/// value is normalized into one scratch buffer per evaluation
/// (Schema::normalize_into), so a comparison is a plain string (or
/// canonical-integer) compare.
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

  /// Evaluates against `entry`. Safe to call concurrently: the scratch
  /// buffer entry values are normalized into is local to the call.
  bool matches(const Entry& entry) const;

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
    Syntax syntax = Syntax::CaseIgnoreString;  // predicate: attr's syntax
    std::string norm_value;      // Equality/GreaterEq/LessEq, pre-normalized
    bool value_is_int = false;   // integer syntax and norm_value is canonical
    SubstringPattern pattern;    // Substring, pre-normalized
  };

  std::uint32_t intern_attr(AttrId id);
  std::uint32_t emit(const FilterIr& ir);
  void collect_pins(const FilterIr& ir);
  bool eval(std::size_t index, const Entry& entry, std::string& scratch) const;
  bool eval_predicate(const Node& node, const Entry& entry,
                      std::string& scratch) const;

  std::vector<Node> nodes_;
  std::vector<std::string> attrs_;   // referenced attribute names
  std::vector<AttrId> attr_ids_;     // parallel interned ids
  std::vector<EqPin> pins_;
  FilterIrPtr ir_;
  const AttrInterner* interner_ = nullptr;
};

}  // namespace fbdr::ldap
