#include "containment/filter_containment.h"

#include "containment/dnf.h"
#include "containment/pattern.h"
#include "containment/value_range.h"

namespace fbdr::containment {

using ldap::Filter;
using ldap::FilterInterner;
using ldap::FilterIr;
using ldap::FilterKind;
using ldap::Schema;
using ldap::SubstringPattern;

bool filter_contained(const FilterIr& inner, const FilterIr& outer,
                      const Schema& schema, std::size_t max_conjuncts) {
  try {
    const std::vector<Conjunct> dnf_inner =
        to_dnf(inner, /*negated=*/false, schema, max_conjuncts);
    const std::vector<Conjunct> dnf_not_outer =
        to_dnf(outer, /*negated=*/true, schema, max_conjuncts);
    for (const Conjunct& a : dnf_inner) {
      for (const Conjunct& b : dnf_not_outer) {
        if (!conjunct_inconsistent(merge_conjuncts(a, b, schema), schema)) {
          return false;
        }
      }
    }
    return true;
  } catch (const DnfLimitExceeded&) {
    return false;  // not provable within budget -> treat as not contained
  }
}

bool filter_contained(const Filter& inner, const Filter& outer,
                      const Schema& schema, std::size_t max_conjuncts) {
  FilterInterner& interner = FilterInterner::for_schema(schema);
  return filter_contained(*interner.intern(inner), *interner.intern(outer),
                          schema, max_conjuncts);
}

bool predicate_contained(const FilterIr& inner, const FilterIr& outer,
                         const Schema& schema) {
  if (!inner.is_predicate() || !outer.is_predicate()) return false;
  if (inner.attr_id() != outer.attr_id()) return false;
  const std::string& attr = inner.attribute();
  const ValueOrder order(schema, attr);

  // Everything (with the attribute present) is contained in a presence test.
  if (outer.kind() == FilterKind::Present) return true;
  if (inner.kind() == FilterKind::Present) return false;

  // All assertion values below come pre-normalized off the IR nodes.
  switch (outer.kind()) {
    case FilterKind::Equality: {
      // Only an equality with the same value is inside a point.
      return inner.kind() == FilterKind::Equality &&
             inner.norm_value() == outer.norm_value();
    }
    case FilterKind::GreaterEq:
    case FilterKind::LessEq: {
      const ValueRange outer_range =
          outer.kind() == FilterKind::GreaterEq
              ? ValueRange::at_least(outer.norm_value())
              : ValueRange::at_most(outer.norm_value());
      switch (inner.kind()) {
        case FilterKind::Equality:
          return outer_range.contains_value(inner.norm_value(), order);
        case FilterKind::GreaterEq:
          return outer_range.contains_range(
              ValueRange::at_least(inner.norm_value()), order);
        case FilterKind::LessEq:
          return outer_range.contains_range(
              ValueRange::at_most(inner.norm_value()), order);
        case FilterKind::Substring: {
          // A prefix pattern lies in a range iff its prefix interval does;
          // the facet already excludes integer syntax (prefix order and
          // numeric order disagree).
          if (inner.range_facet() == ldap::RangeFacet::Prefix) {
            return outer_range.contains_range(
                ValueRange::prefix(inner.pattern().initial), order);
          }
          return false;
        }
        default:
          return false;
      }
    }
    case FilterKind::Substring: {
      const SubstringPattern& outer_p = outer.pattern();
      if (inner.kind() == FilterKind::Equality) {
        return outer_p.matches(inner.norm_value());
      }
      if (inner.kind() == FilterKind::Substring) {
        return pattern_contained(inner.pattern(), outer_p);
      }
      return false;
    }
    default:
      return false;
  }
}

std::optional<bool> same_template_contained(const FilterIr& inner,
                                            const FilterIr& outer,
                                            const Schema& schema) {
  if (inner.kind() != outer.kind()) return std::nullopt;
  if (inner.is_composite()) {
    if (inner.kind() == FilterKind::Not) return std::nullopt;  // positive only
    // Canonicalization may have collapsed duplicate children on one side, in
    // which case the trees no longer walk in lockstep.
    if (inner.children().size() != outer.children().size()) return std::nullopt;
    for (std::size_t i = 0; i < inner.children().size(); ++i) {
      const auto child =
          same_template_contained(*inner.children()[i], *outer.children()[i],
                                  schema);
      if (!child) return std::nullopt;
      if (!*child) return false;
    }
    return true;
  }
  // Lockstep predicates of a shared template always agree on kind and
  // attribute; anything else is a structural mismatch.
  if (inner.attr_id() != outer.attr_id()) return std::nullopt;
  return predicate_contained(inner, outer, schema);
}

bool predicate_contained(const Filter& inner, const Filter& outer,
                         const Schema& schema) {
  FilterInterner& interner = FilterInterner::for_schema(schema);
  return predicate_contained(*interner.intern(inner), *interner.intern(outer),
                             schema);
}

bool same_template_contained(const Filter& inner, const Filter& outer,
                             const Schema& schema) {
  FilterInterner& interner = FilterInterner::for_schema(schema);
  return same_template_contained(*interner.intern(inner),
                                 *interner.intern(outer), schema)
      .value_or(false);
}

}  // namespace fbdr::containment
