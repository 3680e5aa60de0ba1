#pragma once

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "containment/value_range.h"
#include "ldap/filter.h"
#include "ldap/filter_ir.h"
#include "ldap/schema.h"

namespace fbdr::containment {

/// Thrown when DNF expansion would exceed the configured conjunct budget.
/// Callers treat this as "containment not provable" — the safe answer.
class DnfLimitExceeded : public std::runtime_error {
 public:
  explicit DnfLimitExceeded(std::size_t limit)
      : std::runtime_error("DNF expansion exceeded " + std::to_string(limit) +
                           " conjuncts") {}
};

/// Accumulated constraints on one attribute within a conjunct Bi of the
/// expression F1 AND NOT F2 (paper Proposition 1). Range constraints and
/// patterns imply the attribute is present; `absent` records a negated
/// presence requirement.
struct AttrConstraints {
  ValueRange range = ValueRange::all();
  bool has_range = false;  // at least one range-imposing predicate
  bool present = false;    // positive presence requirement
  bool absent = false;     // negated presence requirement
  std::vector<ldap::SubstringPattern> patterns;      // positive, normalized
  std::vector<ldap::SubstringPattern> not_patterns;  // negated, normalized

  bool implies_present() const {
    return present || has_range || !patterns.empty() || !not_patterns.empty();
  }
};

/// One conjunction of simple predicates, keyed by attribute name.
using Conjunct = std::map<std::string, AttrConstraints>;

/// Merges the constraints of `b` into `a` (logical AND of two conjuncts).
Conjunct merge_conjuncts(const Conjunct& a, const Conjunct& b,
                         const ldap::Schema& schema);

/// Expands a filter (negated when `negated`) into disjunctive normal form
/// over per-attribute constraints. Positive filters only — a NOT node flips
/// the `negated` flag, so arbitrary filters are supported; the *constraints*
/// produced are always positive/negative atoms.
///
/// Negated predicates expand per single-valued LDAP semantics:
///   NOT (a=v)   ->  absent(a) OR (a < v) OR (a > v)
///   NOT (a>=v)  ->  absent(a) OR (a < v)
///   NOT (a<=v)  ->  absent(a) OR (a > v)
///   NOT (a=*)   ->  absent(a)
///   NOT (a=p*)  ->  absent(a) OR (a < p) OR (a >= succ(p))   [string syntax]
///   NOT (a=..S..) -> absent(a) OR not-pattern(a, S)          [otherwise]
///
/// Throws DnfLimitExceeded when the expansion exceeds `max_conjuncts`.
///
/// The primary overload expands canonical IR: assertion values are already
/// normalized on the nodes and the typed-range facet decides the prefix
/// cases, so expansion performs no normalization. The Filter overload
/// interns first (a hash-cons lookup for filters seen before) and delegates.
std::vector<Conjunct> to_dnf(const ldap::FilterIr& filter, bool negated,
                             const ldap::Schema& schema,
                             std::size_t max_conjuncts = 4096);
std::vector<Conjunct> to_dnf(const ldap::Filter& filter, bool negated,
                             const ldap::Schema& schema,
                             std::size_t max_conjuncts = 4096);

/// Decides whether a conjunct is provably unsatisfiable (paper §4.1: "the
/// predicates in Bi should impose an empty range for at least one of the
/// attributes appearing in it", extended with presence/absence and substring
/// reasoning). Sound under single-valued attribute semantics.
bool conjunct_inconsistent(const Conjunct& conjunct, const ldap::Schema& schema);

}  // namespace fbdr::containment
