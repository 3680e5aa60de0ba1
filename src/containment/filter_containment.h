#pragma once

#include <cstddef>
#include <optional>

#include "ldap/filter.h"
#include "ldap/filter_ir.h"
#include "ldap/schema.h"

namespace fbdr::containment {

/// General LDAP filter containment (paper Proposition 1): `inner` is
/// semantically contained in `outer` iff the expression inner AND NOT outer
/// is inconsistent. The check expands both sides to DNF and proves every
/// combined conjunct inconsistent.
///
/// The decision is *sound* under single-valued attribute semantics: a true
/// return guarantees every entry matching `inner` matches `outer`. For
/// fragments outside the provable class (exotic substring interactions,
/// expansions over `max_conjuncts`), the function returns false — the safe
/// answer for a replica, which then forwards the query to the master.
///
/// The primary overload takes canonical IR (assertion values pre-normalized,
/// range facets attached); the Filter overload interns both sides and
/// delegates.
bool filter_contained(const ldap::FilterIr& inner, const ldap::FilterIr& outer,
                      const ldap::Schema& schema = ldap::Schema::default_instance(),
                      std::size_t max_conjuncts = 4096);
bool filter_contained(const ldap::Filter& inner, const ldap::Filter& outer,
                      const ldap::Schema& schema = ldap::Schema::default_instance(),
                      std::size_t max_conjuncts = 4096);

/// Same-template fast path (paper Proposition 3) over canonical IR: for two
/// positive filters of the same template, `inner` is contained in `outer` if
/// each predicate of `inner` is contained in the corresponding predicate of
/// `outer`. O(n) comparisons of pre-normalized assertion values.
///
/// Returns nullopt when the two trees do not walk in lockstep (canonical
/// sorting or dedup collapsed one side differently, or a Not appears) — the
/// caller should fall back to the general Proposition 1 check rather than
/// conclude non-containment.
std::optional<bool> same_template_contained(
    const ldap::FilterIr& inner, const ldap::FilterIr& outer,
    const ldap::Schema& schema = ldap::Schema::default_instance());

/// Filter form of the Proposition 3 walk: interns both sides and delegates;
/// a structural mismatch answers false.
bool same_template_contained(
    const ldap::Filter& inner, const ldap::Filter& outer,
    const ldap::Schema& schema = ldap::Schema::default_instance());

/// Containment of one predicate in another over the same attribute, used by
/// the Proposition 3 walk: (a=x) in (a=y) iff x=y; (a>=x) in (a>=y) iff x>=y;
/// (a<=x) in (a<=y) iff x<=y; anything in (a=*); substring by sound pattern
/// containment; plus the cross-kind cases derivable by range reasoning
/// ((a=x) in (a>=y) iff x>=y, (a=x) in (a=p*) iff x matches, ...).
///
/// The IR overload compares the nodes' pre-normalized values directly (no
/// normalize calls); the Filter overload interns both sides and delegates.
bool predicate_contained(
    const ldap::FilterIr& inner, const ldap::FilterIr& outer,
    const ldap::Schema& schema = ldap::Schema::default_instance());
bool predicate_contained(
    const ldap::Filter& inner, const ldap::Filter& outer,
    const ldap::Schema& schema = ldap::Schema::default_instance());

}  // namespace fbdr::containment
