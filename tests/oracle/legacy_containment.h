#pragma once

#include <cstddef>
#include <vector>

#include "containment/dnf.h"
#include "ldap/filter.h"
#include "ldap/schema.h"

namespace fbdr::containment {

/// The pre-IR expansion: walks the raw AST and normalizes every assertion
/// value inline. The reference the IR overload of to_dnf is checked against
/// and the benchmark baseline; production paths go through the IR.
std::vector<Conjunct> legacy_to_dnf(const ldap::Filter& filter, bool negated,
                                    const ldap::Schema& schema,
                                    std::size_t max_conjuncts = 4096);

/// The pre-IR Proposition 1 check over the raw AST (normalizes values during
/// DNF expansion). The equivalence suite's oracle and the benchmark baseline
/// for filter_contained.
bool filter_contained_legacy(
    const ldap::Filter& inner, const ldap::Filter& outer,
    const ldap::Schema& schema = ldap::Schema::default_instance(),
    std::size_t max_conjuncts = 4096);

}  // namespace fbdr::containment
