// Randomized cross-layer equivalence suite for the canonical interned
// filter IR (src/ldap/filter_ir.h): canonicalization must be invisible to
// every consumer that switched onto it.
//
//  1. Evaluation: CompiledFilter programs compiled from IR match the raw
//     AST walker on random filters x generated entries.
//  2. Canonicalization: interning is idempotent (intern of the canonical
//     rewrite is pointer-identical), hash-consing makes structural equality
//     pointer equality, and interning subsumes ldap::simplify.
//  3. Containment: the IR-based Proposition 1 decision agrees with the
//     preserved pre-IR expansion (filter_contained_legacy) on random pairs.
//  4. NormalizedValueCache: keyed by entry snapshot identity, so a modify
//     or modify-DN (which build new immutable snapshots) can never be
//     served stale values memoized for the old snapshot.
//
// Runs under ASan/UBSan in tier 1 alongside routing_equivalence_test.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "containment/filter_containment.h"
#include "ldap/compiled_filter.h"
#include "ldap/filter_ir.h"
#include "ldap/filter_parser.h"
#include "workload/directory_gen.h"

#include "filter_eval.h"
#include "filter_simplify.h"
#include "legacy_containment.h"

namespace fbdr {
namespace {

using ldap::EntryPtr;
using ldap::FilterInterner;
using ldap::FilterIrPtr;
using ldap::FilterPtr;

workload::DirectoryConfig small_config() {
  workload::DirectoryConfig config;
  config.employees = 300;
  config.countries = 3;
  config.geo_countries = 2;
  config.divisions = 5;
  config.depts_per_division = 4;
  config.locations = 5;
  return config;
}

/// Random RFC 2254 filters over the generated directory's attributes,
/// biased toward spellings the canonicalizer rewrites: shuffled duplicate
/// children, nested same-kind composites, double negation, mixed value case.
class FilterGen {
 public:
  FilterGen(std::mt19937& rng, const workload::EnterpriseDirectory& dir)
      : rng_(&rng), dir_(&dir) {}

  std::string predicate() {
    switch (pick(8)) {
      case 0:
        return "(departmentnumber=" + dept() + ")";
      case 1:
        return "(buildingname=" + mixed_case(building()) + ")";
      case 2:
        return "(serialnumber=" + serial().substr(0, 2) + "*)";
      case 3:
        return "(serialnumber>=" + serial() + ")";
      case 4:
        return "(serialnumber<=" + serial() + ")";
      case 5:
        return "(telephonenumber=*)";
      case 6:
        return "(objectclass=Person)";
      default:
        return "(buildingname=*" + building().substr(1) + ")";
    }
  }

  std::string filter(int depth = 3) {
    if (depth == 0 || pick(3) == 0) return predicate();
    switch (pick(4)) {
      case 0: {
        const std::string child = filter(depth - 1);
        // Duplicate child: canonical dedup collapses it.
        return "(&" + child + filter(depth - 1) + child + ")";
      }
      case 1:
        return "(|" + filter(depth - 1) + filter(depth - 1) + ")";
      case 2:
        // Double negation: canonicalization cancels it.
        return "(!(!" + filter(depth - 1) + "))";
      default:
        // Nested same-kind composite: canonicalization flattens it.
        return "(&" + filter(depth - 1) + "(&" + filter(depth - 1) +
               filter(depth - 1) + "))";
    }
  }

  std::string dept() {
    const auto& depts = dir_->division_depts[pick(dir_->division_depts.size())];
    return depts[pick(depts.size())];
  }

  std::string building() {
    return dir_->location_names[pick(dir_->location_names.size())];
  }

  std::string serial() {
    return dir_->employees[pick(dir_->employees.size())].serial;
  }

  std::string mixed_case(std::string text) {
    for (char& c : text) {
      if (pick(2) == 0 && c >= 'a' && c <= 'z') c = static_cast<char>(c - 32);
    }
    return text;
  }

  std::size_t pick(std::size_t bound) {
    return std::uniform_int_distribution<std::size_t>(0, bound - 1)(*rng_);
  }

 private:
  std::mt19937* rng_;
  const workload::EnterpriseDirectory* dir_;
};

TEST(FilterIrEquivalence, IrCompiledEvalMatchesAstWalker) {
  const auto dir = workload::generate_directory(small_config());
  const ldap::Schema& schema = dir.master->schema();
  FilterInterner& interner = FilterInterner::for_schema(schema);
  std::mt19937 rng(20260801);
  FilterGen gen(rng, dir);

  std::vector<EntryPtr> entries;
  dir.master->dit().for_each(
      [&](const EntryPtr& entry) { entries.push_back(entry); });

  ldap::NormalizedValueCache cache;
  for (int round = 0; round < 60; ++round) {
    const std::string text = gen.filter();
    const FilterPtr filter = ldap::parse_filter(text);
    const FilterIrPtr ir = interner.intern(filter);
    const ldap::CompiledFilter compiled =
        ldap::CompiledFilter::compile(ir, interner);
    for (const EntryPtr& entry : entries) {
      const bool expected = ldap::matches(*filter, *entry, schema);
      ASSERT_EQ(compiled.matches(*entry), expected)
          << text << " on " << entry->dn().to_string();
      ASSERT_EQ(compiled.matches(entry, &cache), expected)
          << text << " (cached) on " << entry->dn().to_string();
    }
  }
  EXPECT_GT(cache.hits(), 0u);
}

TEST(FilterIrEquivalence, InterningIsIdempotentAndSubsumesSimplify) {
  const auto dir = workload::generate_directory(small_config());
  const ldap::Schema& schema = dir.master->schema();
  FilterInterner& interner = FilterInterner::for_schema(schema);
  std::mt19937 rng(20260802);
  FilterGen gen(rng, dir);

  for (int round = 0; round < 300; ++round) {
    const FilterPtr filter = ldap::parse_filter(gen.filter());
    const FilterIrPtr ir = interner.intern(filter);
    ASSERT_NE(ir, nullptr);

    // Idempotence: the canonical rewrite interns back to the same node.
    EXPECT_EQ(interner.intern(ir->to_filter()), ir);

    // simplify is subsumed: its rewrites never change the canonical form.
    EXPECT_EQ(interner.intern(ldap::simplify(filter)), ir);

    // The canonical key round-trips through the parser (print/parse/intern).
    EXPECT_EQ(interner.intern(ldap::parse_filter(ir->key())), ir);
  }
}

TEST(FilterIrEquivalence, ContainmentVerdictsMatchLegacyOracle) {
  const auto dir = workload::generate_directory(small_config());
  const ldap::Schema& schema = dir.master->schema();
  std::mt19937 rng(20260803);
  FilterGen gen(rng, dir);

  int contained = 0;
  for (int round = 0; round < 400; ++round) {
    // Mix unrelated pairs with derived pairs (f in (|(f)(g)) and the
    // duplicate-child spellings) so both verdicts occur.
    const std::string a = gen.filter(2);
    const std::string b = gen.pick(2) == 0 ? "(|" + a + gen.filter(2) + ")"
                                           : gen.filter(2);
    const FilterPtr inner = ldap::parse_filter(a);
    const FilterPtr outer = ldap::parse_filter(b);

    const bool via_ir = containment::filter_contained(*inner, *outer, schema);
    const bool legacy =
        containment::filter_contained_legacy(*inner, *outer, schema);
    ASSERT_EQ(via_ir, legacy) << a << " in " << b;
    if (via_ir) ++contained;

    // Canonicalization must not change the verdict for either side.
    FilterInterner& interner = FilterInterner::for_schema(schema);
    const FilterPtr canon_inner = interner.intern(inner)->to_filter();
    const FilterPtr canon_outer = interner.intern(outer)->to_filter();
    ASSERT_EQ(
        containment::filter_contained_legacy(*canon_inner, *canon_outer, schema),
        legacy)
        << a << " in " << b;
  }
  // The pair mix must exercise both verdicts to mean anything.
  EXPECT_GT(contained, 20);
  EXPECT_LT(contained, 380);
}

TEST(FilterIrEquivalence, NormalizedValueCacheKeyedByEntrySnapshot) {
  const ldap::Schema& schema = ldap::Schema::default_instance();
  FilterInterner& interner = FilterInterner::for_schema(schema);
  ldap::NormalizedValueCache cache;

  const EntryPtr before = ldap::make_entry(
      "cn=pat,o=ibm", {{"objectclass", "person"}, {"buildingname", "Alpha"}});
  const ldap::AttrId building = interner.attrs().intern("buildingname");

  // Memoize the before-snapshot's values (twice, to exercise the hit path).
  ASSERT_EQ(cache.get(before, building, interner.attrs()),
            std::vector<std::string>{"alpha"});
  ASSERT_EQ(cache.get(before, building, interner.attrs()),
            std::vector<std::string>{"alpha"});
  EXPECT_GT(cache.hits(), 0u);

  // A modify builds a *new* immutable snapshot; the memo for the old one
  // must not be served for it (entry-identity keying, not DN keying).
  ldap::Entry modified = *before;
  modified.set_values("buildingname", {"Beta"});
  const EntryPtr after = std::make_shared<const ldap::Entry>(std::move(modified));
  EXPECT_EQ(cache.get(after, building, interner.attrs()),
            std::vector<std::string>{"beta"});
  // The old snapshot's memo stays intact (journal replay reads both sides).
  EXPECT_EQ(cache.get(before, building, interner.attrs()),
            std::vector<std::string>{"alpha"});

  // Modify-DN: same attribute values under a new DN is again a new snapshot;
  // a DN-keyed cache would alias the old entry at the old DN.
  ldap::Entry renamed = *after;
  renamed.set_dn(ldap::Dn::parse("cn=pat,ou=research,o=ibm"));
  const EntryPtr moved = std::make_shared<const ldap::Entry>(std::move(renamed));
  EXPECT_EQ(cache.get(moved, building, interner.attrs()),
            std::vector<std::string>{"beta"});

  // The string-attribute overload shares the same memo slots.
  EXPECT_EQ(cache.get(after, "BuildingName", schema),
            std::vector<std::string>{"beta"});
}

}  // namespace
}  // namespace fbdr
