// Randomized cross-layer equivalence suite for the canonical interned
// filter IR (src/ldap/filter_ir.h): canonicalization must be invisible to
// every consumer that switched onto it.
//
//  1. Evaluation: CompiledFilter programs compiled from IR match the raw
//     AST walker on random filters x generated entries, and on hand-built
//     entries whose values are not in normal form.
//  2. Canonicalization: interning is idempotent (intern of the canonical
//     rewrite is pointer-identical), hash-consing makes structural equality
//     pointer equality, and interning subsumes ldap::simplify.
//  3. Containment: the IR-based Proposition 1 decision agrees with the
//     preserved pre-IR expansion (filter_contained_legacy) on random pairs.
//  4. Routing on a normalized pin: an Add, Modify or ModifyDn whose new
//     snapshot holds a pinned value in another spelling (dept: D42 against
//     (dept=d42)) reaches the pinned session and enters its content, while
//     the before-snapshot's verdict stays what it was.
//
// Runs under ASan/UBSan in tier 1 alongside routing_equivalence_test.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "containment/filter_containment.h"
#include "ldap/compiled_filter.h"
#include "ldap/filter_ir.h"
#include "ldap/filter_parser.h"
#include "sync/change_router.h"
#include "sync/content_tracker.h"
#include "workload/directory_gen.h"

#include "filter_eval.h"
#include "filter_normalization_cases.h"
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
  const std::vector<EntryPtr> awkward = normalization_cases::entries();
  entries.insert(entries.end(), awkward.begin(), awkward.end());

  std::vector<std::string> texts = normalization_cases::filters();
  for (int round = 0; round < 60; ++round) texts.push_back(gen.filter());

  std::set<const ldap::Entry*> awkward_matched;
  for (const std::string& text : texts) {
    const FilterPtr filter = ldap::parse_filter(text);
    const FilterIrPtr ir = interner.intern(filter);
    const ldap::CompiledFilter compiled =
        ldap::CompiledFilter::compile(ir, interner);
    for (const EntryPtr& entry : entries) {
      const bool expected = ldap::matches(*filter, *entry, schema);
      ASSERT_EQ(compiled.matches(*entry), expected)
          << text << " on " << entry->dn().to_string();
      if (expected) awkward_matched.insert(entry.get());
    }
  }
  // Every hand-built entry is matched by some filter, so each unnormalized
  // spelling was compared, not just skipped.
  for (const EntryPtr& entry : awkward) {
    EXPECT_EQ(awkward_matched.count(entry.get()), 1u) << entry->dn().to_string();
  }
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

TEST(FilterIrEquivalence, RouterNormalizesPinnedValuesOfNewSnapshots) {
  const ldap::Schema& schema = ldap::Schema::default_instance();
  sync::ChangeRouter router(schema);
  sync::ContentTracker tracker(
      ldap::Query::parse("o=ibm", ldap::Scope::Subtree, "(dept=d42)"), schema);
  const sync::ChangeRouter::Handle handle =
      router.add_session(tracker.query(), &tracker.compiled_filter());

  const EntryPtr before = ldap::make_entry(
      "cn=pat,o=ibm", {{"objectclass", "person"}, {"dept", "17"}});
  ldap::Entry pinned = *before;
  pinned.set_values("dept", {"D42"});
  const EntryPtr after = std::make_shared<const ldap::Entry>(pinned);
  pinned.set_dn(ldap::Dn::parse("cn=pat,ou=research,o=ibm"));
  const EntryPtr moved = std::make_shared<const ldap::Entry>(std::move(pinned));

  server::ChangeRecord add;
  add.seq = 1;
  add.type = server::ChangeType::Add;
  add.dn = after->dn();
  add.after = after;

  server::ChangeRecord modify;
  modify.seq = 2;
  modify.type = server::ChangeType::Modify;
  modify.dn = before->dn();
  modify.before = before;
  modify.after = after;

  server::ChangeRecord rename;
  rename.seq = 3;
  rename.type = server::ChangeType::ModifyDn;
  rename.dn = before->dn();
  rename.new_dn = moved->dn();
  rename.before = before;
  rename.after = moved;

  for (const server::ChangeRecord* record : {&add, &modify, &rename}) {
    SCOPED_TRACE(server::to_string(record->type));
    std::vector<sync::ChangeRouter::Handle> candidates;
    router.route(*record, candidates);
    ASSERT_EQ(candidates, std::vector<sync::ChangeRouter::Handle>{handle});

    // Each record starts from empty content, outside which the
    // before-snapshot was and still is once the new snapshot has entered.
    sync::ContentTracker fresh(tracker.query(), schema);
    const std::vector<sync::ContentEvent> events = fresh.on_change(*record);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].transition, sync::Transition::Enter);
    EXPECT_EQ(events[0].entry, record->after);
    EXPECT_TRUE(fresh.in_content(record->after->dn()));
    EXPECT_FALSE(fresh.matches_query(*before));
  }

  // An Add without the pinned value routes nowhere.
  std::vector<sync::ChangeRouter::Handle> candidates;
  server::ChangeRecord unpinned = add;
  unpinned.after = before;
  unpinned.dn = before->dn();
  router.route(unpinned, candidates);
  EXPECT_TRUE(candidates.empty());
}

}  // namespace
}  // namespace fbdr
