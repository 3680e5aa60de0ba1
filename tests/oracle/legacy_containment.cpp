#include "legacy_containment.h"

#include "containment/pattern.h"
#include "containment/value_range.h"
#include "ldap/error.h"

namespace fbdr::containment {

using ldap::Filter;
using ldap::FilterKind;
using ldap::Schema;
using ldap::SubstringPattern;
using ldap::Syntax;

namespace {

// Private copies of the DNF builders in src/containment/dnf.cpp, so the
// reference expansion stays independent of the code it checks.

/// True when prefix-substring predicates on this attribute can be translated
/// into lexicographic ranges (integer ordering is numeric, which does not
/// agree with prefix order, so integers keep patterns opaque).
bool prefix_ranges_valid(std::string_view attr, const Schema& schema) {
  return schema.syntax_of(attr) != Syntax::Integer;
}

void add_range(Conjunct& conjunct, const std::string& attr, ValueRange range,
               const Schema& schema) {
  AttrConstraints& c = conjunct[attr];
  c.range = c.range.intersect(range, ValueOrder(schema, attr));
  c.has_range = true;
}

void add_pattern(Conjunct& conjunct, const std::string& attr,
                 SubstringPattern pattern) {
  conjunct[attr].patterns.push_back(std::move(pattern));
}

void add_not_pattern(Conjunct& conjunct, const std::string& attr,
                     SubstringPattern pattern) {
  conjunct[attr].not_patterns.push_back(std::move(pattern));
}

Conjunct single(const std::string& attr, AttrConstraints constraints) {
  Conjunct c;
  c[attr] = std::move(constraints);
  return c;
}

/// Legacy DNF of one raw-AST predicate: normalizes assertion values inline.
std::vector<Conjunct> legacy_predicate_dnf(const Filter& p, bool negated,
                                           const Schema& schema) {
  const std::string& attr = p.attribute();
  const ValueOrder order(schema, attr);
  std::vector<Conjunct> out;

  switch (p.kind()) {
    case FilterKind::Present: {
      if (!negated) {
        AttrConstraints c;
        c.present = true;
        out.push_back(single(attr, std::move(c)));
      } else {
        AttrConstraints c;
        c.absent = true;
        out.push_back(single(attr, std::move(c)));
      }
      return out;
    }
    case FilterKind::Equality: {
      const std::string v = schema.normalize(attr, p.value());
      if (!negated) {
        Conjunct c;
        add_range(c, attr, ValueRange::point(v), schema);
        out.push_back(std::move(c));
      } else {
        AttrConstraints absent;
        absent.absent = true;
        out.push_back(single(attr, std::move(absent)));
        Conjunct below;
        add_range(below, attr, ValueRange::less_than(v), schema);
        out.push_back(std::move(below));
        Conjunct above;
        add_range(above, attr, ValueRange::greater_than(v), schema);
        out.push_back(std::move(above));
      }
      return out;
    }
    case FilterKind::GreaterEq:
    case FilterKind::LessEq: {
      const std::string v = schema.normalize(attr, p.value());
      const bool ge = p.kind() == FilterKind::GreaterEq;
      if (!negated) {
        Conjunct c;
        add_range(c, attr, ge ? ValueRange::at_least(v) : ValueRange::at_most(v),
                  schema);
        out.push_back(std::move(c));
      } else {
        AttrConstraints absent;
        absent.absent = true;
        out.push_back(single(attr, std::move(absent)));
        Conjunct complement;
        add_range(complement, attr,
                  ge ? ValueRange::less_than(v) : ValueRange::greater_than(v),
                  schema);
        out.push_back(std::move(complement));
      }
      return out;
    }
    case FilterKind::Substring: {
      const SubstringPattern pattern =
          normalize_pattern(p.substrings(), attr, schema);
      const bool prefix_only =
          pattern.is_prefix_only() && prefix_ranges_valid(attr, schema);
      if (!negated) {
        Conjunct c;
        add_pattern(c, attr, pattern);
        if (!pattern.initial.empty() && prefix_ranges_valid(attr, schema)) {
          // Range refinement: a value matching "p*..." lies in prefix(p).
          add_range(c, attr, ValueRange::prefix(pattern.initial), schema);
        }
        out.push_back(std::move(c));
      } else {
        AttrConstraints absent;
        absent.absent = true;
        out.push_back(single(attr, std::move(absent)));
        if (prefix_only) {
          Conjunct below;
          add_range(below, attr, ValueRange::less_than(pattern.initial), schema);
          out.push_back(std::move(below));
          if (auto upper = prefix_upper_bound(pattern.initial)) {
            Conjunct above;
            add_range(above, attr, ValueRange::at_least(*upper), schema);
            out.push_back(std::move(above));
          }
        } else {
          Conjunct np;
          add_not_pattern(np, attr, pattern);
          out.push_back(std::move(np));
        }
      }
      return out;
    }
    case FilterKind::And:
    case FilterKind::Or:
    case FilterKind::Not:
      throw ldap::OperationError(ldap::ResultCode::OperationsError,
                                 "predicate_dnf called on composite node");
  }
  return out;
}

std::vector<Conjunct> cross_product(const std::vector<std::vector<Conjunct>>& parts,
                                    const Schema& schema,
                                    std::size_t max_conjuncts) {
  std::vector<Conjunct> result{Conjunct{}};
  for (const std::vector<Conjunct>& part : parts) {
    std::vector<Conjunct> next;
    if (result.size() * part.size() > max_conjuncts) {
      throw DnfLimitExceeded(max_conjuncts);
    }
    next.reserve(result.size() * part.size());
    for (const Conjunct& a : result) {
      for (const Conjunct& b : part) {
        next.push_back(merge_conjuncts(a, b, schema));
      }
    }
    result = std::move(next);
  }
  return result;
}

}  // namespace

std::vector<Conjunct> legacy_to_dnf(const Filter& filter, bool negated,
                                    const Schema& schema,
                                    std::size_t max_conjuncts) {
  switch (filter.kind()) {
    case FilterKind::Not:
      return legacy_to_dnf(*filter.children().front(), !negated, schema,
                           max_conjuncts);
    case FilterKind::And:
    case FilterKind::Or: {
      const bool conjunctive = (filter.kind() == FilterKind::And) != negated;
      if (conjunctive) {
        std::vector<std::vector<Conjunct>> parts;
        parts.reserve(filter.children().size());
        for (const ldap::FilterPtr& child : filter.children()) {
          parts.push_back(legacy_to_dnf(*child, negated, schema, max_conjuncts));
        }
        return cross_product(parts, schema, max_conjuncts);
      }
      std::vector<Conjunct> out;
      for (const ldap::FilterPtr& child : filter.children()) {
        std::vector<Conjunct> part =
            legacy_to_dnf(*child, negated, schema, max_conjuncts);
        if (out.size() + part.size() > max_conjuncts) {
          throw DnfLimitExceeded(max_conjuncts);
        }
        out.insert(out.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
      }
      return out;
    }
    default:
      return legacy_predicate_dnf(filter, negated, schema);
  }
}

bool filter_contained_legacy(const Filter& inner, const Filter& outer,
                             const Schema& schema, std::size_t max_conjuncts) {
  try {
    const std::vector<Conjunct> dnf_inner =
        legacy_to_dnf(inner, /*negated=*/false, schema, max_conjuncts);
    const std::vector<Conjunct> dnf_not_outer =
        legacy_to_dnf(outer, /*negated=*/true, schema, max_conjuncts);
    for (const Conjunct& a : dnf_inner) {
      for (const Conjunct& b : dnf_not_outer) {
        if (!conjunct_inconsistent(merge_conjuncts(a, b, schema), schema)) {
          return false;
        }
      }
    }
    return true;
  } catch (const DnfLimitExceeded&) {
    return false;
  }
}

}  // namespace fbdr::containment
