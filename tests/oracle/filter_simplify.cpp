#include "filter_simplify.h"

#include <vector>

namespace fbdr::ldap {

namespace {

/// Appends `child` (already simplified) to `out`, splicing same-kind
/// composites and dropping structural duplicates.
void absorb(FilterKind kind, const FilterPtr& child, std::vector<FilterPtr>& out) {
  if (child->kind() == kind) {
    for (const FilterPtr& grandchild : child->children()) {
      absorb(kind, grandchild, out);
    }
    return;
  }
  for (const FilterPtr& existing : out) {
    if (filters_equal(*existing, *child)) return;
  }
  out.push_back(child);
}

}  // namespace

FilterPtr simplify(const FilterPtr& filter) {
  if (!filter || filter->is_predicate()) return filter;
  switch (filter->kind()) {
    case FilterKind::Not: {
      const FilterPtr inner = simplify(filter->children().front());
      if (inner->kind() == FilterKind::Not) {
        return inner->children().front();  // double negation
      }
      if (inner == filter->children().front()) return filter;  // unchanged
      return Filter::make_not(inner);
    }
    case FilterKind::And:
    case FilterKind::Or: {
      std::vector<FilterPtr> children;
      children.reserve(filter->children().size());
      for (const FilterPtr& child : filter->children()) {
        absorb(filter->kind(), simplify(child), children);
      }
      if (children.size() == 1) return children.front();
      return filter->kind() == FilterKind::And
                 ? Filter::make_and(std::move(children))
                 : Filter::make_or(std::move(children));
    }
    default:
      return filter;
  }
}

}  // namespace fbdr::ldap
