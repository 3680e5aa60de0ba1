#include "filter_eval.h"

#include <algorithm>

#include "ldap/error.h"
#include "ldap/text.h"

namespace fbdr::ldap {

bool matches_predicate(const Filter& predicate, const Entry& entry,
                       const Schema& schema) {
  const std::string& attr = predicate.attribute();
  const std::vector<std::string>* values = entry.get(attr);

  switch (predicate.kind()) {
    case FilterKind::Present:
      return values != nullptr && !values->empty();
    case FilterKind::Equality: {
      if (!values) return false;
      return std::any_of(values->begin(), values->end(), [&](const std::string& v) {
        return schema.equals(attr, v, predicate.value());
      });
    }
    case FilterKind::GreaterEq: {
      if (!values) return false;
      return std::any_of(values->begin(), values->end(), [&](const std::string& v) {
        return schema.compare(attr, v, predicate.value()) >= 0;
      });
    }
    case FilterKind::LessEq: {
      if (!values) return false;
      return std::any_of(values->begin(), values->end(), [&](const std::string& v) {
        return schema.compare(attr, v, predicate.value()) <= 0;
      });
    }
    case FilterKind::Substring: {
      if (!values) return false;
      // Substring matching is performed on normalized text so that
      // case-ignore attributes match case-insensitively.
      SubstringPattern normalized;
      normalized.initial = schema.normalize(attr, predicate.substrings().initial);
      normalized.final = schema.normalize(attr, predicate.substrings().final);
      for (const std::string& part : predicate.substrings().any) {
        normalized.any.push_back(schema.normalize(attr, part));
      }
      return std::any_of(values->begin(), values->end(), [&](const std::string& v) {
        return normalized.matches(schema.normalize(attr, v));
      });
    }
    case FilterKind::And:
    case FilterKind::Or:
    case FilterKind::Not:
      throw OperationError(ResultCode::OperationsError,
                           "matches_predicate called on composite filter");
  }
  return false;
}

bool matches(const Filter& filter, const Entry& entry, const Schema& schema) {
  switch (filter.kind()) {
    case FilterKind::And:
      return std::all_of(filter.children().begin(), filter.children().end(),
                         [&](const FilterPtr& child) {
                           return matches(*child, entry, schema);
                         });
    case FilterKind::Or:
      return std::any_of(filter.children().begin(), filter.children().end(),
                         [&](const FilterPtr& child) {
                           return matches(*child, entry, schema);
                         });
    case FilterKind::Not:
      return !matches(*filter.children().front(), entry, schema);
    default:
      return matches_predicate(filter, entry, schema);
  }
}

}  // namespace fbdr::ldap
