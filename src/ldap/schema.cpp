#include "ldap/schema.h"

#include <algorithm>

#include "ldap/text.h"

namespace fbdr::ldap {

std::string to_string(Syntax syntax) {
  switch (syntax) {
    case Syntax::CaseIgnoreString:
      return "caseIgnoreString";
    case Syntax::CaseExactString:
      return "caseExactString";
    case Syntax::Integer:
      return "integer";
    case Syntax::DnString:
      return "dn";
  }
  return "unknown";
}

namespace {

/// Writes the canonical integer form of `value` into `out`; false (and
/// `out` untouched) when `value` is not an integer literal.
bool canonical_integer_into(std::string_view value, std::string& out) {
  std::string_view s = text::trim(value);
  if (s.empty()) return false;
  bool negative = false;
  if (s.front() == '-' || s.front() == '+') {
    negative = s.front() == '-';
    s.remove_prefix(1);
    if (s.empty()) return false;
  }
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  std::size_t first = 0;
  while (first + 1 < s.size() && s[first] == '0') ++first;
  const std::string_view digits = s.substr(first);
  out.clear();
  if (negative && digits != "0") out.push_back('-');
  out.append(digits);
  return true;
}

}  // namespace

std::optional<std::string> canonical_integer(std::string_view value) {
  std::string canon;
  if (!canonical_integer_into(value, canon)) return std::nullopt;
  return canon;
}

int compare_canonical_integers(std::string_view a, std::string_view b) {
  const bool na = !a.empty() && a.front() == '-';
  const bool nb = !b.empty() && b.front() == '-';
  if (na != nb) return na ? -1 : 1;
  std::string_view da = na ? a.substr(1) : a;
  std::string_view db = nb ? b.substr(1) : b;
  int magnitude;
  if (da.size() != db.size()) {
    magnitude = da.size() < db.size() ? -1 : 1;
  } else {
    magnitude = da == db ? 0 : (da < db ? -1 : 1);
  }
  return na ? -magnitude : magnitude;
}

bool is_canonical_integer(std::string_view value) {
  if (!value.empty() && value.front() == '-') value.remove_prefix(1);
  if (value.empty()) return false;
  if (value.size() > 1 && value.front() == '0') return false;
  for (char c : value) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

Schema::Schema() {
  // Core naming / structural attributes.
  for (const char* name : {"cn", "sn", "givenname", "ou", "o",
                           "c", "l", "dc", "uid", "description", "title"}) {
    add({name, Syntax::CaseIgnoreString, false, false});
  }
  add({"objectclass", Syntax::CaseIgnoreString, false, /*required=*/true});
  // Case study attributes (IBM enterprise directory shape, §7.1).
  add({"mail", Syntax::CaseIgnoreString, false});
  add({"telephonenumber", Syntax::CaseIgnoreString, false});
  // serialNumber is a structured digit string; substring (prefix) filters are
  // issued against it, so it is matched as a string (fixed-width digit
  // strings order identically to their numeric values).
  add({"serialnumber", Syntax::CaseIgnoreString, true});
  add({"employeenumber", Syntax::CaseIgnoreString, true});
  add({"departmentnumber", Syntax::CaseIgnoreString, true});
  add({"dept", Syntax::CaseIgnoreString, true});
  add({"div", Syntax::CaseIgnoreString, true});
  add({"location", Syntax::CaseIgnoreString, true});
  add({"manager", Syntax::DnString, true});
  // Numeric attributes used in containment examples (e.g. (age>=30)).
  add({"age", Syntax::Integer, true});
  add({"roomnumber", Syntax::Integer, true});
  add({"uidnumber", Syntax::Integer, true});
}

const Schema& Schema::default_instance() {
  static const Schema schema;
  return schema;
}

void Schema::add(AttributeType type) {
  type.name = text::lower(type.name);
  types_[type.name] = std::move(type);
  static std::uint64_t global_revision = 0;
  revision_ = ++global_revision;
}

const AttributeType* Schema::find(std::string_view name) const {
  if (text::has_upper(name)) return find(text::lower(name));
  const auto it = types_.find(name);
  return it == types_.end() ? nullptr : &it->second;
}

Syntax Schema::syntax_of(std::string_view attr) const {
  const AttributeType* type = find(attr);
  return type ? type->syntax : Syntax::CaseIgnoreString;
}

std::string Schema::normalize(std::string_view attr, std::string_view value) const {
  std::string out;
  normalize_into(syntax_of(attr), value, out);
  return out;
}

void Schema::normalize_into(Syntax syntax, std::string_view value,
                            std::string& out) {
  switch (syntax) {
    case Syntax::CaseExactString:
      out.assign(text::trim(value));
      return;
    case Syntax::Integer:
      if (canonical_integer_into(value, out)) return;
      // Not a number: fall back to case-ignore string matching.
      break;
    case Syntax::CaseIgnoreString:
    case Syntax::DnString:
      break;
  }
  const std::string_view trimmed = text::trim(value);
  out.resize(trimmed.size());
  std::transform(trimmed.begin(), trimmed.end(), out.begin(), text::to_lower);
}

int Schema::compare(std::string_view attr, std::string_view a,
                    std::string_view b) const {
  thread_local ValueProbe probe;
  probe.reset(syntax_of(attr), b);
  return probe.compare(a);
}

void Schema::ValueProbe::reset(Syntax syntax, std::string_view probe) {
  syntax_ = syntax;
  integer_ = syntax == Syntax::Integer && canonical_integer_into(probe, probe_);
  if (!integer_) normalize_into(syntax, probe, probe_);
}

int Schema::ValueProbe::compare(std::string_view value) {
  // Two integers compare numerically; anything else by normalized spelling.
  if (integer_ && canonical_integer_into(value, scratch_)) {
    return compare_canonical_integers(scratch_, probe_);
  }
  normalize_into(syntax_, value, scratch_);
  const int order = scratch_.compare(probe_);
  return order == 0 ? 0 : (order < 0 ? -1 : 1);
}

}  // namespace fbdr::ldap
