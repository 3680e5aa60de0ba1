#include "ldap/dn.h"

#include <algorithm>
#include <utility>

#include "ldap/error.h"
#include "ldap/text.h"

namespace fbdr::ldap {

namespace {

/// Splits a DN string into raw RDN strings (leaf-first), honouring backslash
/// escapes of the separator characters.
std::vector<std::string> split_components(std::string_view s) {
  std::vector<std::string> parts;
  std::string current;
  bool escaped = false;
  for (char c : s) {
    if (escaped) {
      current.push_back(c);
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == ',') {
      parts.push_back(current);
      current.clear();
      continue;
    }
    current.push_back(c);
  }
  if (escaped) throw ParseError("DN ends with dangling escape: " + std::string(s));
  parts.push_back(current);
  return parts;
}

Rdn parse_rdn(std::string_view raw, std::string_view whole) {
  const std::string_view trimmed = text::trim(raw);
  const std::size_t eq = trimmed.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    throw ParseError("malformed RDN '" + std::string(raw) + "' in DN '" +
                     std::string(whole) + "'");
  }
  const std::string_view type = text::trim(trimmed.substr(0, eq));
  const std::string_view value = text::trim(trimmed.substr(eq + 1));
  if (type.empty() || value.empty()) {
    throw ParseError("empty type or value in RDN '" + std::string(raw) +
                     "' of DN '" + std::string(whole) + "'");
  }
  return Rdn(type, value);
}

}  // namespace

Rdn::Rdn(std::string_view type, std::string_view value)
    : type_(text::lower(text::trim(type))),
      value_(text::trim(value)),
      norm_value_(text::lower(text::trim(value))) {
  if (type_.empty()) throw ParseError("RDN with empty attribute type");
  if (value_.empty()) throw ParseError("RDN with empty value");
}

namespace {

/// Appends "type=value" with the RDN separator characters of the value
/// escaped, so the string form round-trips through parse (RFC 2253 quoting
/// subset).
void append_rdn(std::string& out, const std::string& type,
                const std::string& value) {
  out += type;
  out += '=';
  for (char c : value) {
    if (c == ',' || c == '+' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

Dn Dn::parse(std::string_view raw) {
  const std::string_view s = text::trim(raw);
  if (s.empty()) return Dn{};
  std::vector<Rdn> rdns;
  const std::vector<std::string> parts = split_components(s);
  rdns.reserve(parts.size());
  // String form is leaf-first; store root-to-leaf.
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    rdns.push_back(parse_rdn(*it, s));
  }
  return from_rdns(std::move(rdns));
}

Dn Dn::from_rdns(std::vector<Rdn> root_to_leaf) {
  Dn dn;
  if (root_to_leaf.empty()) return dn;
  auto rep = std::make_shared<Rep>();
  rep->rdns = std::move(root_to_leaf);
  // "type=value," per RDN: one allocation per string unless values need
  // escapes.
  std::size_t size = 0;
  for (const Rdn& rdn : rep->rdns) {
    size += rdn.type().size() + rdn.value().size() + 2;
  }
  rep->text.reserve(size);
  rep->key.reserve(size);
  // Leaf-first display/normalized form.
  for (auto it = rep->rdns.rbegin(); it != rep->rdns.rend(); ++it) {
    if (!rep->text.empty()) {
      rep->text += ',';
      rep->key += ',';
    }
    append_rdn(rep->text, it->type(), it->value());
    append_rdn(rep->key, it->type(), it->norm_value());
  }
  dn.rep_ = std::move(rep);
  return dn;
}

const Rdn& Dn::leaf_rdn() const {
  if (is_root()) throw OperationError(ResultCode::InvalidDnSyntax, "root DN has no RDN");
  return rdns().back();
}

Dn Dn::parent() const {
  if (is_root()) {
    throw OperationError(ResultCode::InvalidDnSyntax, "root DN has no parent");
  }
  return from_rdns(std::vector<Rdn>(rdns().begin(), rdns().end() - 1));
}

Dn Dn::child(Rdn rdn) const {
  std::vector<Rdn> rdns_out = rdns();
  rdns_out.push_back(std::move(rdn));
  return from_rdns(std::move(rdns_out));
}

bool Dn::is_ancestor_of(const Dn& other) const {
  if (depth() >= other.depth()) return false;
  return std::equal(rdns().begin(), rdns().end(), other.rdns().begin());
}

bool Dn::is_ancestor_or_self(const Dn& other) const {
  return *this == other || is_ancestor_of(other);
}

bool Dn::is_parent_of(const Dn& other) const {
  return depth() + 1 == other.depth() && is_ancestor_of(other);
}

Dn Dn::rebase(const Dn& old_base, const Dn& new_base) const {
  if (!old_base.is_ancestor_or_self(*this)) {
    throw OperationError(ResultCode::NamingViolation,
                         "rebase: '" + old_base.to_string() +
                             "' is not an ancestor of '" + to_string() + "'");
  }
  std::vector<Rdn> rdns_out = new_base.rdns();
  rdns_out.insert(rdns_out.end(),
                  rdns().begin() + static_cast<std::ptrdiff_t>(old_base.depth()),
                  rdns().end());
  return from_rdns(std::move(rdns_out));
}

}  // namespace fbdr::ldap
