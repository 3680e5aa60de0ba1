#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace fbdr::ldap {

/// A relative distinguished name: one `type=value` naming component.
/// Multi-valued RDNs are not needed by the paper's workloads and are not
/// supported. The attribute type is stored lowercased; the value keeps its
/// original spelling, with a lowercased copy used for matching.
class Rdn {
 public:
  Rdn() = default;
  Rdn(std::string_view type, std::string_view value);

  const std::string& type() const noexcept { return type_; }
  const std::string& value() const noexcept { return value_; }
  const std::string& norm_value() const noexcept { return norm_value_; }

  friend bool operator==(const Rdn& a, const Rdn& b) {
    return a.type_ == b.type_ && a.norm_value_ == b.norm_value_;
  }
  friend bool operator!=(const Rdn& a, const Rdn& b) { return !(a == b); }

 private:
  std::string type_;        // lowercased
  std::string value_;       // original case
  std::string norm_value_;  // lowercased
};

/// A distinguished name. The root of the DIT is the *null* DN (zero RDNs).
///
/// Internally RDNs are held in root-to-leaf order so that ancestor tests are
/// vector-prefix tests; the LDAP string form is leaf-first
/// (`cn=John Doe,ou=research,c=us,o=xyz`). DNs are immutable values: the
/// RDNs and both string forms live in one shared representation, so a copy
/// is a reference-count bump and the null DN holds none.
class Dn {
 public:
  /// Constructs the null DN (DIT root).
  Dn() = default;

  /// Parses an RFC 2253-style string (`cn=John,ou=research,o=xyz`). The empty
  /// string parses to the null DN. Supports `\,` `\=` `\\` `\+` escapes.
  /// Throws ParseError on malformed input.
  static Dn parse(std::string_view text);

  /// Builds a DN from RDNs given in root-to-leaf order.
  static Dn from_rdns(std::vector<Rdn> root_to_leaf);

  bool is_root() const noexcept { return rep_ == nullptr; }
  std::size_t depth() const noexcept { return rdns().size(); }

  /// RDN components in root-to-leaf order; index 0 is closest to the root.
  const std::vector<Rdn>& rdns() const noexcept { return rep().rdns; }

  /// The leaf (leftmost in string form) RDN. Precondition: !is_root().
  const Rdn& leaf_rdn() const;

  /// Parent DN. Precondition: !is_root().
  Dn parent() const;

  /// DN of a child entry named by `rdn` under this DN.
  Dn child(Rdn rdn) const;

  /// True when `this` names an entry on the path from the root to `other`,
  /// excluding `other` itself (the paper's isSuffix(a, b): a is an ancestor
  /// of b). The null DN is an ancestor of every non-null DN.
  bool is_ancestor_of(const Dn& other) const;

  /// is_ancestor_of or equal.
  bool is_ancestor_or_self(const Dn& other) const;

  /// True when `this` is the immediate parent of `other`.
  bool is_parent_of(const Dn& other) const;

  /// Replaces the ancestor prefix `old_base` with `new_base`; used by
  /// modifyDN with a new superior. Precondition: old_base.is_ancestor_or_self
  /// of this DN.
  Dn rebase(const Dn& old_base, const Dn& new_base) const;

  /// LDAP string form, leaf-first. The null DN prints as "".
  const std::string& to_string() const noexcept { return rep().text; }

  /// Canonical lowercase key for maps/sets.
  const std::string& norm_key() const noexcept { return rep().key; }

  friend bool operator==(const Dn& a, const Dn& b) {
    return a.rep_ == b.rep_ || a.norm_key() == b.norm_key();
  }
  friend bool operator!=(const Dn& a, const Dn& b) { return !(a == b); }
  friend bool operator<(const Dn& a, const Dn& b) {
    return a.norm_key() < b.norm_key();
  }

 private:
  struct Rep {
    std::vector<Rdn> rdns;  // root-to-leaf
    std::string text;       // leaf-first display form
    std::string key;        // leaf-first normalized form
  };
  static const Rep& null_rep() noexcept {
    static const Rep kNull;
    return kNull;
  }
  const Rep& rep() const noexcept { return rep_ ? *rep_ : null_rep(); }

  std::shared_ptr<const Rep> rep_;  // null for the null DN
};

/// Paper §3.4.1 helper: isSuffix(a, b) is true when DN `a` is an ancestor of
/// DN `b` (strictly above it in the tree).
inline bool is_suffix(const Dn& a, const Dn& b) { return a.is_ancestor_of(b); }

/// Paper §4 helper: isparent(a, b) is true when `a` is the parent of `b`.
inline bool is_parent(const Dn& a, const Dn& b) { return a.is_parent_of(b); }

struct DnHash {
  std::size_t operator()(const Dn& dn) const noexcept {
    return std::hash<std::string>{}(dn.norm_key());
  }
};

}  // namespace fbdr::ldap
