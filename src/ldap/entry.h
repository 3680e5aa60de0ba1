#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ldap/dn.h"
#include "ldap/schema.h"

namespace fbdr::ldap {

/// A directory entry: a DN plus a set of attribute/value pairs. Attribute
/// names are stored lowercased; values keep their original spelling (matching
/// rules are applied at comparison time via the Schema).
///
/// Entries held by the DIT are immutable (`std::shared_ptr<const Entry>`);
/// update operations build modified copies. This gives the change journal and
/// sync back-ends cheap before/after snapshots. The attributes are one flat
/// vector sorted by name, so a copy or a free handles no tree node per
/// attribute, only the vector and each attribute's values.
class Entry {
 public:
  using Attribute = std::pair<std::string, std::vector<std::string>>;

  Entry() = default;
  explicit Entry(Dn dn) : dn_(std::move(dn)) {}

  const Dn& dn() const noexcept { return dn_; }
  void set_dn(Dn dn) { dn_ = std::move(dn); }

  /// Adds one value to an attribute (duplicates under the matching rule are
  /// collapsed).
  void add_value(std::string_view attr, std::string_view value,
                 const Schema& schema = Schema::default_instance());

  /// Replaces all values of an attribute. An empty vector removes it. Names
  /// set in sorted order append at the end.
  void set_values(std::string_view attr, std::vector<std::string> values);

  /// Makes room for `count` attributes (a decoder that knows the count).
  void reserve(std::size_t count) { attrs_.reserve(count); }

  /// Removes one value; returns true when it was present.
  bool remove_value(std::string_view attr, std::string_view value,
                    const Schema& schema = Schema::default_instance());

  /// Removes the whole attribute; returns true when it was present.
  bool remove_attribute(std::string_view attr);

  bool has_attribute(std::string_view attr) const {
    return get(attr) != nullptr;
  }

  /// True when the attribute holds `value` under its matching rule.
  bool has_value(std::string_view attr, std::string_view value,
                 const Schema& schema = Schema::default_instance()) const;

  /// Values of an attribute; nullptr when absent.
  const std::vector<std::string>* get(std::string_view attr) const;

  /// First value of an attribute; empty string when absent.
  std::string_view first(std::string_view attr) const;

  /// Lowercased names of all attributes, in sorted order.
  std::vector<std::string> attribute_names() const;

  /// (name, values) pairs sorted by the lowercased name.
  const std::vector<Attribute>& attributes() const noexcept { return attrs_; }

  /// Values of the objectclass attribute (possibly empty).
  const std::vector<std::string>& object_classes() const;

  std::size_t attribute_count() const noexcept { return attrs_.size(); }

  /// Approximate in-memory size in bytes: DN plus names and values. Models
  /// the memory a cached copy costs (the master's replay-cache budget); link
  /// bytes are encoded frame sizes, not this.
  std::size_t approx_size_bytes() const;

  friend bool operator==(const Entry& a, const Entry& b) {
    return a.dn_ == b.dn_ && a.attrs_ == b.attrs_;
  }
  friend bool operator!=(const Entry& a, const Entry& b) { return !(a == b); }

 private:
  Dn dn_;
  std::vector<Attribute> attrs_;  // sorted by name; names lowercased
};

using EntryPtr = std::shared_ptr<const Entry>;

/// Convenience builder used heavily by tests and generators:
/// make_entry("cn=John,o=xyz", {{"objectclass", "person"}, {"cn", "John"}}).
EntryPtr make_entry(std::string_view dn,
                    std::initializer_list<std::pair<std::string_view, std::string_view>>
                        attr_values);

}  // namespace fbdr::ldap
