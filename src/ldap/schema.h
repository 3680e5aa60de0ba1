#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace fbdr::ldap {

/// Attribute value syntax; determines the matching and ordering rules used
/// when evaluating filters and deciding filter containment.
enum class Syntax {
  CaseIgnoreString,  // caseIgnoreMatch / caseIgnoreOrderingMatch
  CaseExactString,   // caseExactMatch
  Integer,           // integerMatch / integerOrderingMatch
  DnString,          // distinguishedNameMatch (compared as normalized DNs)
};

std::string to_string(Syntax syntax);

/// Schema description of one attribute type.
struct AttributeType {
  std::string name;  // canonical (lowercase) name
  Syntax syntax = Syntax::CaseIgnoreString;
  bool single_valued = false;
  /// True when every entry carries this attribute (objectclass). Containment
  /// reasoning uses this: a branch requiring a required attribute to be
  /// absent is inconsistent, which is what makes (objectclass=*) the
  /// match-everything filter (§2.2).
  bool required = false;
};

/// A minimal attribute-type registry. Unknown attributes default to
/// case-ignore strings, which is what generic LDAP servers do when no
/// ordering rule is configured.
///
/// The default instance registers the attributes used by the paper's case
/// study (inetOrgPerson-style person entries, department/division entries and
/// location entries).
class Schema {
 public:
  Schema();

  /// The process-wide default schema (immutable after construction).
  static const Schema& default_instance();

  /// Registers (or replaces) an attribute type.
  void add(AttributeType type);

  /// Finds an attribute type by name (case-insensitive). Returns nullptr for
  /// unregistered attributes.
  const AttributeType* find(std::string_view name) const;

  /// Syntax for an attribute, defaulting to CaseIgnoreString when unknown.
  Syntax syntax_of(std::string_view attr) const;

  /// Normalizes an assertion/attribute value under the attribute's matching
  /// rule (lowercasing for case-ignore, canonical integer form for integers).
  std::string normalize(std::string_view attr, std::string_view value) const;

  /// The one normalization primitive: writes `value` normalized under
  /// `syntax` into `out`, replacing its contents. Filter evaluation resolves
  /// the syntax once and reuses one `out` across values, so the hot path
  /// allocates only when a value outgrows the buffer.
  static void normalize_into(Syntax syntax, std::string_view value,
                             std::string& out);

  /// Three-way comparison of two values under the attribute's ordering rule.
  /// Returns <0, 0 or >0. Integer syntax compares numerically; strings
  /// compare lexicographically after normalization.
  int compare(std::string_view attr, std::string_view a, std::string_view b) const;

  bool equals(std::string_view attr, std::string_view a, std::string_view b) const {
    return compare(attr, a, b) == 0;
  }

  /// Monotonically increasing stamp bumped by every add(). Two Schema
  /// objects never share a (address, revision) pair even across address
  /// reuse, so FilterInterner::for_schema can key its per-schema interners
  /// safely and drop cached normalizations when a schema mutates.
  std::uint64_t revision() const noexcept { return revision_; }

 private:
  /// Lets find() look a name up by string_view without building a key.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::unordered_map<std::string, AttributeType, NameHash, std::equal_to<>>
      types_;
  std::uint64_t revision_ = 0;
};

/// Canonical integer form: optional '-', no leading zeros ("007" -> "7",
/// "-0" -> "0"). Returns nullopt when the value is not a valid integer
/// literal; callers fall back to string comparison in that case.
std::optional<std::string> canonical_integer(std::string_view value);

/// Numeric comparison of two canonical integer strings.
int compare_canonical_integers(std::string_view a, std::string_view b);

/// True when `value` is already in canonical integer form (optional '-',
/// digits, no leading zeros). Schema::normalize emits exactly this form for
/// valid integer literals under Integer syntax, and never emits a pure digit
/// string for an invalid one, so this test recovers "was a valid integer"
/// from the normalized spelling alone.
bool is_canonical_integer(std::string_view value);

}  // namespace fbdr::ldap
