#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

/// Small ASCII text helpers shared across the library. Directory strings in
/// this reproduction are ASCII; case-insensitive matching rules lowercase
/// bytes in [A-Z] only, which matches LDAP caseIgnoreMatch behaviour for the
/// attribute values the paper's workloads use.
namespace fbdr::ldap::text {

inline char to_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// True when `s` has a byte lower() would change.
inline bool has_upper(std::string_view s) {
  for (char c : s) {
    if (to_lower(c) != c) return true;
  }
  return false;
}

inline std::string lower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(to_lower(c));
  return out;
}

inline bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (to_lower(a[i]) != to_lower(b[i])) return false;
  }
  return true;
}

/// Trim ASCII spaces from both ends.
inline std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && s[b] == ' ') ++b;
  while (e > b && s[e - 1] == ' ') --e;
  return s.substr(b, e - b);
}

inline bool starts_with_ci(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && iequals(s.substr(0, prefix.size()), prefix);
}

inline bool ends_with_ci(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         iequals(s.substr(s.size() - suffix.size()), suffix);
}

/// Find `needle` in `haystack` at or after `from`, case-insensitively.
/// Returns std::string_view::npos when absent.
inline std::size_t find_ci(std::string_view haystack, std::string_view needle,
                           std::size_t from) {
  if (needle.empty()) return from <= haystack.size() ? from : std::string_view::npos;
  if (haystack.size() < needle.size()) return std::string_view::npos;
  for (std::size_t i = from; i + needle.size() <= haystack.size(); ++i) {
    if (iequals(haystack.substr(i, needle.size()), needle)) return i;
  }
  return std::string_view::npos;
}

/// A number field of the wire and control formats (cookie sequence numbers
/// and epochs, control counts, command-line flags): the whole of `s` is one
/// or more decimal digits whose value fits in 64 bits. A sign, a space or
/// any byte after the digits makes it nullopt.
inline std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t value = 0;
  const char* end = s.data() + s.size();
  const auto [last, error] = std::from_chars(s.data(), end, value);
  if (error != std::errc() || last != end) return std::nullopt;
  return value;
}

}  // namespace fbdr::ldap::text
