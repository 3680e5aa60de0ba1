#include "ldap/entry.h"

#include <algorithm>

#include "ldap/text.h"

namespace fbdr::ldap {

namespace {

/// Where the attribute named `key` (lowercased) is or would be inserted;
/// names arriving in sorted order go straight to the end.
template <typename Attrs>
auto slot(Attrs& attrs, std::string_view key) {
  if (attrs.empty() || attrs.back().first < key) return attrs.end();
  return std::lower_bound(
      attrs.begin(), attrs.end(), key,
      [](const Entry::Attribute& attr, std::string_view k) { return attr.first < k; });
}

}  // namespace

void Entry::add_value(std::string_view attr, std::string_view value,
                      const Schema& schema) {
  std::string key = text::lower(attr);
  auto it = slot(attrs_, key);
  if (it == attrs_.end() || it->first != key) {
    it = attrs_.emplace(it, std::move(key), std::vector<std::string>{});
  }
  std::vector<std::string>& values = it->second;
  Schema::ValueProbe probe(schema, it->first, value);
  const bool present = std::any_of(
      values.begin(), values.end(),
      [&](const std::string& v) { return probe.equals(v); });
  if (!present) values.emplace_back(value);
}

void Entry::set_values(std::string_view attr, std::vector<std::string> values) {
  std::string key = text::lower(attr);
  const auto it = slot(attrs_, key);
  if (it == attrs_.end() || it->first != key) {
    if (!values.empty()) attrs_.emplace(it, std::move(key), std::move(values));
  } else if (values.empty()) {
    attrs_.erase(it);
  } else {
    it->second = std::move(values);
  }
}

bool Entry::remove_value(std::string_view attr, std::string_view value,
                         const Schema& schema) {
  const std::string key = text::lower(attr);
  const auto it = slot(attrs_, key);
  if (it == attrs_.end() || it->first != key) return false;
  auto& values = it->second;
  Schema::ValueProbe probe(schema, it->first, value);
  const auto pos = std::find_if(
      values.begin(), values.end(),
      [&](const std::string& v) { return probe.equals(v); });
  if (pos == values.end()) return false;
  values.erase(pos);
  if (values.empty()) attrs_.erase(it);
  return true;
}

bool Entry::remove_attribute(std::string_view attr) {
  const std::string key = text::lower(attr);
  return std::erase_if(attrs_, [&](const Attribute& a) { return a.first == key; }) > 0;
}

bool Entry::has_value(std::string_view attr, std::string_view value,
                      const Schema& schema) const {
  const std::vector<std::string>* values = get(attr);
  if (!values) return false;
  Schema::ValueProbe probe(schema, attr, value);
  return std::any_of(values->begin(), values->end(),
                     [&](const std::string& v) { return probe.equals(v); });
}

const std::vector<std::string>* Entry::get(std::string_view attr) const {
  if (text::has_upper(attr)) return get(text::lower(attr));
  const auto it = slot(attrs_, attr);
  return it == attrs_.end() || it->first != attr ? nullptr : &it->second;
}

std::string_view Entry::first(std::string_view attr) const {
  const std::vector<std::string>* values = get(attr);
  if (!values || values->empty()) return {};
  return values->front();
}

std::vector<std::string> Entry::attribute_names() const {
  std::vector<std::string> names;
  names.reserve(attrs_.size());
  for (const auto& [name, values] : attrs_) names.push_back(name);
  return names;
}

const std::vector<std::string>& Entry::object_classes() const {
  static const std::vector<std::string> kEmpty;
  const std::vector<std::string>* values = get("objectclass");
  return values ? *values : kEmpty;
}

std::size_t Entry::approx_size_bytes() const {
  std::size_t size = dn_.to_string().size();
  for (const auto& [name, values] : attrs_) {
    for (const std::string& value : values) {
      size += name.size() + value.size() + 2;  // "name: value" separators
    }
  }
  return size;
}

EntryPtr make_entry(
    std::string_view dn,
    std::initializer_list<std::pair<std::string_view, std::string_view>> attr_values) {
  auto entry = std::make_shared<Entry>(Dn::parse(dn));
  for (const auto& [attr, value] : attr_values) {
    entry->add_value(attr, value);
  }
  // Entries carry their naming attribute (X.500 naming rule); add it when
  // the caller did not list it explicitly.
  if (!entry->dn().is_root()) {
    const Rdn& rdn = entry->dn().leaf_rdn();
    if (!entry->has_value(rdn.type(), rdn.value())) {
      entry->add_value(rdn.type(), rdn.value());
    }
  }
  return entry;
}

}  // namespace fbdr::ldap
