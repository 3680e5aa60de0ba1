#include "ldap/compiled_filter.h"

#include <algorithm>

namespace fbdr::ldap {

namespace {

const std::vector<std::string> kNoValues;

}  // namespace

const std::vector<std::string>& NormalizedValueCache::get(
    const EntryPtr& entry, const std::string& attr, const Schema& schema) {
  return get(entry, FilterInterner::for_schema(schema).attrs().intern(attr),
             FilterInterner::for_schema(schema).attrs());
}

const std::vector<std::string>& NormalizedValueCache::get(
    const EntryPtr& entry, AttrId attr, const AttrInterner& attrs) {
  if (entries_.size() >= capacity_ &&
      entries_.find(entry.get()) == entries_.end()) {
    clear();
  }
  PerEntry& slot = entries_[entry.get()];
  if (!slot.pin) slot.pin = entry;
  const auto it = slot.attrs.find(attr);
  if (it != slot.attrs.end()) {
    ++hits_;
    return it->second;
  }
  std::vector<std::string>& normalized = slot.attrs[attr];
  const std::string& name = attrs.name(attr);
  if (const std::vector<std::string>* raw = entry->get(name)) {
    normalized.reserve(raw->size());
    for (const std::string& value : *raw) {
      normalized.push_back(attrs.schema().normalize(name, value));
    }
  }
  return normalized;
}

void NormalizedValueCache::clear() { entries_.clear(); }

CompiledFilter CompiledFilter::compile(const FilterPtr& filter,
                                       const Schema& schema) {
  FilterInterner& interner = FilterInterner::for_schema(schema);
  return compile(interner.intern(filter), interner);
}

CompiledFilter CompiledFilter::compile(const Filter& filter,
                                       const Schema& schema) {
  FilterInterner& interner = FilterInterner::for_schema(schema);
  return compile(interner.intern(filter), interner);
}

CompiledFilter CompiledFilter::compile(const FilterIrPtr& ir,
                                       const FilterInterner& interner) {
  CompiledFilter compiled;
  compiled.schema_ = &interner.schema();
  compiled.interner_ = &interner.attrs();
  compiled.ir_ = ir;
  if (!ir) return compiled;  // match-everything program
  compiled.emit(*ir);
  compiled.collect_pins(*ir);
  return compiled;
}

std::uint32_t CompiledFilter::intern_attr(AttrId id) {
  const auto it = std::find(attr_ids_.begin(), attr_ids_.end(), id);
  if (it != attr_ids_.end()) {
    return static_cast<std::uint32_t>(it - attr_ids_.begin());
  }
  attr_ids_.push_back(id);
  attrs_.push_back(interner_->name(id));
  return static_cast<std::uint32_t>(attr_ids_.size() - 1);
}

std::uint32_t CompiledFilter::emit(const FilterIr& ir) {
  const std::uint32_t index = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[index].kind = ir.kind();
  if (ir.is_composite()) {
    for (const FilterIrPtr& child : ir.children()) emit(*child);
  } else {
    // Assertion values were normalized once when the IR was interned; the
    // program copies them verbatim.
    nodes_[index].attr = intern_attr(ir.attr_id());
    nodes_[index].norm_value = ir.norm_value();
    nodes_[index].value_is_int = ir.value_is_int();
    nodes_[index].pattern = ir.pattern();
  }
  nodes_[index].skip = static_cast<std::uint32_t>(nodes_.size());
  return index;
}

void CompiledFilter::collect_pins(const FilterIr& ir) {
  if (ir.kind() == FilterKind::Equality) {
    pins_.push_back({ir.attribute(), ir.attr_id(), ir.norm_value()});
    return;
  }
  if (ir.kind() == FilterKind::And) {
    for (const FilterIrPtr& child : ir.children()) collect_pins(*child);
  }
}

bool CompiledFilter::matches(const Entry& entry) const {
  if (nodes_.empty()) return true;
  return eval(0, entry, nullptr, nullptr);
}

bool CompiledFilter::matches(const EntryPtr& entry,
                             NormalizedValueCache* cache) const {
  if (nodes_.empty()) return true;
  return eval(0, *entry, &entry, cache);
}

bool CompiledFilter::eval(std::size_t index, const Entry& entry,
                          const EntryPtr* pinned,
                          NormalizedValueCache* cache) const {
  const Node& node = nodes_[index];
  switch (node.kind) {
    case FilterKind::And:
      for (std::size_t child = index + 1; child < node.skip;
           child = nodes_[child].skip) {
        if (!eval(child, entry, pinned, cache)) return false;
      }
      return true;
    case FilterKind::Or:
      for (std::size_t child = index + 1; child < node.skip;
           child = nodes_[child].skip) {
        if (eval(child, entry, pinned, cache)) return true;
      }
      return false;
    case FilterKind::Not:
      return !eval(index + 1, entry, pinned, cache);
    default:
      return eval_predicate(node, entry, pinned, cache);
  }
}

bool CompiledFilter::eval_predicate(const Node& node, const Entry& entry,
                                    const EntryPtr* pinned,
                                    NormalizedValueCache* cache) const {
  const std::string& attr = attrs_[node.attr];
  if (node.kind == FilterKind::Present) {
    const std::vector<std::string>* values = entry.get(attr);
    return values != nullptr && !values->empty();
  }

  // Entry-side normalized values: from the cache when available, inline
  // otherwise. The inline path still benefits from the pre-normalized
  // assertion (one normalization per entry value instead of two per
  // comparison in the AST walker).
  const std::vector<std::string>* normalized = nullptr;
  std::vector<std::string> scratch;
  if (cache && pinned) {
    normalized = &cache->get(*pinned, attr_ids_[node.attr], *interner_);
  } else if (const std::vector<std::string>* raw = entry.get(attr)) {
    scratch.reserve(raw->size());
    for (const std::string& value : *raw) {
      scratch.push_back(schema_->normalize(attr, value));
    }
    normalized = &scratch;
  } else {
    normalized = &kNoValues;
  }

  switch (node.kind) {
    case FilterKind::Equality:
      return std::find(normalized->begin(), normalized->end(),
                       node.norm_value) != normalized->end();
    case FilterKind::GreaterEq:
    case FilterKind::LessEq: {
      for (const std::string& value : *normalized) {
        int cmp;
        if (node.value_is_int && is_canonical_integer(value)) {
          cmp = compare_canonical_integers(value, node.norm_value);
        } else {
          cmp = value.compare(node.norm_value);
        }
        if (node.kind == FilterKind::GreaterEq ? cmp >= 0 : cmp <= 0) {
          return true;
        }
      }
      return false;
    }
    case FilterKind::Substring:
      return std::any_of(
          normalized->begin(), normalized->end(),
          [&](const std::string& value) { return node.pattern.matches(value); });
    default:
      return false;  // unreachable: composites handled in eval()
  }
}

}  // namespace fbdr::ldap
