#include "ldap/compiled_filter.h"

#include <algorithm>

namespace fbdr::ldap {

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
    nodes_[index].syntax = interner_->syntax(ir.attr_id());
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
  std::string scratch;
  return eval(0, entry, scratch);
}

bool CompiledFilter::eval(std::size_t index, const Entry& entry,
                          std::string& scratch) const {
  const Node& node = nodes_[index];
  switch (node.kind) {
    case FilterKind::And:
      for (std::size_t child = index + 1; child < node.skip;
           child = nodes_[child].skip) {
        if (!eval(child, entry, scratch)) return false;
      }
      return true;
    case FilterKind::Or:
      for (std::size_t child = index + 1; child < node.skip;
           child = nodes_[child].skip) {
        if (eval(child, entry, scratch)) return true;
      }
      return false;
    case FilterKind::Not:
      return !eval(index + 1, entry, scratch);
    default:
      return eval_predicate(node, entry, scratch);
  }
}

bool CompiledFilter::eval_predicate(const Node& node, const Entry& entry,
                                    std::string& scratch) const {
  const std::vector<std::string>* values = entry.get(attrs_[node.attr]);
  if (values == nullptr) return false;
  if (node.kind == FilterKind::Present) return !values->empty();

  // The assertion side was normalized when the IR was interned; only the
  // entry side is normalized here, one value at a time into `scratch`.
  return std::any_of(values->begin(), values->end(), [&](const std::string& raw) {
    Schema::normalize_into(node.syntax, raw, scratch);
    switch (node.kind) {
      case FilterKind::Equality:
        return scratch == node.norm_value;
      case FilterKind::GreaterEq:
      case FilterKind::LessEq: {
        const int cmp = node.value_is_int && is_canonical_integer(scratch)
                            ? compare_canonical_integers(scratch, node.norm_value)
                            : scratch.compare(node.norm_value);
        return node.kind == FilterKind::GreaterEq ? cmp >= 0 : cmp <= 0;
      }
      case FilterKind::Substring:
        return node.pattern.matches(scratch);
      default:
        return false;  // unreachable: composites handled in eval()
    }
  });
}

}  // namespace fbdr::ldap
