#include "topology/tree_driver.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

namespace fbdr::topology {

void TreeDriver::add_root(std::string name, std::unique_ptr<NodeHandle> handle) {
  if (!nodes_.empty()) {
    throw std::logic_error("root already declared: " + nodes_.front().name);
  }
  nodes_.push_back({std::move(name), "", std::move(handle)});
}

void TreeDriver::add(std::string name, std::string parent,
                     std::unique_ptr<NodeHandle> handle) {
  if (std::any_of(nodes_.begin(), nodes_.end(),
                  [&](const Node& node) { return node.name == name; })) {
    throw std::invalid_argument("duplicate topology node '" + name + "'");
  }
  index(parent);  // throws for unknown parents
  nodes_.push_back({std::move(name), std::move(parent), std::move(handle)});
}

std::size_t TreeDriver::index(const std::string& name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return i;
  }
  throw std::invalid_argument("unknown topology node '" + name + "'");
}

void TreeDriver::tick(bool lose_failed_rounds) {
  std::exception_ptr failure;
  const auto guarded = [&failure](auto&& step) {
    try {
      step();
      return true;
    } catch (const std::exception&) {
      if (!failure) failure = std::current_exception();
      return false;
    }
  };
  for (const std::vector<std::string>& level : levels()) {
    std::vector<NodeHandle*> begun;
    for (const std::string& name : level) {
      NodeHandle* node = &handle(name);
      if (!node->up()) continue;  // down: degrades, later heals
      if (guarded([node] { node->begin_sync(); })) begun.push_back(node);
    }
    for (NodeHandle* node : begun) guarded([node] { node->end_sync(); });
    if (failure && !lose_failed_rounds) std::rethrow_exception(failure);
  }
}

void TreeDriver::crash(const std::string& name) { handle(name).crash(); }

void TreeDriver::restart(const std::string& name) { handle(name).restart(); }

void TreeDriver::set_parent(const std::string& name, std::string parent) {
  index(parent);  // throws for unknown parents
  nodes_[index(name)].parent = std::move(parent);
}

NodeHandle& TreeDriver::handle(const std::string& name) const {
  return *nodes_[index(name)].handle;
}

const std::string& TreeDriver::parent(const std::string& name) const {
  return nodes_[index(name)].parent;
}

std::size_t TreeDriver::depth(const std::string& name) const {
  std::size_t depth = 0;
  for (std::size_t i = index(name); i != 0; i = index(nodes_[i].parent)) {
    ++depth;
  }
  return depth;
}

std::vector<std::string> TreeDriver::names() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const Node& node : nodes_) names.push_back(node.name);
  return names;
}

std::vector<std::vector<std::string>> TreeDriver::levels() const {
  std::vector<std::vector<std::string>> levels;  // [depth], then reversed
  for (const Node& node : nodes_) {
    const std::size_t depth = this->depth(node.name);
    if (levels.size() <= depth) levels.resize(depth + 1);
    levels[depth].push_back(node.name);
  }
  std::reverse(levels.begin(), levels.end());
  return levels;
}

}  // namespace fbdr::topology
