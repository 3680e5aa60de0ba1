#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace fbdr::topology {

/// One node of a relay tree as TreeDriver drives it: an in-process
/// RelayNode (TopologyRuntime) or an fbdr_node process behind its control
/// plane (netio::ProcessTopology).
class NodeHandle {
 public:
  virtual ~NodeHandle() = default;

  /// False while the node is down: rounds skip it.
  virtual bool up() const = 0;

  /// The node's part of a round, in two halves so a level can run at once:
  /// every node of a level gets begin_sync() before any gets end_sync(). A
  /// relay syncs from its parent; the root pumps its journal into sessions,
  /// then advances its logical clock one tick.
  virtual void begin_sync() = 0;
  virtual void end_sync() = 0;

  virtual void crash() = 0;
  virtual void restart() = 0;
};

/// The tree both topology drivers share: the node table (name, parent,
/// declaration order), depths, and the one round order.
class TreeDriver {
 public:
  /// Declares the root (depth 0); it must come first.
  void add_root(std::string name, std::unique_ptr<NodeHandle> handle);

  /// Declares `name` under the declared node `parent`. Throws
  /// std::invalid_argument on a duplicate name or an unknown parent.
  void add(std::string name, std::string parent,
           std::unique_ptr<NodeHandle> handle);

  /// One round: levels() in order, deepest first and the root last, so each
  /// node pulls what its parent held after the previous round before the
  /// parent refreshes (content is one tick staler per hop). A node that
  /// throws does not stop its level: the end_sync() of every node whose
  /// begin_sync() succeeded still runs, so no reply a node owes is left
  /// unread. Then the first failure is rethrown, unless
  /// `lose_failed_rounds`: a failed node then only loses its round.
  void tick(bool lose_failed_rounds = false);

  void crash(const std::string& name);
  void restart(const std::string& name);

  /// Re-hangs `name` under `parent` (a re-wired upstream link).
  void set_parent(const std::string& name, std::string parent);

  /// The handle of `name`; throws std::invalid_argument for unknown names.
  /// The table is const, the nodes it drives are not.
  NodeHandle& handle(const std::string& name) const;
  const std::string& parent(const std::string& name) const;
  /// Hops from the root (the root itself is 0).
  std::size_t depth(const std::string& name) const;

  /// Every node, root first, in declaration order.
  std::vector<std::string> names() const;

  /// The nodes grouped by depth, deepest level first and the root's last,
  /// each level in declaration order.
  std::vector<std::vector<std::string>> levels() const;

 private:
  struct Node {
    std::string name;
    std::string parent;  // "" only for the root
    std::unique_ptr<NodeHandle> handle;
  };

  /// Position of `name` in nodes_; throws std::invalid_argument if unknown.
  std::size_t index(const std::string& name) const;

  std::vector<Node> nodes_;  // declaration order, root first
};

}  // namespace fbdr::topology
