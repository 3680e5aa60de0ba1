#include "topology/runtime.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace fbdr::topology {

TopologyRuntime::TopologyRuntime(std::shared_ptr<server::DirectoryServer> root,
                                 Options options)
    : root_(std::move(root)),
      options_(std::move(options)),
      root_endpoint_(*root_) {}

TopologyRuntime::Node& TopologyRuntime::find_node(const std::string& name) {
  for (auto& node : nodes_) {
    if (node->name == name) return *node;
  }
  throw std::invalid_argument("unknown topology node '" + name + "'");
}

const TopologyRuntime::Node& TopologyRuntime::find_node(
    const std::string& name) const {
  for (const auto& node : nodes_) {
    if (node->name == name) return *node;
  }
  throw std::invalid_argument("unknown topology node '" + name + "'");
}

bool TopologyRuntime::has_node(const std::string& name) const {
  for (const auto& node : nodes_) {
    if (node->name == name) return true;
  }
  return false;
}

RelayNode& TopologyRuntime::node(const std::string& name) {
  return *find_node(name).relay;
}

const RelayNode& TopologyRuntime::node(const std::string& name) const {
  return *find_node(name).relay;
}

std::vector<std::string> TopologyRuntime::node_names() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& node : nodes_) names.push_back(node->name);
  return names;
}

const std::string& TopologyRuntime::parent_of(const std::string& name) const {
  return find_node(name).parent;
}

std::size_t TopologyRuntime::depth_of(const Node& node) const {
  std::size_t depth = 1;
  const Node* current = &node;
  while (!current->parent.empty()) {
    current = &find_node(current->parent);
    ++depth;
  }
  return depth;
}

std::size_t TopologyRuntime::depth_of(const std::string& name) const {
  return depth_of(find_node(name));
}

resync::ReSyncEndpoint* TopologyRuntime::endpoint_at(const std::string& url) {
  if (url == root_->url()) return &root_endpoint_;
  for (auto& node : nodes_) {
    if (node->relay->url() == url) return node->relay.get();
  }
  return nullptr;
}

std::shared_ptr<net::Channel> TopologyRuntime::make_channel(
    resync::ReSyncEndpoint& endpoint, Node& node) {
  ++link_counter_;
  if (!options_.faults.has_value()) {
    return std::make_shared<net::DirectChannel>(endpoint);
  }
  net::FaultConfig config = *options_.faults;
  // Distinct deterministic stream per link; re-wired links get fresh ones.
  config.seed = config.seed + 0x9e3779b9ull * link_counter_;
  auto pipe = std::make_shared<net::FaultyPipe>(endpoint, config);
  node.fault_pipe = pipe.get();
  auto channel = std::make_shared<net::FramedChannel>(std::move(pipe));
  node.framed_link = channel.get();
  return channel;
}

RelayNode& TopologyRuntime::add_node(const std::string& name,
                                     const std::string& parent,
                                     const std::vector<ldap::Query>& filters) {
  if (has_node(name)) {
    throw std::invalid_argument("duplicate topology node '" + name + "'");
  }
  resync::ReSyncEndpoint* upstream = &root_endpoint_;
  std::string parent_url = root_->url();
  if (!parent.empty()) {
    Node& parent_node = find_node(parent);  // throws for unknown parents
    upstream = parent_node.relay.get();
    parent_url = parent_node.relay->url();
  }

  RelayNode::Config config;
  config.name = name;
  if (!root_->contexts().empty()) {
    config.suffix = root_->contexts().front().suffix;
  }
  config.retry = options_.retry;
  config.session_time_limit = options_.session_time_limit;
  config.downstream_limits = options_.relay_limits;
  config.framed = options_.faults.has_value();

  auto node = std::make_unique<Node>();
  node->name = name;
  node->parent = parent;
  node->relay = std::make_unique<RelayNode>(std::move(config), root_->schema());
  for (const ldap::Query& query : filters) node->relay->add_filter(query);
  node->relay->connect(make_channel(*upstream, *node), parent_url);
  nodes_.push_back(std::move(node));
  return *nodes_.back()->relay;
}

void TopologyRuntime::rewire_to(Node& node, const std::string& url) {
  resync::ReSyncEndpoint* endpoint = endpoint_at(url);
  if (endpoint == nullptr || endpoint == node.relay.get()) {
    endpoint = &root_endpoint_;  // unknown or self referral: go to the top
  }
  std::string new_parent;  // "" = root
  if (endpoint != &root_endpoint_) {
    for (auto& candidate : nodes_) {
      if (candidate->relay.get() == endpoint) {
        new_parent = candidate->name;
        break;
      }
    }
  }
  node.relay->rewire(make_channel(*endpoint, node),
                     new_parent.empty() ? root_->url()
                                        : find_node(new_parent).relay->url());
  node.parent = new_parent;
}

bool TopologyRuntime::install() {
  bool all = true;
  // Insertion order is parents-before-children, so every node's upstream
  // already holds content when its sessions open.
  for (auto& node : nodes_) {
    bool installed = false;
    // A parent that does not admit the node's filters refers it upward;
    // chase ancestor by ancestor. The root admits everything, so the chase
    // terminates within the tree height.
    for (std::size_t hop = 0; hop <= nodes_.size(); ++hop) {
      if (node->relay->install_all()) {
        installed = true;
        break;
      }
      if (node->relay->referred_to().empty()) break;  // transport failure
      rewire_to(*node, node->relay->referred_to());
    }
    all = all && installed;
  }
  return all;
}

std::vector<const TopologyRuntime::Node*> TopologyRuntime::by_depth_desc()
    const {
  std::vector<const Node*> ordered;
  ordered.reserve(nodes_.size());
  for (const auto& node : nodes_) ordered.push_back(node.get());
  std::stable_sort(ordered.begin(), ordered.end(),
                   [this](const Node* a, const Node* b) {
                     return depth_of(*a) > depth_of(*b);
                   });
  return ordered;
}

void TopologyRuntime::react(Node& node) {
  if (!node.relay->referred_to().empty()) {
    rewire_to(node, node.relay->referred_to());
    return;
  }
  if (options_.reparent_after == 0) return;
  if (node.relay->failed_streak() < options_.reparent_after) return;
  // Sustained parent failure: adopt the node (and implicitly the whole
  // subtree below it, which keeps syncing from it unchanged) to its
  // grandparent. Children of the root re-wire to the root itself, which
  // re-opens the link fresh.
  std::string target = root_->url();
  if (!node.parent.empty()) {
    const std::string& grandparent = find_node(node.parent).parent;
    if (!grandparent.empty()) target = find_node(grandparent).relay->url();
  }
  rewire_to(node, target);
}

void TopologyRuntime::tick() {
  // Deepest-first: each node pulls the content its parent holds from the
  // previous round before the parent refreshes, so content is exactly one
  // tick staler per hop. The root pumps and advances last.
  for (const Node* ordered : by_depth_desc()) {
    Node& node = find_node(ordered->name);
    if (node.relay->down()) continue;
    node.relay->sync();
    react(node);
  }
  root_endpoint_.pump();
  root_endpoint_.tick(1);
}

void TopologyRuntime::run(std::uint64_t rounds) {
  for (std::uint64_t i = 0; i < rounds; ++i) tick();
}

void TopologyRuntime::crash_node(const std::string& name) {
  find_node(name).relay->crash();
}

void TopologyRuntime::restart_node(const std::string& name) {
  find_node(name).relay->restart();
}

net::FaultyPipe* TopologyRuntime::fault_pipe(const std::string& name) {
  return find_node(name).fault_pipe;
}

net::FramedChannel* TopologyRuntime::framed_link(const std::string& name) {
  return find_node(name).framed_link;
}

std::vector<NodeHealth> TopologyRuntime::health() const {
  std::vector<const Node*> ordered;
  ordered.reserve(nodes_.size());
  for (const auto& node : nodes_) ordered.push_back(node.get());
  std::stable_sort(ordered.begin(), ordered.end(),
                   [this](const Node* a, const Node* b) {
                     return depth_of(*a) < depth_of(*b);
                   });
  const std::uint64_t now = root_endpoint_.now();
  std::vector<NodeHealth> report;
  report.reserve(ordered.size());
  for (const Node* node : ordered) {
    NodeHealth health;
    health.name = node->name;
    health.parent = node->parent;
    health.depth = depth_of(*node);
    const std::uint64_t seen = node->relay->root_time();
    health.lag_ticks = now > seen ? now - seen : 0;
    health.down = node->relay->down();
    health.degraded = node->relay->any_degraded();
    health.epoch = node->relay->epoch();
    health.downstream_sessions = node->relay->downstream_master().session_count();
    health.admission_rejects = node->relay->admission_rejects();
    health.recoveries = node->relay->recoveries();
    health.reparents = node->relay->reparents();
    health.failed_streak = node->relay->failed_streak();
    const resync::ReSyncMaster& downstream = node->relay->downstream_master();
    health.degraded_sessions = downstream.degraded_sessions();
    health.busy_rejections = downstream.governor_stats().sessions_rejected_busy;
    health.evicted_sessions = downstream.governor_stats().sessions_evicted;
    health.history_units = downstream.history_units();
    health.replay_bytes = downstream.replay_cache_bytes();
    const net::FilterHealth upstream = node->relay->upstream_total();
    health.upstream_busy = upstream.busy_rejections;
    health.full_reloads = upstream.full_reloads;
    health.reconciles = upstream.reconciles;
    health.reconcile_entries_shipped = upstream.reconcile_entries_shipped;
    report.push_back(std::move(health));
  }
  return report;
}

server::ServerMap TopologyRuntime::server_map() const {
  server::ServerMap map;
  map.add(root_);
  for (const auto& node : nodes_) {
    // Non-owning view: the runtime outlives the map it hands out.
    map.add(std::shared_ptr<server::SearchEndpoint>(node->relay.get(),
                                                    [](server::SearchEndpoint*) {}));
  }
  return map;
}

}  // namespace fbdr::topology
