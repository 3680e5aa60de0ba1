#include "topology/runtime.h"

#include <iterator>
#include <stdexcept>
#include <utility>

namespace fbdr::topology {

/// The root master: its round is a pump and one clock tick, and it never
/// goes down.
class TopologyRuntime::Root final : public NodeHandle {
 public:
  explicit Root(resync::ReSyncMaster& master) : master_(master) {}

  bool up() const override { return true; }
  void begin_sync() override { master_.pump(); }
  void end_sync() override { master_.tick(1); }
  void crash() override {
    throw std::invalid_argument("the root master cannot crash or restart");
  }
  void restart() override { crash(); }

 private:
  resync::ReSyncMaster& master_;
};

/// A relay. begin_sync() does nothing; end_sync() runs the sync round and
/// then the runtime's reaction to it, so each node of a level syncs and
/// re-wires before the next one syncs (a re-wire ends sessions at a parent
/// that a sibling may share).
class TopologyRuntime::Relay final : public NodeHandle {
 public:
  Relay(TopologyRuntime& runtime, RelayNode::Config config,
        const ldap::Schema& schema)
      : name(config.name), node(std::move(config), schema), runtime_(runtime) {}

  bool up() const override { return !node.down(); }
  void begin_sync() override {}
  void end_sync() override {
    node.sync();
    runtime_.react(*this);
  }
  void crash() override { node.crash(); }
  void restart() override { node.restart(); }

  const std::string name;
  RelayNode node;
  // The current upstream link's handles; null on direct links.
  net::FaultyPipe* fault_pipe = nullptr;
  net::FramedChannel* framed_link = nullptr;

 private:
  TopologyRuntime& runtime_;
};

TopologyRuntime::TopologyRuntime(std::shared_ptr<server::DirectoryServer> root,
                                 Options options)
    : root_(std::move(root)),
      options_(std::move(options)),
      root_endpoint_(*root_) {
  tree_.add_root("", std::make_unique<Root>(root_endpoint_));
}

TopologyRuntime::Relay& TopologyRuntime::relay(const std::string& name) const {
  if (auto* relay = dynamic_cast<Relay*>(&tree_.handle(name))) return *relay;
  throw std::invalid_argument("unknown topology node '" + name + "'");
}

RelayNode& TopologyRuntime::node(const std::string& name) {
  return relay(name).node;
}

const RelayNode& TopologyRuntime::node(const std::string& name) const {
  return relay(name).node;
}

std::vector<std::string> TopologyRuntime::node_names() const {
  std::vector<std::string> names = tree_.names();
  names.erase(names.begin());  // the root master
  return names;
}

const std::string& TopologyRuntime::parent_of(const std::string& name) const {
  return tree_.parent(name);
}

std::size_t TopologyRuntime::depth_of(const std::string& name) const {
  return tree_.depth(name);
}

std::shared_ptr<net::Channel> TopologyRuntime::make_channel(
    resync::ReSyncEndpoint& endpoint, Relay& relay) {
  ++link_counter_;
  if (!options_.faults.has_value()) {
    return std::make_shared<net::DirectChannel>(endpoint);
  }
  net::FaultConfig config = *options_.faults;
  // Distinct deterministic stream per link; re-wired links get fresh ones.
  config.seed = config.seed + 0x9e3779b9ull * link_counter_;
  auto pipe = std::make_shared<net::FaultyPipe>(endpoint, config);
  relay.fault_pipe = pipe.get();
  auto channel = std::make_shared<net::FramedChannel>(std::move(pipe));
  relay.framed_link = channel.get();
  return channel;
}

RelayNode& TopologyRuntime::add_node(const std::string& name,
                                     const std::string& parent,
                                     const std::vector<ldap::Query>& filters) {
  // Throws for unknown parents.
  resync::ReSyncEndpoint& upstream =
      parent.empty() ? static_cast<resync::ReSyncEndpoint&>(root_endpoint_)
                     : node(parent);

  RelayNode::Config config;
  config.name = name;
  if (!root_->contexts().empty()) {
    config.suffix = root_->contexts().front().suffix;
  }
  config.retry = options_.retry;
  config.session_time_limit = options_.session_time_limit;
  config.downstream_limits = options_.relay_limits;
  config.framed = options_.faults.has_value();

  auto relay = std::make_unique<Relay>(*this, std::move(config), root_->schema());
  Relay& added = *relay;
  tree_.add(name, parent, std::move(relay));  // throws for duplicates
  for (const ldap::Query& query : filters) added.node.add_filter(query);
  added.node.connect(make_channel(upstream, added), upstream.url());
  return added.node;
}

void TopologyRuntime::rewire_to(Relay& relay, const std::string& url) {
  std::string parent;  // "" = the root: unknown or self referrals go there
  for (const std::string& name : node_names()) {
    if (name != relay.name && node(name).url() == url) {
      parent = name;
      break;
    }
  }
  resync::ReSyncEndpoint& endpoint =
      parent.empty() ? static_cast<resync::ReSyncEndpoint&>(root_endpoint_)
                     : node(parent);
  relay.node.rewire(make_channel(endpoint, relay), endpoint.url());
  tree_.set_parent(relay.name, parent);
}

bool TopologyRuntime::install() {
  bool all = true;
  const std::vector<std::string> names = node_names();
  // Declaration order is parents-before-children, so every node's upstream
  // already holds content when its sessions open.
  for (const std::string& name : names) {
    Relay& relay = this->relay(name);
    bool installed = false;
    // A parent that does not admit the node's filters refers it upward;
    // chase ancestor by ancestor. The root admits everything, so the chase
    // terminates within the tree height.
    for (std::size_t hop = 0; hop <= names.size(); ++hop) {
      if (relay.node.install_all()) {
        installed = true;
        break;
      }
      if (relay.node.referred_to().empty()) break;  // transport failure
      rewire_to(relay, relay.node.referred_to());
    }
    all = all && installed;
  }
  return all;
}

void TopologyRuntime::react(Relay& relay) {
  if (!relay.node.referred_to().empty()) {
    rewire_to(relay, relay.node.referred_to());
    return;
  }
  if (options_.reparent_after == 0) return;
  if (relay.node.failed_streak() < options_.reparent_after) return;
  // Sustained parent failure: adopt the node (and implicitly the whole
  // subtree below it, which keeps syncing from it unchanged) to its
  // grandparent. Children of the root re-wire to the root itself, which
  // re-opens the link fresh.
  const std::string& parent = tree_.parent(relay.name);
  const std::string& grandparent = parent.empty() ? parent : tree_.parent(parent);
  rewire_to(relay, grandparent.empty() ? root_->url() : node(grandparent).url());
}

void TopologyRuntime::tick() { tree_.tick(); }

void TopologyRuntime::run(std::uint64_t rounds) {
  for (std::uint64_t i = 0; i < rounds; ++i) tick();
}

void TopologyRuntime::crash_node(const std::string& name) { tree_.crash(name); }

void TopologyRuntime::restart_node(const std::string& name) {
  tree_.restart(name);
}

net::FaultyPipe* TopologyRuntime::fault_pipe(const std::string& name) {
  return relay(name).fault_pipe;
}

net::FramedChannel* TopologyRuntime::framed_link(const std::string& name) {
  return relay(name).framed_link;
}

std::vector<NodeHealth> TopologyRuntime::health() const {
  const std::uint64_t now = root_endpoint_.now();
  const std::vector<std::vector<std::string>> levels = tree_.levels();
  std::vector<NodeHealth> report;
  // Shallowest first; the root's level comes first and is not a node.
  for (auto level = std::next(levels.rbegin()); level != levels.rend();
       ++level) {
    for (const std::string& name : *level) {
      const RelayNode& node = this->node(name);
      const RelayNode::Status status = node.status();
      NodeHealth health;
      health.name = name;
      health.parent = tree_.parent(name);
      health.depth = tree_.depth(name);
      health.lag_ticks = now > status.root_time ? now - status.root_time : 0;
      health.down = node.down();
      health.degraded = status.upstream.degraded;
      health.epoch = status.epoch;
      health.downstream_sessions = status.downstream_sessions;
      health.admission_rejects = node.admission_rejects();
      health.recoveries = status.upstream.recoveries;
      health.reparents = node.reparents();
      health.failed_streak = status.failed_streak;
      const resync::ReSyncMaster& downstream = node.downstream_master();
      health.degraded_sessions = downstream.degraded_sessions();
      health.busy_rejections = downstream.governor_stats().sessions_rejected_busy;
      health.evicted_sessions = downstream.governor_stats().sessions_evicted;
      health.history_units = downstream.history_units();
      health.replay_bytes = downstream.replay_cache_bytes();
      health.upstream_busy = status.upstream.busy_rejections;
      health.full_reloads = status.upstream.full_reloads;
      health.reconciles = status.upstream.reconciles;
      health.reconcile_entries_shipped =
          status.upstream.reconcile_entries_shipped;
      report.push_back(std::move(health));
    }
  }
  return report;
}

server::ServerMap TopologyRuntime::server_map() const {
  server::ServerMap map;
  map.add(root_);
  for (const std::string& name : node_names()) {
    // Non-owning view: the runtime outlives the map it hands out.
    map.add(std::shared_ptr<server::SearchEndpoint>(
        &relay(name).node, [](server::SearchEndpoint*) {}));
  }
  return map;
}

}  // namespace fbdr::topology
