#include "wired_tree.h"

#include <algorithm>

namespace perfbench {

using fbdr::topology::RelayNode;

namespace {

const char* const kNames[WiredTree::kNodes] = {"relay", "leaf1", "leaf2"};
const char* const kSyncSpans[WiredTree::kNodes] = {"sync.relay", "sync.leaf",
                                                   "sync.leaf"};
const char* const kInstallSpans[WiredTree::kNodes] = {"install.relay",
                                                      "install.leaf",
                                                      "install.leaf"};

}  // namespace

WiredTree::WiredTree(fbdr::server::DirectoryServer& root,
                     const TreeFilters& filters, bool framed,
                     const fbdr::net::RetryPolicy& retry, Tracer* tracer)
    : root_(&root), tracer_(tracer), links_(tracer),
      root_master_(root),
      pumped_seq_(root.journal().last_seq()) {
  for (std::size_t i = 0; i < kNodes; ++i) {
    RelayNode::Config config;
    config.name = kNames[i];
    config.suffix = root.contexts().front().suffix;
    config.retry = retry;
    config.framed = framed;
    nodes_[i] = std::make_unique<RelayNode>(std::move(config));
    const auto& queries = i == 0 ? filters.relay : filters.leaves[i - 1];
    for (const fbdr::ldap::Query& query : queries) nodes_[i]->add_filter(query);

    fbdr::resync::ReSyncEndpoint& upstream =
        i == 0 ? static_cast<fbdr::resync::ReSyncEndpoint&>(root_master_)
               : *nodes_[0];
    const Link link = links_.make(upstream, framed);
    framed_[i] = link.framed;
    nodes_[i]->connect(link.channel, upstream.url());
  }
}

bool WiredTree::install() {
  bool ok = true;
  for (std::size_t i = 0; i < kNodes; ++i) {
    ScopedSpan span(tracer_, kInstallSpans[i], i);
    ok = nodes_[i]->install_all() && ok;
  }
  return ok;
}

void WiredTree::tick(std::uint64_t round) {
  for (const std::size_t i : {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    ScopedSpan span(tracer_, kSyncSpans[i], round);
    nodes_[i]->sync();
  }
  traced_pump(root_master_, *root_, pumped_seq_, tracer_);
  ScopedSpan span(tracer_, "master.tick", round);
  root_master_.tick(1);
}

std::uint64_t WiredTree::leaf_root_time() const {
  return std::min(nodes_[1]->root_time(), nodes_[2]->root_time());
}

std::uint64_t WiredTree::link_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto* link : framed_) bytes += link ? link->traffic().bytes : 0;
  return bytes;
}

std::uint64_t WiredTree::link_frames() const {
  std::uint64_t frames = 0;
  for (const auto* link : framed_) frames += link ? link->traffic().frames : 0;
  return frames;
}

void WiredTree::reset_traffic() {
  for (auto* link : framed_) {
    if (link) link->reset_traffic();
  }
}

std::unique_ptr<fbdr::server::DirectoryServer> make_node_root() {
  auto store = std::make_unique<fbdr::server::DirectoryServer>("ldap://root");
  const fbdr::ldap::Dn suffix = fbdr::ldap::Dn::parse("o=ibm");
  store->add_context({suffix, {}});
  auto base = std::make_shared<fbdr::ldap::Entry>(suffix);
  base->set_values("objectclass", {"organization"});
  store->load(std::move(base));
  return store;
}

void traced_pump(fbdr::resync::ReSyncMaster& master,
                 const fbdr::server::DirectoryServer& store,
                 std::uint64_t& pumped_seq, Tracer* tracer) {
  const std::uint64_t last_seq = store.journal().last_seq();
  const double records = static_cast<double>(last_seq - pumped_seq);
  pumped_seq = last_seq;
  if (!tracer) {
    master.pump();
    return;
  }
  const std::uint64_t candidates = master.routing_stats().candidates;
  {
    ScopedSpan span(tracer, "master.pump");
    master.pump();
  }
  tracer->count("pump.records", records);
  tracer->count("pump.candidates",
                static_cast<double>(master.routing_stats().candidates - candidates));
}

}  // namespace perfbench
