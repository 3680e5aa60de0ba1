#include "core/replication_service.h"

#include <map>

#include "resync/protocol.h"
#include "sync/replica_content.h"

namespace fbdr::core {

using ldap::EntryPtr;
using ldap::Query;
using Outcome = resync::UpstreamSession::Outcome;

select::FilterSelector::SizeEstimator master_size_estimator(
    std::shared_ptr<server::DirectoryServer> master) {
  auto cache = std::make_shared<std::map<std::string, std::size_t>>();
  return [master = std::move(master), cache](const Query& query) -> std::size_t {
    const std::string key = query.key();
    const auto it = cache->find(key);
    if (it != cache->end()) return it->second;
    const std::size_t count = master->evaluate(query).size();
    (*cache)[key] = count;
    return count;
  };
}

FilterReplicationService::FilterReplicationService(
    std::shared_ptr<server::DirectoryServer> master, Config config,
    std::shared_ptr<ldap::TemplateRegistry> registry,
    std::optional<select::Generalizer> generalizer)
    : master_(std::move(master)),
      config_(config),
      replica_(master_->schema(), std::move(registry)),
      resync_(*master_),
      channel_(std::make_shared<net::DirectChannel>(resync_)) {
  replica_.set_query_cache_window(config_.query_cache_window);
  if (config_.selection) {
    selector_.emplace(*config_.selection,
                      generalizer ? std::move(*generalizer)
                                  : select::Generalizer(master_->schema()),
                      master_size_estimator(master_));
  }
}

FilterReplicationService::InstalledFilter* FilterReplicationService::find_installed(
    const std::string& key) {
  for (InstalledFilter& installed : sessions_) {
    if (installed.session.query().key() == key) return &installed;
  }
  return nullptr;
}

resync::UpstreamLink FilterReplicationService::link() {
  return {*channel_, config_.retry, *this};
}

void FilterReplicationService::install(const Query& query) {
  install(query, SyncPolicy{});
}

void FilterReplicationService::set_channel(std::shared_ptr<net::Channel> channel) {
  channel_ = std::move(channel);
}

void FilterReplicationService::install(const Query& query, SyncPolicy policy) {
  if (find_installed(query.key())) return;
  if (policy.interval == 0) policy.interval = 1;
  InstalledFilter installed{
      resync::UpstreamSession(query, replica_.add_query(query)), policy};
  // Open a ReSync session; the initial response carries the whole content
  // and is accounted as fetch/update traffic by the master. A filter must
  // never start serving before it has content, so anything but a synced
  // session withdraws the query and throws.
  const Outcome outcome =
      installed.session.establish(link(), false, resync::Mode::Poll);
  if (outcome != Outcome::Synced) {
    replica_.remove_query(installed.session.slot());
    resync::throw_unless_synced(outcome, installed.session, "install");
  }
  sessions_.push_back(std::move(installed));
}

void FilterReplicationService::uninstall(const Query& query) {
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->session.query().key() == query.key()) {
      it->session.end(*channel_);
      replica_.remove_query(it->session.slot());
      sessions_.erase(it);
      return;
    }
  }
}

void FilterReplicationService::apply_revolution(
    const select::FilterSelector::Revolution& revolution) {
  for (const Query& query : revolution.dropped) {
    uninstall(query);
  }
  for (const Query& query : revolution.fetched) {
    try {
      install(query);
    } catch (const net::TransportError&) {
      // The link is down: skip this fetch; the filter simply is not
      // installed and a later revolution can pick it up again.
    }
  }
}

ServeOutcome FilterReplicationService::serve(const Query& query) {
  ServeOutcome outcome;
  const replica::Decision decision = replica_.handle(query);
  outcome.hit = decision.hit;
  outcome.from_cache =
      decision.hit && decision.answered_by.rfind("cache:", 0) == 0;
  if (outcome.hit && !outcome.from_cache) {
    // Graceful degradation: the hit still answers locally, but flag it when
    // the answering filter's session is down and its content may be stale.
    for (const InstalledFilter& installed : sessions_) {
      if (installed.session.degraded() &&
          installed.session.query().to_string() == decision.answered_by) {
        outcome.stale = true;
        break;
      }
    }
  }

  if (!decision.hit) {
    // Miss: the master answers; optionally cache the user query with its
    // result for the temporal-locality window.
    if (config_.query_cache_window > 0) {
      replica_.cache_user_query(query, master_->evaluate(query));
    }
  }
  if (selector_) {
    if (const auto revolution = selector_->observe(query)) {
      apply_revolution(*revolution);
    }
  }
  return outcome;
}

std::map<std::string, EntryPtr> FilterReplicationService::snapshot(
    std::size_t slot) {
  std::map<std::string, EntryPtr> content;
  for (const EntryPtr& entry : replica_.query_content(slot)) {
    content.emplace(entry->dn().norm_key(), entry);
  }
  return content;
}

void FilterReplicationService::apply_delta(
    std::size_t slot, const resync::ReSyncResponse& response) {
  if (response.pdus.empty() && !response.complete_enumeration) return;
  sync::ReplicaContent content(snapshot(slot));
  content.apply(resync::to_batch(response));
  replica_.set_content(slot, content.entries());
}

void FilterReplicationService::adopt_full(
    std::size_t slot, const resync::ReSyncResponse& response,
    bool /*recovery*/) {
  sync::ReplicaContent content;
  content.apply(resync::to_batch(response));
  replica_.set_content(slot, content.entries());
}

void FilterReplicationService::sync() {
  resync_.pump();
  ++sync_round_;
  // Consistency levels (§3.2): lower-priority filters poll every Nth sync.
  std::vector<resync::UpstreamSession*> due;
  for (InstalledFilter& installed : sessions_) {
    if (sync_round_ % installed.policy.interval == 0) {
      due.push_back(&installed.session);
    }
  }
  resync::poll_round(due, link());
}

net::HealthStats FilterReplicationService::health() const {
  net::HealthStats stats;
  for (const InstalledFilter& installed : sessions_) {
    stats.filters.emplace(installed.session.query().key(),
                          installed.session.health(resync_.now()));
  }
  return stats;
}

std::uint64_t FilterReplicationService::revolutions() const {
  return selector_ ? selector_->revolutions() : 0;
}

}  // namespace fbdr::core
