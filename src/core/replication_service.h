#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/stats.h"
#include "replica/filter_replica.h"
#include "resync/master.h"
#include "resync/upstream_session.h"
#include "select/selector.h"
#include "server/directory_server.h"

namespace fbdr::core {

/// Outcome of serving one client request at a replica site.
struct ServeOutcome {
  bool hit = false;
  bool from_cache = false;  // answered by a cached user query
  /// The hit was served from a degraded filter's local content, which may
  /// be stale (its update session is down past the retry budget).
  bool stale = false;
};

/// A size estimator backed by the master directory, memoized by query key.
select::FilterSelector::SizeEstimator master_size_estimator(
    std::shared_ptr<server::DirectoryServer> master);

/// The deployed filter-based replication site (§3, §6, §7): a FilterReplica
/// answering client queries locally, kept consistent with the master through
/// ReSync sessions (one per replicated filter), optionally caching recent
/// user queries and optionally adapting the replicated filter set with the
/// periodic selection algorithm of §6.2.
///
/// Drive it with serve() per client query and sync() at the replica's update
/// cadence; all synchronization and fetch traffic is accounted in traffic().
/// The sessions themselves are resync::UpstreamSession; the service is their
/// store (the replica's per-query content) and adds the install policy and
/// the per-filter sync cadence.
class FilterReplicationService : private resync::SessionStore {
 public:
  struct Config {
    /// Window of cached user queries (0 disables query caching).
    std::size_t query_cache_window = 0;
    /// Dynamic filter selection; nullopt = statically configured filters.
    std::optional<select::FilterSelector::Config> selection;
    /// Retry discipline for ReSync exchanges that fail at the transport
    /// level. Default: a single attempt (faults surface immediately).
    net::RetryPolicy retry;
  };

  FilterReplicationService(
      std::shared_ptr<server::DirectoryServer> master, Config config,
      std::shared_ptr<ldap::TemplateRegistry> registry = nullptr,
      std::optional<select::Generalizer> generalizer = std::nullopt);

  /// Per-filter consistency level (§3.2: "a filter based replica allows the
  /// flexibility of specifying different consistency levels for different
  /// types of objects"). The filter's ReSync session is polled on every
  /// `interval`-th sync() — 1 is the tightest level; rarely-changing object
  /// classes (locations, departments) can use larger intervals.
  struct SyncPolicy {
    std::uint64_t interval = 1;
  };

  /// Statically installs one replicated filter (fetches its content; the
  /// fetch is accounted as update traffic). Throws net::TransportError when
  /// the link stays down past the retry budget and ldap::BusyError when the
  /// master is at session capacity: a filter never serves without content.
  void install(const ldap::Query& query);
  void install(const ldap::Query& query, SyncPolicy policy);

  /// Removes a replicated filter.
  void uninstall(const ldap::Query& query);

  /// Serves one client query: a containment hit answers locally (even from
  /// a degraded filter's possibly-stale content); a miss is forwarded to the
  /// master (and optionally cached as a user query). The selector observes
  /// every query and may trigger a revolution, whose fetches are accounted
  /// as update traffic.
  ServeOutcome serve(const ldap::Query& query);

  /// Polls every ReSync session due this round and applies the deltas to
  /// the replica. A session whose transport fails past the retry budget
  /// marks its filter degraded: the filter keeps answering from local
  /// content and heals (digest walk or full reload) once the link returns.
  void sync();

  /// Replaces the transport between this site and the master (e.g. with a
  /// net::FramedChannel over a net::FaultyPipe wrapping resync() for chaos
  /// testing).
  void set_channel(std::shared_ptr<net::Channel> channel);

  replica::FilterReplica& filter_replica() noexcept { return replica_; }
  const replica::FilterReplica& filter_replica() const noexcept { return replica_; }
  resync::ReSyncMaster& resync() noexcept { return resync_; }

  /// Master->replica update traffic: ReSync deltas plus revolution fetches.
  const net::TrafficStats& traffic() const noexcept { return resync_.traffic(); }

  /// Per-filter session health: degradation state, staleness in master
  /// clock ticks, retry/recovery counts.
  net::HealthStats health() const;

  std::size_t installed_filters() const { return sessions_.size(); }
  std::uint64_t revolutions() const;

 private:
  struct InstalledFilter {
    resync::UpstreamSession session;  // slot = the query's replica id
    SyncPolicy policy;
  };

  void apply_revolution(const select::FilterSelector::Revolution& revolution);
  InstalledFilter* find_installed(const std::string& key);
  resync::UpstreamLink link();

  // resync::SessionStore over replica_'s per-query content.
  std::map<std::string, ldap::EntryPtr> snapshot(std::size_t slot) override;
  void apply_delta(std::size_t slot,
                   const resync::ReSyncResponse& response) override;
  void adopt_full(std::size_t slot, const resync::ReSyncResponse& response,
                  bool recovery) override;
  std::uint64_t now() const override { return resync_.now(); }

  std::shared_ptr<server::DirectoryServer> master_;
  Config config_;
  replica::FilterReplica replica_;
  resync::ReSyncMaster resync_;
  std::shared_ptr<net::Channel> channel_;
  std::vector<InstalledFilter> sessions_;
  std::optional<select::FilterSelector> selector_;
  std::uint64_t sync_round_ = 0;
};

}  // namespace fbdr::core
