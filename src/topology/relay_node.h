#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/stats.h"
#include "replica/filter_replica.h"
#include "resync/endpoint.h"
#include "resync/master.h"
#include "server/directory_server.h"
#include "server/endpoint.h"

namespace fbdr::topology {

/// A replica site promoted to a relay master (the cascaded deployment the
/// paper's case study stops short of): the node runs ordinary ReSync update
/// sessions against its parent over a net::Channel, materializes the
/// replicated content in a local journaled mirror DirectoryServer, and
/// re-serves that content downstream through a full ReSyncMaster — change
/// routing, replay-safe cookies, session expiry and all. A replica already
/// stores the exact content of its replicated queries plus their meta
/// information (§3), which is everything a master needs to serve sessions
/// whose queries are contained (Props. 1-3, §4) in the replicated set.
///
/// Admission: a downstream session is accepted only when the containment
/// engine proves its query contained in one of the locally replicated
/// queries. Anything else is answered with a referral to the parent,
/// mirroring the default-referral bounce of §2.3 (and the behaviour of
/// replica::FilterReplicaEndpoint on the client-search side, which this
/// node also implements).
///
/// Cookie lineage: every downstream cookie is prefixed with the relay's
/// epoch ("e<epoch>!rs-<id>#<seq>"). The epoch advances whenever the
/// relay's content is rebuilt wholesale — a crash/restart (reset()), an
/// upstream StaleCookieError, or any other full-reload recovery — so
/// descendants holding pre-rebuild cookies receive StaleCookieError and
/// fall back to their own full reloads instead of silently resuming against
/// a torn store. The bump cascades: a descendant's forced reload is itself
/// a full-reload recovery, so it bumps its own epoch for *its* children.
class RelayNode final : public resync::ReSyncEndpoint,
                        public server::SearchEndpoint {
 public:
  struct Config {
    std::string name;          // node name; url becomes "ldap://<name>"
    ldap::Dn suffix;           // naming context of the local mirror
    net::RetryPolicy retry;    // upstream transport retry discipline
    /// Admin idle limit for downstream sessions (0 = never expire).
    std::uint64_t session_time_limit = 0;
    /// Resource budgets for the downstream-facing master (all-zero = the
    /// ungoverned default). journal_retention_records applies to the local
    /// mirror's change journal; the other limits govern descendant sessions
    /// exactly as on the root master (busy admission, eq.(3) degradation,
    /// paging, replay stripping, poll-deadline eviction).
    resync::ResourceLimits downstream_limits;
    /// Re-establishing an upstream session first offers digests of the
    /// mirror's view so only divergent entries ship (DESIGN.md §12). A
    /// successful walk journals the diff as ordinary changes, so descendant
    /// sessions ride through without an epoch bump — the savings cascade.
    bool reconcile = true;
    /// Sharded-pump configuration for the downstream-facing master
    /// (DESIGN.md §13): relays re-pump through the same machinery as the
    /// root, so a fan-out-heavy relay can spread its downstream sessions
    /// across pump_shards hash partitions driven by pump_threads workers.
    /// The defaults (1, 0) are the exact serial master.
    std::size_t pump_shards = 1;
    std::size_t pump_threads = 0;
    /// Whether this node's upstream link runs over the framed wire codec
    /// (net::FramedChannel) instead of in-process struct passing. Recorded
    /// by whoever wires the link (the TopologyRuntime frames exactly its
    /// faulty links); the relay's own protocol behaviour is identical
    /// either way.
    bool framed = false;
  };

  explicit RelayNode(Config config,
                     const ldap::Schema& schema = ldap::Schema::default_instance(),
                     std::shared_ptr<ldap::TemplateRegistry> registry = nullptr);

  // --- wiring (driven by the TopologyRuntime) ---

  /// Attaches the upstream link. `parent_url` is the referral target handed
  /// to downstream queries this relay does not admit.
  void connect(std::shared_ptr<net::Channel> channel, std::string parent_url);

  /// Declares a replicated query (the admission set). Content is fetched by
  /// install_all()/sync().
  void add_filter(const ldap::Query& query);

  /// Opens an upstream session for every filter that has none, fetching the
  /// initial full content. A referral from the parent sets referred_to()
  /// and stops (the runtime re-wires the node and retries); a transport
  /// failure leaves the remaining filters degraded (they heal on sync()).
  /// Returns true when every filter holds an active session.
  bool install_all();

  /// One upstream sync round: polls every session, applies the deltas to
  /// the mirror (journaled, so the downstream master can route them),
  /// recovers stale sessions with full reloads, then pumps the downstream
  /// sessions and advances the downstream clock by one tick. The polls of
  /// each run of consecutive steady sessions (cookie held, not degraded)
  /// go upstream as one Channel::exchange_all batch; their answers are
  /// applied in filter order, and anything but a clean reply takes the
  /// per-filter path (retries, paging, stale-cookie reload).
  void sync();

  /// Re-targets the upstream link (referral chase or re-parenting after
  /// sustained parent failure). Every session is rebuilt from scratch at
  /// the new parent on the next install_all()/sync(); the epoch advances so
  /// descendants reload too rather than trusting the mid-rebuild store.
  void rewire(std::shared_ptr<net::Channel> channel, std::string parent_url);

  // --- failure modelling ---

  /// The relay process stops: downstream exchanges fail with TransportError
  /// and sync() does nothing until restart().
  void crash();

  /// The process returns with its in-memory session state gone: downstream
  /// sessions are wiped, upstream sessions must be re-established, and the
  /// epoch advances.
  void restart();

  bool down() const noexcept { return down_; }

  // --- resync::ReSyncEndpoint (downstream-facing master) ---

  resync::ReSyncResponse handle(const ldap::Query& query,
                                const resync::ReSyncControl& control) override;
  void abandon(const std::string& cookie) override;
  void tick(std::uint64_t delta = 1) override;
  /// Crash-hook semantics (net::FaultyPipe::crash_master): equivalent to
  /// crash()+restart() back to back — state wiped, epoch bumped, serving.
  void reset() override;
  const std::string& url() const override { return url_; }

  // --- server::SearchEndpoint (client-facing, referral plumbing reuse) ---

  server::SearchResult process_search(const ldap::Query& query) override;

  // --- introspection ---

  const std::string& parent_url() const noexcept { return parent_url_; }

  /// Non-empty when the parent refused a filter with a referral; the
  /// runtime consumes it via rewire() + clear_referral().
  const std::string& referred_to() const noexcept { return referred_to_; }
  void clear_referral() { referred_to_.clear(); }

  /// Consecutive sync() rounds in which every attempted upstream exchange
  /// failed at the transport level — the re-parenting trigger.
  std::uint64_t failed_streak() const noexcept { return failed_streak_; }

  std::uint64_t epoch() const noexcept { return epoch_; }

  /// True when the upstream link was wired over the framed wire codec.
  bool framed_upstream() const noexcept { return config_.framed; }

  /// Root-master logical time this relay's content reflects (the minimum
  /// across its sessions; the staleness lag is root-now minus this).
  std::uint64_t root_time() const noexcept { return root_time_; }

  std::uint64_t admission_rejects() const noexcept { return admission_rejects_; }
  std::uint64_t recoveries() const noexcept { return recoveries_; }
  std::uint64_t reparents() const noexcept { return reparents_; }

  /// Per-filter upstream session health (degradation, retries, recoveries).
  net::HealthStats upstream_health() const;

  bool any_degraded() const;
  std::size_t filter_count() const noexcept { return filters_.size(); }

  replica::FilterReplica& filter_replica() noexcept { return replica_; }
  const replica::FilterReplica& filter_replica() const noexcept {
    return replica_;
  }
  server::DirectoryServer& mirror() noexcept { return mirror_; }
  const server::DirectoryServer& mirror() const noexcept { return mirror_; }
  resync::ReSyncMaster& downstream_master() noexcept { return downstream_; }
  const resync::ReSyncMaster& downstream_master() const noexcept {
    return downstream_;
  }

 private:
  struct UpstreamFilter {
    ldap::Query query;
    std::size_t replica_id = 0;  // admission slot in replica_
    std::string cookie;          // empty = no session yet
    bool degraded = false;
    std::uint64_t last_origin = 0;  // root time of the last response
    std::uint64_t last_synced = 0;  // local clock at the last success
    std::uint64_t retries = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t failed_syncs = 0;
    std::uint64_t busy_rejections = 0;  // refetches bounced at parent capacity
    std::uint64_t degraded_polls = 0;   // eq.(3) enumerations from the parent
    std::uint64_t paged_polls = 0;      // continuation pages fetched
    std::uint64_t full_reloads = 0;     // full-content loads (incl. install)
    std::uint64_t reconciles = 0;       // sessions healed by a digest walk
    std::uint64_t reconcile_entries_shipped = 0;  // diff PDUs those walks cost
    /// DNs the parent currently lists for this filter (norm key -> DN),
    /// maintained from Add/Delete PDUs and full/complete enumerations.
    /// Claim checks consult these sets, never the mirror copy: after a
    /// shared entry is deleted upstream, the stale mirror attributes still
    /// match every overlapping filter, so re-matching would let each
    /// filter's Delete defer to the other and the ghost entry never die.
    std::map<std::string, ldap::Dn> members;
  };

  /// Splits "e<epoch>!<inner>"; throws StaleCookieError on a non-current
  /// epoch, ProtocolError on malformed prefixes.
  std::string unwrap_cookie(const std::string& cookie) const;
  std::string wrap_cookie(const std::string& inner) const;

  /// True when `query` is contained in a replicated query (Props. 1-3).
  bool admit(const ldap::Query& query);

  resync::ReSyncResponse request(UpstreamFilter& filter,
                                 const resync::ReSyncControl& control);

  /// Fetches the remaining pages of a paged response, appending their PDUs
  /// onto `first` and advancing the session cookie page by page. Collect-
  /// then-apply: a transport failure mid-drain propagates before anything
  /// touched the mirror, the filter degrades, and the next sync() refetches
  /// a fresh full-reload session — so a torn pagination never leaves a
  /// partial eq.(3) drop in the mirror.
  resync::ReSyncResponse collect_pages(UpstreamFilter& filter,
                                       resync::ReSyncResponse first);

  /// Add-or-replace in the mirror, journaled. Creates attribute-less glue
  /// ancestors up to the suffix when the entry's parent chain is not
  /// replicated here (glue never matches a filter, so it never ships
  /// downstream). Equal re-deliveries are skipped without a journal record.
  void upsert(const ldap::EntryPtr& entry);

  /// Removes `dn` from the mirror unless another filter's upstream
  /// membership set still claims the entry. A non-leaf (its children are
  /// replicated content) is downgraded to glue instead of removed,
  /// preserving tree shape.
  void erase_unless_claimed(const ldap::Dn& dn, std::size_t source);

  /// Journals glue entries for every missing ancestor of `dn` above the
  /// suffix, top-down.
  void ensure_parents(const ldap::Dn& dn);

  /// Finishes the batched poll of steady filters_[index]: a TransportError
  /// in the batch is the first attempt of config_.retry, the remaining
  /// attempts run here; the reply is paged out and applied, a stale cookie
  /// re-establishes the session. Returns whether the parent answered.
  bool finish_poll(std::size_t index, net::ExchangeItem& item);

  /// Re-establishes filters_[index]'s session through refetch(); on failure
  /// the filter degrades and heals on a later round. Returns whether the
  /// parent answered (a referral counts).
  bool reestablish(std::size_t index, bool recovery);

  /// Applies one poll/initial response for filters_[index] to the mirror.
  void apply_response(std::size_t index, const resync::ReSyncResponse& response);

  /// Opens a fresh session for filters_[index]. When the mirror already
  /// holds content for the filter (and Config::reconcile is on), a digest
  /// walk is offered first so only the divergent entries ship; otherwise —
  /// or when the parent does not speak reconciliation or the walk falls
  /// back — the enumerated full content is diffed into the mirror.
  /// `recovery` marks a session re-established after established state was
  /// lost (stale cookie, degradation heal): it counts as a recovery and, on
  /// the full-reload path, bumps the epoch (a reconciled heal journals its
  /// diff as ordinary changes, so descendants ride through). Returns false
  /// when the link stays down or the parent referred elsewhere
  /// (referred_to() set).
  bool refetch(std::size_t index, bool recovery);

  /// Completes a reconciliation walk whose round-1 answer is `round1`:
  /// in-sync short-circuit or fingerprint upload + diff application.
  /// `snapshot` is the mirror's view of the filter the offer was built
  /// from. Throws StaleCookieError when the walk expired between rounds.
  bool reconcile_refetch(
      std::size_t index, resync::ReSyncResponse round1,
      const std::map<std::string, ldap::EntryPtr>& snapshot, bool recovery);

  /// Applies a full-content initial response: collects pages, diffs the
  /// enumeration into the mirror, swaps the membership set and (for
  /// recoveries) bumps the epoch.
  bool apply_full(std::size_t index, resync::ReSyncResponse response,
                  bool recovery);

  /// Content rebuilt wholesale: invalidate every descendant cookie.
  void bump_epoch();

  Config config_;
  std::string url_;
  replica::FilterReplica replica_;   // admission/meta set (unmaterialized)
  server::DirectoryServer mirror_;   // replicated content, journaled
  resync::ReSyncMaster downstream_;  // serves descendant sessions
  std::shared_ptr<net::Channel> channel_;
  std::string parent_url_;
  std::vector<UpstreamFilter> filters_;
  std::string referred_to_;
  std::uint64_t epoch_ = 0;
  std::uint64_t root_time_ = 0;
  std::uint64_t failed_streak_ = 0;
  std::uint64_t admission_rejects_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t reparents_ = 0;
  bool down_ = false;
  bool epoch_bumped_this_round_ = false;
};

}  // namespace fbdr::topology
