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
#include "resync/upstream_session.h"
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
///
/// Upstream sessions are resync::UpstreamSession; the relay is their store
/// (the mirror plus per-filter membership sets) and adds the degrade-on-
/// failure install policy, referral re-wiring and the epoch bump.
class RelayNode final : public resync::ReSyncEndpoint,
                        public server::SearchEndpoint,
                        private resync::SessionStore {
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
  /// and stops (the runtime re-wires the node and retries); a filter whose
  /// install fails (link down, parent busy) is left degraded and heals on
  /// sync().
  /// Returns true when every filter holds an active session.
  bool install_all();

  /// One upstream sync round (resync::poll_round): polls every session,
  /// applies the deltas to the mirror (journaled, so the downstream master
  /// can route them), re-establishes stale and degraded sessions — a digest
  /// walk of the mirror's view first, whose diff journals as ordinary
  /// changes so descendants ride through, else a full reload that bumps the
  /// epoch — then pumps the downstream sessions and advances the downstream
  /// clock by one tick.
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
  /// runtime consumes it via rewire().
  const std::string& referred_to() const noexcept { return referred_to_; }

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
  std::uint64_t reparents() const noexcept { return reparents_; }

  /// Per-filter upstream session health (degradation, retries, recoveries).
  net::HealthStats upstream_health() const;
  /// Every upstream session's health folded into one
  /// (FilterHealth::operator+=), without the per-filter map.
  net::FilterHealth upstream_total() const noexcept;

  /// What a health report reads off the relay, in one place: the fbdr_node
  /// "health" command and TopologyRuntime::health() both print from it.
  struct Status {
    std::uint64_t epoch = 0;
    std::uint64_t failed_streak = 0;
    std::uint64_t root_time = 0;
    std::size_t downstream_sessions = 0;
    net::FilterHealth upstream;  // upstream_total()
  };
  Status status() const;
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
    resync::UpstreamSession session;  // slot = index in filters_
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

  resync::UpstreamLink link();

  // resync::SessionStore over the mirror and the membership sets.
  std::map<std::string, ldap::EntryPtr> snapshot(std::size_t slot) override;
  void apply_delta(std::size_t slot,
                   const resync::ReSyncResponse& response) override;
  /// Diffs the enumeration into the mirror and swaps the membership set; a
  /// recovery also bumps the epoch (once per round).
  void adopt_full(std::size_t slot, const resync::ReSyncResponse& response,
                  bool recovery) override;
  std::uint64_t now() const override { return downstream_.now(); }

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
  std::uint64_t reparents_ = 0;
  bool down_ = false;
  bool epoch_bumped_this_round_ = false;
};

}  // namespace fbdr::topology
