#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/stats.h"
#include "resync/endpoint.h"
#include "resync/governor.h"
#include "resync/protocol.h"
#include "resync/pump_pool.h"
#include "server/directory_server.h"
#include "sync/change_router.h"
#include "sync/query_session.h"

namespace fbdr::resync {

/// Server-side handling of the ReSync protocol (§5.2):
///
///  (i)   null cookie: initial request of an update session — the entire
///        content is sent;
///  (ii)  otherwise the cookie identifies the session and accumulated
///        content updates (session history) are sent;
///  (iii) mode "persist": the connection is kept open and further change
///        notifications are pushed;
///  (iv)  mode "poll": a cookie to resume the session is returned;
///  (v)   mode "sync_end" (or abandoning a persistent search) ends the
///        session; idle sessions time out after an admin limit.
///
/// Drive it with handle() for requests, pump() after applying master updates
/// (delivers persist notifications), and tick()/expire_sessions() for the
/// admin time limit.
///
/// Cookies are replay-safe: each poll cookie embeds a per-session monotonic
/// sequence number ("rs-<id>#<seq>"). A duplicated or retried poll (same
/// sequence as the last answered one) is re-answered from a last-response
/// cache without touching session history, so lossy transports can retry
/// idempotently; an out-of-sequence poll is rejected. reset() models a
/// master restart that loses all session state (§5.2).
///
/// A digest walk (DESIGN.md §12) is a session too. Round 1 inserts it into
/// its shard's table under an ordinary cookie, holding the divergent bucket
/// list; round 2 is a poll on that cookie, so the sequence check, replay
/// cache, sync_end and expiry above serve walks unchanged. Until round 2
/// registers it, a walking session is invisible to the pump, the router,
/// the sink and the session/history/connection accounting; it counts in
/// pending_reconciles() and expires at the admin limit whatever its mode.
///
/// Scaling (DESIGN.md §13): sessions are partitioned into N shards by a hash
/// of the session id. Each shard owns its sessions, its own ChangeRouter
/// indexes, expiry queue and dirty-session list — pump() routes the journal
/// batch through every shard independently, so the shards can run on a
/// thread pool without any cross-shard locking. Filter evaluation holds no
/// shard state: each evaluation normalizes entry values into a buffer of
/// its own.
/// Governor accounting from the parallel phase lands in per-shard counter
/// deltas folded at the pump barrier. The default (shards=1, threads=0) is
/// the bit-identical serial master; any shard/thread combination produces
/// the same per-session behavior (see tests/resync_shard_equivalence_test).
class ReSyncMaster : public ReSyncEndpoint {
 public:
  /// Sink receiving pushed notifications for persist-mode sessions.
  using NotificationSink =
      std::function<void(const std::string& cookie, const std::vector<EntryPdu>&)>;

  explicit ReSyncMaster(server::DirectoryServer& master);

  /// Installs the resource budgets (see ResourceLimits; all-zero = the
  /// ungoverned default). The journal retention horizon is applied to the
  /// served directory's change journal immediately.
  void set_resource_limits(const ResourceLimits& limits);

  /// What the governor did so far (cumulative; survives reset()).
  const GovernorStats& governor_stats() const noexcept {
    return governor_.stats();
  }

  /// Partitions sessions into `shards` hash partitions, each with its own
  /// router indexes, expiry queue and dirty list (DESIGN.md §13).
  /// Must be called while no sessions or walks are live (typically right
  /// after construction or a reset()); throws std::logic_error otherwise —
  /// live router registrations cannot be rehashed in place. shards=1 (the
  /// default) is the exact serial master.
  void set_pump_shards(std::size_t shards);
  std::size_t pump_shards() const noexcept { return shards_.size(); }

  /// Worker threads driving the shards through pump(). 0 (the default) runs
  /// every shard inline on the caller — fully deterministic serial mode.
  /// With t > 0 a persistent PumpPool of t threads processes shards
  /// concurrently; each shard is still handled by exactly one thread per
  /// pump, so shard-local state needs no locks. Takes effect on the next
  /// pump().
  void set_pump_threads(std::size_t threads);
  std::size_t pump_threads() const noexcept { return pump_threads_; }

  /// Enables/disables reconciliation-based recovery (DESIGN.md §12). When
  /// disabled the master ignores reconcile offers entirely and answers plain
  /// initial full reloads — modelling an old master for version-gating tests.
  void set_reconcile_enabled(bool enabled) { reconcile_enabled_ = enabled; }

  /// Divergence threshold: when the estimated number of divergent entries
  /// exceeds this fraction of the content size, the walk falls back to a
  /// full reload (shipping digests plus most of the content would cost more
  /// than the reload alone). Default 0.5.
  void set_reconcile_fallback_fraction(double fraction) {
    reconcile_fallback_fraction_ = fraction;
  }

  /// In-flight reconciliation walks (round 1 answered, round 2 pending).
  std::size_t pending_reconciles() const noexcept { return walking_; }

  /// Admin time limit for idle poll sessions, in logical ticks: a session
  /// whose last activity is more than `ticks` ticks ago is dropped by
  /// tick(), and its cookie becomes stale. A limit of 0 — the default —
  /// disables expiry entirely: idle sessions survive any number of ticks
  /// and are only removed by sync_end, abandon or reset().
  void set_session_time_limit(std::uint64_t ticks) { time_limit_ = ticks; }

  void set_notification_sink(NotificationSink sink) { sink_ = std::move(sink); }

  /// Handles one resync search request.
  ReSyncResponse handle(const ldap::Query& query,
                        const ReSyncControl& control) override;

  /// Address of the directory server this master serves from.
  const std::string& url() const override { return master_->url(); }

  /// Feeds journal records appended since the last pump into the sessions
  /// they can affect, never a record at or below a session's baseline (the
  /// journal seq its initial content was computed at, DESIGN.md §7). The
  /// journal batch is read once; every shard routes it through its own
  /// indexes (in parallel when pump threads are configured), then a serial
  /// phase pushes persist notifications in global session-id order and
  /// re-checks the global history budget.
  void pump();

  /// Disables change routing: every record fans out to every session, as the
  /// pre-routing master did. The router's holder mirror is still maintained,
  /// so routing can be re-enabled at any time. Exists for benchmarks and the
  /// routed-vs-exhaustive equivalence tests.
  void set_change_routing(bool enabled) { change_routing_ = enabled; }

  /// Candidate-set statistics, folded across the shard routers. candidates
  /// and exhaustive are globally meaningful sums; routed_changes counts
  /// per-shard route invocations (shards x records).
  sync::ChangeRouter::Stats routing_stats() const;

  /// Advances the logical clock and expires idle poll sessions and walks.
  void tick(std::uint64_t delta = 1) override;

  /// Current logical time at the master.
  std::uint64_t now() const noexcept { return clock_.now(); }

  /// Models a master restart: every session (and its replay cache) is lost;
  /// outstanding cookies become unknown and replicas must recover with a
  /// full reload. The clock, cumulative counters and the shard/thread
  /// configuration survive.
  void reset() override;

  /// Client-initiated abandon of a persistent search.
  void abandon(const std::string& cookie) override;

  /// Duplicated/retried polls answered from the replay cache instead of
  /// consuming session history a second time.
  std::uint64_t replays_suppressed() const noexcept { return replays_; }

  std::size_t session_count() const noexcept;

  /// Open persist connections — the scaling concern that motivates polling
  /// ("persistent search requires a TCP connection per replicated filter").
  std::size_t open_connections() const;

  /// Total pending history events held across sessions.
  std::size_t history_size() const;

  /// Governed history accounting units across sessions: pending events for
  /// complete-history sessions plus touched keys for degraded ones.
  std::size_t history_units() const;

  /// Approximate entry-body bytes currently held by replay caches.
  std::size_t replay_cache_bytes() const;

  /// Poll sessions currently degraded to equation (3).
  std::size_t degraded_sessions() const;

  /// Traffic shipped to replicas so far (entries/DNs/bytes).
  const net::TrafficStats& traffic() const noexcept { return traffic_; }
  void reset_traffic() { traffic_.reset(); }

 private:
  struct Shard;

  struct Session {
    std::unique_ptr<sync::QuerySession> session;
    Mode mode = Mode::Poll;
    std::uint64_t last_active = 0;
    std::uint64_t next_seq = 1;    // sequence the next fresh poll must carry
    std::uint64_t last_seq = 0;    // sequence of the last answered poll
    ReSyncResponse last_response;  // replay cache for last_seq
    std::size_t replay_bytes = 0;  // entry-body bytes held by the cache
    bool replay_stripped = false;  // bodies dropped: replays re-enumerate
    /// Router handle; invalid until register_session(), i.e. while the
    /// session is a digest walk between its rounds.
    sync::ChangeRouter::Handle route = sync::ChangeRouter::kInvalidHandle;
    /// Journal seq the session's content reflects: pump() never applies a
    /// record at or below it (the initial content already holds it).
    std::uint64_t baseline = 0;
    bool dirty = false;            // on the owning shard's dirty list
    std::string id;                // session id ("rs-<n>")
    Shard* shard = nullptr;        // owning shard (stable address)
    /// Continuation pages of a paged logical batch, drained by later polls
    /// before any new batch is computed.
    std::vector<EntryPdu> overflow;
    std::size_t overflow_pos = 0;
    bool overflow_enum = false;    // completeness flags of the paged batch
    bool overflow_reload = false;
    /// Divergent buckets named in round 1 of a walk, diffed in round 2.
    std::vector<std::uint32_t> need_buckets;

    bool walking() const noexcept {
      return route == sync::ChangeRouter::kInvalidHandle;
    }
  };

  /// One session-hash partition. Everything a pump worker touches while
  /// processing the shard lives here (or in the session objects the shard
  /// owns); the only shared inputs are immutable during pump — the journal
  /// batch, entry snapshots, schema and interner. Governor counters
  /// incremented on the parallel path accumulate in `delta` and are folded
  /// into the global stats at the pump barrier.
  struct Shard {
    std::map<std::string, Session> sessions;
    sync::ChangeRouter router;
    /// Router handle -> session (map nodes are pointer-stable).
    std::unordered_map<sync::ChangeRouter::Handle, Session*> by_handle;
    /// last_active at insertion -> session id, with lazy deletion: a node
    /// whose session was touched or dropped since insertion is discarded or
    /// re-inserted when it reaches the front, so tick() no longer scans
    /// every session.
    std::multimap<std::uint64_t, std::string> expiry;
    /// Sessions some record touched during the current pump: the serial
    /// push/clear phase walks exactly these instead of every session
    /// (O(dirty), not O(sessions)).
    std::vector<Session*> dirty;
    /// Parallel-phase governor counters, folded at the pump barrier.
    GovernorStats delta;

    explicit Shard(const ldap::Schema& schema) : router(schema) {}
  };

  /// Splits "rs-<id>#<seq>" into the session id and sequence number.
  /// Cookies without a '#' are pre-sequence-number legacy cookies; the poll
  /// path rejects them as stale rather than misreading them as seq 0.
  struct CookieParts {
    std::string id;
    std::uint64_t seq = 0;
    bool has_seq = false;
  };
  static CookieParts parse_cookie(const std::string& cookie);
  static std::string make_cookie(const std::string& id, std::uint64_t seq);

  /// The shard owning session id `id` (stable FNV-1a hash partition).
  Shard& shard_for(const std::string& id);
  /// Locates a live session by id; iterator is end() of its shard's map
  /// when unknown.
  std::map<std::string, Session>::iterator find_session(const std::string& id,
                                                        Shard*& shard);
  /// Runs `fn` once per shard — inline when threads=0 or there is a single
  /// shard, otherwise across the pump pool.
  void run_on_shards(const std::function<void(Shard&)>& fn);
  /// Feeds one record above the session's baseline into the session and
  /// mirrors the resulting content events into the owning shard's holder
  /// index. Parallel-phase safe: all
  /// mutated state is shard-local; governor counters go to `delta`.
  void apply_change(Shard& shard, Session& session,
                    const server::ChangeRecord& record);
  /// Takes a session's content events: dirty-list entry, holder mirror and
  /// the per-session history budget.
  void absorb_events(Shard& shard, Session& session,
                     const std::vector<sync::ContentEvent>& events);
  /// Mirrors content events into the owning shard's holder index.
  static void mirror_events(Shard& shard, Session& session,
                            const std::vector<sync::ContentEvent>& events);
  /// Degrades (and if necessary collapses) an over-budget poll session.
  void enforce_session_history(Session& session, GovernorStats& stats);
  /// Degrades/collapses the largest poll sessions until the total history
  /// fits the global budget. Victim order is deterministic across shard
  /// counts: largest first, ties by session id.
  void enforce_global_history();
  /// Rebases one shard's sessions from the DIT after journal compaction left
  /// a gap that cannot be replayed.
  void rebase_shard(Shard& shard);
  /// Fills the response from freshly computed PDUs, spilling anything past
  /// the page size into the session's overflow queue (`more` set).
  void paginate(Session& session, std::vector<EntryPdu> pdus, bool full_reload,
                bool complete_enumeration, ReSyncResponse& response);
  /// Serves the next continuation page from the overflow queue.
  void serve_overflow(Session& session, ReSyncResponse& response);
  /// Caches the response for replays, accounting (and if over budget
  /// stripping) its entry bodies.
  void cache_response(Session& session, const ReSyncResponse& response);
  /// Unregisters the session from its shard's router (releasing holder
  /// entries) and erases it. Used by sync_end, abandon and expiry.
  void drop_session(Shard& shard, std::map<std::string, Session>::iterator it);
  /// Puts a QuerySession into the table of its hash shard under a fresh id
  /// and queues its expiry node. Every session enters here: initial,
  /// in-sync, fallback and walk. `baseline` is the journal seq its content
  /// was computed at. Until register_session() it is a walk: unrouted and
  /// unaccounted.
  Session& insert_session(std::unique_ptr<sync::QuerySession> query_session,
                          Mode mode, std::uint64_t baseline);
  /// Makes an inserted session live: registers its router route, seeds the
  /// holder mirror from the tracked content and lowers the route floor. A
  /// session prepared before the last pump (round 1 of a walk) first
  /// catches up by a rebase from the DIT.
  void register_session(Session& session);
  /// Seq of the newest journal record, i.e. what content computed from the
  /// DIT right now reflects.
  std::uint64_t journal_head() const { return master_->journal().last_seq(); }
  /// Common response tail: activity stamp, traffic accounting, origin time,
  /// persistence flag and the replay cache.
  void finalize(Session& session, const ReSyncControl& control,
                ReSyncResponse& response);
  /// Round 1 of a reconciliation walk: compare offered digests, answer
  /// in_sync / need_buckets / fallback (DESIGN.md §12).
  ReSyncResponse handle_reconcile_round1(const ldap::Query& query,
                                         const ReSyncControl& control);
  /// Round 2, a poll on the walk's cookie: fingerprints -> exact diff, and
  /// the walking session is registered.
  void handle_reconcile_round2(Session& session, const ReconcileRequest& upload,
                               ReSyncResponse& response);
  /// Ships the full content instead of walking (cap hit or diverged too far).
  ReSyncResponse reconcile_fallback(std::unique_ptr<sync::QuerySession> qs,
                                    std::uint64_t baseline,
                                    const ReSyncControl& control);

  server::DirectoryServer* master_;
  /// Session-hash partitions; unique_ptr keeps shard addresses stable for
  /// Session::shard back-pointers. Always at least one shard.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<PumpPool> pool_;
  NotificationSink sink_;
  net::LogicalClock clock_;
  net::TrafficStats traffic_;
  ResourceGovernor governor_;
  /// The journal position of the last pump; the journal drops records once
  /// this reader (and every other) has consumed them.
  server::ChangeJournal::Reader pumped_;
  /// No live session's baseline is below this: pump() routes no record at
  /// or below it. The min baseline of the live sessions; reset to the sole
  /// session's baseline when it is the only one, not raised when sessions
  /// drop (a stale floor only routes records the per-session check skips).
  std::uint64_t route_floor_ = 0;
  std::uint64_t time_limit_ = 0;
  std::uint64_t cookie_counter_ = 0;
  /// Sessions inserted but not registered: digest walks between rounds.
  std::size_t walking_ = 0;
  std::uint64_t replays_ = 0;
  std::size_t pump_threads_ = 0;
  bool reconcile_enabled_ = true;
  double reconcile_fallback_fraction_ = 0.5;
  bool change_routing_ = true;
};

}  // namespace fbdr::resync
