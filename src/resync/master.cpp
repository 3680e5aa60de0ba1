#include "resync/master.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ldap/error.h"
#include "ldap/text.h"

namespace fbdr::resync {

using ldap::ProtocolError;

ReSyncMaster::ReSyncMaster(server::DirectoryServer& master)
    : master_(&master),
      pumped_(master.journal()) {
  shards_.push_back(std::make_unique<Shard>(master.schema()));
}

ReSyncMaster::Shard& ReSyncMaster::shard_for(const std::string& id) {
  if (shards_.size() == 1) return *shards_.front();
  // FNV-1a: stable across builds and platforms, so a given session id lands
  // on the same shard in every run (the equivalence twin depends on the
  // partition being a pure function of the id and the shard count).
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : id) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return *shards_[hash % shards_.size()];
}

std::map<std::string, ReSyncMaster::Session>::iterator
ReSyncMaster::find_session(const std::string& id, Shard*& shard) {
  shard = &shard_for(id);
  return shard->sessions.find(id);
}

void ReSyncMaster::set_pump_shards(std::size_t shards) {
  if (shards == 0) shards = 1;
  if (shards == shards_.size()) return;
  if (session_count() + pending_reconciles() != 0) {
    throw std::logic_error(
        "set_pump_shards: cannot repartition with live sessions");
  }
  shards_.clear();
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(master_->schema()));
  }
}

void ReSyncMaster::set_pump_threads(std::size_t threads) {
  pump_threads_ = threads;
  if (threads == 0) {
    pool_.reset();
  }
  // A pool of the new size is (re)created lazily on the next pump().
}

void ReSyncMaster::run_on_shards(const std::function<void(Shard&)>& fn) {
  if (pump_threads_ == 0 || shards_.size() <= 1) {
    for (const std::unique_ptr<Shard>& shard : shards_) fn(*shard);
    return;
  }
  if (!pool_ || pool_->thread_count() != pump_threads_) {
    pool_ = std::make_unique<PumpPool>(pump_threads_);
  }
  pool_->run(shards_.size(),
             [&](std::size_t index) { fn(*shards_[index]); });
}

ReSyncMaster::CookieParts ReSyncMaster::parse_cookie(const std::string& cookie) {
  CookieParts parts;
  const std::size_t hash = cookie.rfind('#');
  if (hash == std::string::npos) {
    parts.id = cookie;  // legacy/foreign cookie: no sequence number
    return parts;
  }
  parts.id = cookie.substr(0, hash);
  const std::optional<std::uint64_t> seq =
      ldap::text::parse_u64(std::string_view(cookie).substr(hash + 1));
  if (!seq) throw ProtocolError("malformed resync cookie '" + cookie + "'");
  parts.seq = *seq;
  parts.has_seq = true;
  return parts;
}

std::string ReSyncMaster::make_cookie(const std::string& id, std::uint64_t seq) {
  return id + "#" + std::to_string(seq);
}

ReSyncResponse ReSyncMaster::handle(const ldap::Query& query,
                                    const ReSyncControl& control) {
  traffic_.count_round_trip();

  if (control.mode == Mode::SyncEnd) {
    if (control.initial()) return {};
    // Only a cookie the session could still be holding ends it: the query
    // must be the session's, and the sequence number one it issued or last
    // answered. A restarted endpoint reuses its ids (DESIGN.md §12), so a
    // cookie from its earlier incarnation may name another consumer's
    // session; that SyncEnd is a no-op. A walk between its rounds ends the
    // same way.
    const CookieParts parts = parse_cookie(control.cookie);
    Shard* shard = nullptr;
    const auto it = find_session(parts.id, shard);
    if (it == shard->sessions.end()) return {};
    const Session& session = it->second;
    if (parts.has_seq &&
        (parts.seq == session.next_seq ||
         (session.last_seq != 0 && parts.seq == session.last_seq)) &&
        session.session->query() == query) {
      drop_session(*shard, it);
    }
    return {};
  }

  ReSyncResponse response;
  std::string id;
  Session* session = nullptr;

  if (control.initial()) {
    // Admission control: past the session cap no session is created; the
    // client sees a protocol-level busy result and retries with backoff. A
    // walk between its rounds counts against the cap like a session.
    if (!governor_.admits(session_count() + pending_reconciles())) {
      ++governor_.stats().sessions_rejected_busy;
      ReSyncResponse busy;
      busy.busy = true;
      busy.origin_time = clock_.now();
      return busy;
    }
    // The replica offers digests instead of accepting a full reload. A
    // master with reconciliation disabled answers the offer with the plain
    // reload below: the response carries no reconcile field, which tells
    // the client the peer does not speak reconciliation.
    if (control.reconcile && reconcile_enabled_ &&
        control.reconcile->round == 1) {
      return handle_reconcile_round1(query, control);
    }
    // (i) Initial request: create the session and send the whole content.
    auto qs = std::make_unique<sync::QuerySession>(query, master_->schema());
    const std::uint64_t baseline = journal_head();
    const sync::UpdateBatch batch = qs->initial(master_->dit());
    session = &insert_session(std::move(qs), control.mode, baseline);
    register_session(*session);
    id = session->id;
    paginate(*session, to_pdus(batch), /*full_reload=*/true,
             /*complete_enumeration=*/false, response);
    response.cookie = make_cookie(id, session->next_seq);
  } else {
    // (ii) The cookie identifies the session and carries the poll sequence
    // number; send accumulated updates.
    const CookieParts parts = parse_cookie(control.cookie);
    if (!parts.has_seq) {
      // A '#'-less cookie predates replay-safe sequence numbering (or came
      // from another server). Treating it as seq 0 would bypass the replay
      // cache and then fail the sequence check with a confusing
      // out-of-sequence error; reject it as stale so the replica falls back
      // to a full reload.
      throw ldap::StaleCookieError("legacy resync cookie '" + control.cookie +
                                   "' has no sequence number");
    }
    id = parts.id;
    Shard* shard = nullptr;
    const auto it = find_session(id, shard);
    if (it == shard->sessions.end()) {
      throw ldap::StaleCookieError("unknown or expired resync cookie '" +
                                   control.cookie + "'");
    }
    session = &it->second;
    if (parts.seq != 0 && parts.seq == session->last_seq) {
      // Duplicated or retried poll: answer from the replay cache. Session
      // history is untouched — the updates it carried are neither shipped a
      // second time into the replica's future nor lost.
      ++replays_;
      session->last_active = clock_.now();
      if (!session->replay_stripped) {
        // The retransmission is wire traffic.
        count_pdus(traffic_, session->last_response.pdus);
        // Re-stamp the origin: handing back the stamp of the original
        // exchange would roll a downstream relay's root-time view backwards
        // and inflate its reported lag. The replay consumed no history, so a
        // fresh stamp is safe — anything newer still sits in the session
        // history and ships on the next genuine poll.
        session->last_response.origin_time = clock_.now();
        return session->last_response;
      }
      // The cached bodies were stripped under the replay-byte budget, so a
      // verbatim replay is impossible. A complete enumeration of the current
      // content converges the replica instead, whether or not it applied the
      // original response (any newer change still sits in the session
      // history and ships as an idempotent delta on the next genuine poll).
      // Sequence state is untouched: this re-answers the same seq.
      ReSyncResponse fresh2;
      paginate(*session, to_pdus(session->session->snapshot_enumeration()),
               /*full_reload=*/false, /*complete_enumeration=*/true, fresh2);
      fresh2.cookie = make_cookie(id, session->next_seq);
      fresh2.persistent = session->mode == Mode::Persist;
      fresh2.origin_time = clock_.now();
      count_pdus(traffic_, fresh2.pdus);
      cache_response(*session, fresh2);
      return fresh2;
    }
    if (parts.seq != session->next_seq) {
      throw ProtocolError("out-of-sequence resync cookie '" + control.cookie +
                          "' (expected seq " + std::to_string(session->next_seq) +
                          ")");
    }
    if (session->walking() &&
        (!control.reconcile || control.reconcile->round != 2)) {
      throw ProtocolError("reconcile cookie '" + control.cookie +
                          "' requires round-2 fingerprints");
    }
    session->mode = control.mode;
    if (session->walking()) {
      handle_reconcile_round2(*session, *control.reconcile, response);
    } else if (session->overflow_pos < session->overflow.size()) {
      // Drain the continuation pages of the previous logical batch before
      // computing anything new.
      serve_overflow(*session, response);
    } else {
      const sync::UpdateBatch batch = session->session->degraded()
                                          ? session->session->poll_with_retains()
                                          : session->session->poll();
      paginate(*session, to_pdus(batch), /*full_reload=*/false,
               batch.complete_enumeration, response);
    }
    session->last_seq = parts.seq;
    session->next_seq = parts.seq + 1;
    response.cookie = make_cookie(id, session->next_seq);
  }

  // (iii) Persist: the connection stays open for pushed notifications.
  // (iv) Poll: the returned cookie resumes the session.
  finalize(*session, control, response);
  return response;
}

void ReSyncMaster::finalize(Session& session, const ReSyncControl& control,
                            ReSyncResponse& response) {
  session.last_active = clock_.now();
  count_pdus(traffic_, response.pdus);
  // The root of a distribution tree is its own origin: the shipped state is
  // current as of this master's clock. Relays overwrite the stamp with the
  // root time learned on their last upstream sync.
  response.origin_time = clock_.now();
  response.persistent = control.mode == Mode::Persist;
  cache_response(session, response);
}

ReSyncMaster::Session& ReSyncMaster::insert_session(
    std::unique_ptr<sync::QuerySession> query_session, Mode mode,
    std::uint64_t baseline) {
  const std::string id = "rs-" + std::to_string(++cookie_counter_);
  Shard& shard = shard_for(id);
  Session& session = shard.sessions[id];
  session.session = std::move(query_session);
  session.mode = mode;
  session.last_active = clock_.now();
  session.baseline = baseline;
  session.id = id;
  session.shard = &shard;
  shard.expiry.emplace(clock_.now(), id);
  ++walking_;
  return session;
}

void ReSyncMaster::register_session(Session& session) {
  --walking_;
  // Register with the shard's change router and seed its holder mirror from
  // the tracked content.
  Shard& shard = *session.shard;
  session.route = shard.router.add_session(
      session.session->query(), &session.session->tracker().compiled_filter());
  shard.by_handle[session.route] = &session;
  for (const auto& [key, entry] : session.session->tracker().content()) {
    shard.router.note_enter(session.route, key);
  }
  if (session.baseline < pumped_.position()) {
    // Prepared before the last pump (round 1 of a walk): the records pumped
    // since never reached it, so diff it against the DIT.
    absorb_events(shard, session, session.session->rebase(master_->dit()));
    session.baseline = journal_head();
  }
  route_floor_ = session_count() == 1
                     ? session.baseline
                     : std::min(route_floor_, session.baseline);
}

ReSyncResponse ReSyncMaster::reconcile_fallback(
    std::unique_ptr<sync::QuerySession> qs, std::uint64_t baseline,
    const ReSyncControl& control) {
  ++governor_.stats().reconcile_fallbacks;
  const sync::UpdateBatch batch = qs->full_content_batch();
  Session& session = insert_session(std::move(qs), control.mode, baseline);
  register_session(session);
  ReSyncResponse response;
  auto rec = std::make_shared<ReconcileResponse>();
  rec->fallback = true;
  response.reconcile = std::move(rec);
  paginate(session, to_pdus(batch), /*full_reload=*/true,
           /*complete_enumeration=*/false, response);
  response.cookie = make_cookie(session.id, session.next_seq);
  finalize(session, control, response);
  return response;
}

ReSyncResponse ReSyncMaster::handle_reconcile_round1(
    const ldap::Query& query, const ReSyncControl& control) {
  ++governor_.stats().reconcile_walks;
  auto qs = std::make_unique<sync::QuerySession>(query, master_->schema());
  const std::uint64_t baseline = journal_head();
  qs->prepare(master_->dit());
  const ReconcileRequest& offer = *control.reconcile;

  // Walk cap: rather than holding more walking sessions, ship it all.
  const std::size_t walk_cap = governor_.limits().max_pending_reconciles;
  if (walk_cap != 0 && pending_reconciles() >= walk_cap) {
    return reconcile_fallback(std::move(qs), baseline, control);
  }

  const sync::ContentDigest& mine = qs->tracker().digest();
  if (offer.root_digest == mine.root() &&
      offer.entry_count == mine.entry_count()) {
    // Roots match: the replica already holds the exact content.
    ++governor_.stats().reconciles_completed;
    qs->ack_content();
    Session& session = insert_session(std::move(qs), control.mode, baseline);
    register_session(session);
    ReSyncResponse response;
    auto rec = std::make_shared<ReconcileResponse>();
    rec->in_sync = true;
    response.reconcile = std::move(rec);
    response.cookie = make_cookie(session.id, session.next_seq);
    finalize(session, control, response);
    return response;
  }

  // Compare per-bucket digests; every mismatched or one-sided bucket is
  // divergent. The entry counts bound how much round 2 could ship.
  std::map<std::uint32_t, DigestPdu> theirs;
  for (const DigestPdu& bucket : offer.buckets) theirs[bucket.bucket] = bucket;
  std::vector<std::uint32_t> need;
  std::uint64_t estimate = 0;
  for (const DigestPdu& bucket : mine.bucket_digests()) {
    const auto it = theirs.find(bucket.bucket);
    if (it == theirs.end()) {
      need.push_back(bucket.bucket);
      estimate += bucket.count;
      continue;
    }
    if (it->second.digest != bucket.digest) {
      need.push_back(bucket.bucket);
      estimate += std::max(bucket.count, it->second.count);
    }
    theirs.erase(it);
  }
  for (const auto& [index, bucket] : theirs) {
    need.push_back(index);
    estimate += bucket.count;
  }
  std::sort(need.begin(), need.end());

  // Divergence threshold (DESIGN.md §12): past it, the walk would ship
  // digests plus most of the content anyway — fall back to the reload.
  const std::uint64_t total =
      std::max<std::uint64_t>(std::max<std::uint64_t>(mine.entry_count(),
                                                      offer.entry_count),
                              1);
  if (static_cast<double>(estimate) >
      reconcile_fallback_fraction_ * static_cast<double>(total)) {
    return reconcile_fallback(std::move(qs), baseline, control);
  }

  // Hold the walk as a session the router does not see yet; round 2 polls
  // its cookie with fingerprints for exactly these buckets.
  Session& session = insert_session(std::move(qs), control.mode, baseline);
  session.need_buckets = need;
  ReSyncResponse response;
  auto rec = std::make_shared<ReconcileResponse>();
  rec->need_buckets = std::move(need);
  response.reconcile = std::move(rec);
  response.cookie = make_cookie(session.id, session.next_seq);
  response.origin_time = clock_.now();
  return response;
}

void ReSyncMaster::handle_reconcile_round2(Session& session,
                                           const ReconcileRequest& upload,
                                           ReSyncResponse& response) {
  const sync::UpdateBatch diff = session.session->diff_batch(
      upload.fingerprints, std::exchange(session.need_buckets, {}));
  register_session(session);
  // An all-false reconcile field marks "here is your diff".
  response.reconcile = std::make_shared<ReconcileResponse>();
  paginate(session, to_pdus(diff), /*full_reload=*/false,
           /*complete_enumeration=*/false, response);
  ++governor_.stats().reconciles_completed;
  governor_.stats().reconcile_entries_shipped +=
      diff.adds.size() + diff.mods.size() + diff.deletes.size();
}

void ReSyncMaster::paginate(Session& session, std::vector<EntryPdu> pdus,
                            bool full_reload, bool complete_enumeration,
                            ReSyncResponse& response) {
  response.full_reload = full_reload;
  response.complete_enumeration = complete_enumeration;
  const std::size_t page = governor_.page_size();
  if (page == 0 || pdus.size() <= page) {
    response.pdus = std::move(pdus);
    return;
  }
  // Spill the tail into the session's overflow queue; later polls drain it
  // page by page under the ordinary replay-safe cookie sequence. The
  // completeness flags ride along on every page; appliers act on them only
  // once the final page (`more == false`) arrived.
  session.overflow.assign(pdus.begin() + static_cast<std::ptrdiff_t>(page),
                          pdus.end());
  session.overflow_pos = 0;
  session.overflow_enum = complete_enumeration;
  session.overflow_reload = full_reload;
  pdus.resize(page);
  response.pdus = std::move(pdus);
  response.more = true;
  ++governor_.stats().pages_served;
}

void ReSyncMaster::serve_overflow(Session& session, ReSyncResponse& response) {
  const std::size_t page = governor_.page_size();
  const std::size_t remaining = session.overflow.size() - session.overflow_pos;
  const std::size_t take = page == 0 ? remaining : std::min(page, remaining);
  const auto first = session.overflow.begin() +
                     static_cast<std::ptrdiff_t>(session.overflow_pos);
  response.pdus.assign(first, first + static_cast<std::ptrdiff_t>(take));
  session.overflow_pos += take;
  response.continued = true;
  response.full_reload = session.overflow_reload;
  response.complete_enumeration = session.overflow_enum;
  if (session.overflow_pos < session.overflow.size()) {
    response.more = true;
  } else {
    session.overflow.clear();
    session.overflow.shrink_to_fit();
    session.overflow_pos = 0;
  }
  ++governor_.stats().pages_served;
}

void ReSyncMaster::cache_response(Session& session,
                                  const ReSyncResponse& response) {
  session.last_response = response;
  session.replay_stripped = false;
  session.replay_bytes = 0;
  for (const EntryPdu& pdu : response.pdus) {
    if (pdu.entry) session.replay_bytes += pdu.entry->approx_size_bytes();
  }
  // Retain/delete PDUs carry no bodies and always stay cached; only entry
  // bodies past the budget are stripped (a stripped replay is answered with
  // a fresh snapshot enumeration instead). A batch mid-pagination is never
  // stripped — with paging on, every cached page is page-size-bounded.
  if (governor_.over_replay_bytes(session.replay_bytes) &&
      session.overflow_pos >= session.overflow.size()) {
    session.last_response.pdus.clear();
    session.last_response.pdus.shrink_to_fit();
    session.replay_bytes = 0;
    session.replay_stripped = true;
    ++governor_.stats().replay_caches_stripped;
  }
}

void ReSyncMaster::set_resource_limits(const ResourceLimits& limits) {
  governor_.set_limits(limits);
  master_->journal().set_retention(limits.journal_retention_records);
}

void ReSyncMaster::apply_change(Shard& shard, Session& session,
                                const server::ChangeRecord& record) {
  if (record.seq <= session.baseline) return;  // the content already holds it
  absorb_events(shard, session, session.session->on_change(record));
}

void ReSyncMaster::absorb_events(Shard& shard, Session& session,
                                 const std::vector<sync::ContentEvent>& events) {
  if (events.empty()) return;
  if (!session.dirty) {
    session.dirty = true;
    shard.dirty.push_back(&session);
  }
  mirror_events(shard, session, events);
  enforce_session_history(session, shard.delta);
}

void ReSyncMaster::mirror_events(Shard& shard, Session& session,
                                 const std::vector<sync::ContentEvent>& events) {
  if (session.route == sync::ChangeRouter::kInvalidHandle) return;
  for (const sync::ContentEvent& event : events) {
    switch (event.transition) {
      case sync::Transition::Enter:
        shard.router.note_enter(session.route, event.dn.norm_key());
        break;
      case sync::Transition::Leave:
        shard.router.note_leave(session.route, event.dn.norm_key());
        break;
      case sync::Transition::Update:
        break;  // membership unchanged
    }
  }
}

void ReSyncMaster::enforce_session_history(Session& session,
                                           GovernorStats& stats) {
  // Persist sessions drain their history on every pump; only poll-session
  // histories accumulate, so only they are degraded. (The push sink also has
  // no complete-enumeration channel, so a degraded persist session could not
  // be answered exactly.)
  if (session.mode != Mode::Poll) return;
  if (!governor_.over_session_history(session.session->history_units())) return;
  if (!session.session->degraded()) {
    session.session->degrade();
    ++stats.sessions_degraded;
  }
  // degrade() dedups events into touched keys; if even those blow the
  // budget, collapse to ship-everything mode (zero history cost).
  if (governor_.over_session_history(session.session->history_units()) &&
      !session.session->history_collapsed()) {
    session.session->collapse_history();
    ++stats.histories_collapsed;
  }
}

void ReSyncMaster::enforce_global_history() {
  std::size_t total = history_units();
  if (!governor_.over_total_history(total)) return;
  std::vector<Session*> victims;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (auto& [id, session] : shard->sessions) {
      if (session.mode == Mode::Poll && session.session->history_units() > 0) {
        victims.push_back(&session);
      }
    }
  }
  // Largest first; ties broken by session id so the victim order (and thus
  // which sessions end up degraded) does not depend on the shard count.
  std::sort(victims.begin(), victims.end(), [](Session* a, Session* b) {
    const std::size_t ua = a->session->history_units();
    const std::size_t ub = b->session->history_units();
    if (ua != ub) return ua > ub;
    return a->id < b->id;
  });
  for (Session* victim : victims) {
    if (!governor_.over_total_history(total)) break;
    std::size_t units = victim->session->history_units();
    if (!victim->session->degraded()) {
      victim->session->degrade();
      ++governor_.stats().sessions_degraded;
      total = total - units + victim->session->history_units();
      units = victim->session->history_units();
    }
    if (governor_.over_total_history(total) &&
        !victim->session->history_collapsed()) {
      victim->session->collapse_history();
      ++governor_.stats().histories_collapsed;
      total -= units;
    }
  }
}

void ReSyncMaster::rebase_shard(Shard& shard) {
  for (auto& [id, session] : shard.sessions) {
    if (session.walking()) continue;  // rebased when registered
    absorb_events(shard, session, session.session->rebase(master_->dit()));
    ++shard.delta.compaction_rebases;
  }
}

void ReSyncMaster::pump() {
  const bool gap = pumped_.behind();
  std::vector<const server::ChangeRecord*> records;
  if (!gap) records = pumped_.pending();

  // Parallel phase: every shard consumes the (shared, read-only) journal
  // batch through its own router and sessions — or, after a
  // compaction gap, rebases its sessions from the DIT. No state outside the
  // shard is written; governor counters accumulate in the shard delta.
  run_on_shards([&](Shard& shard) {
    if (gap) {
      // Journal compaction dropped records we never replayed: the gap cannot
      // be reconstructed from the log, so re-anchor every session on the
      // current DIT. The synthesized diff events flow through the normal
      // history/budget/router paths.
      rebase_shard(shard);
      return;
    }
    std::vector<sync::ChangeRouter::Handle> candidates;
    for (const server::ChangeRecord* record : records) {
      // Every live session's content already reflects it (installed after
      // it was journaled): nothing to route.
      if (record->seq <= route_floor_) continue;
      if (change_routing_) {
        candidates.clear();
        shard.router.route(*record, candidates);
        for (const sync::ChangeRouter::Handle handle : candidates) {
          apply_change(shard, *shard.by_handle.at(handle), *record);
        }
      } else {
        // Exhaustive fan-out (benchmark baseline / equivalence oracle). The
        // router's holder mirror is still maintained by apply_change, so
        // routing can be switched back on afterwards.
        for (auto& [id, session] : shard.sessions) {
          if (session.walking()) continue;
          apply_change(shard, session, *record);
        }
      }
    }
  });
  // Barrier: no shard reads the batch any more, so the journal may free it.
  if (gap) {
    pumped_.advance(master_->journal().last_seq());
  } else if (!records.empty()) {
    pumped_.advance(records.back()->seq);
  }

  // Fold the parallel-phase governor counters.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    governor_.stats().merge(shard->delta);
    shard->delta = GovernorStats{};
  }

  // Serial phase. Push accumulated updates on persist connections
  // immediately — only sessions some record actually touched are visited
  // (the per-shard dirty lists: O(dirty), not O(sessions)). The global push
  // order is sorted by session id, independent of the shard count.
  std::vector<Session*> dirty;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    dirty.insert(dirty.end(), shard->dirty.begin(), shard->dirty.end());
    shard->dirty.clear();
  }
  std::sort(dirty.begin(), dirty.end(),
            [](Session* a, Session* b) { return a->id < b->id; });
  for (Session* session : dirty) {
    session->dirty = false;
    if (session->mode != Mode::Persist || !session->session->initialized()) {
      continue;
    }
    const sync::UpdateBatch batch = session->session->poll();
    if (batch.empty()) continue;
    const std::vector<EntryPdu> pdus = to_pdus(batch);
    count_pdus(traffic_, pdus);
    session->last_active = clock_.now();
    if (sink_) sink_(make_cookie(session->id, session->next_seq), pdus);
  }
  // Poll sessions kept accumulating: re-check the global budget.
  enforce_global_history();
}

void ReSyncMaster::tick(std::uint64_t delta) {
  clock_.advance(delta);
  const std::uint64_t limit = governor_.effective_deadline(time_limit_);
  if (limit == 0) return;
  // (v) Expire idle poll sessions past the admin time limit (or the
  // governor's tighter slow-poller deadline), and walks whose round 2 never
  // arrived, whatever their mode. Each shard's expiry queue is
  // ordered by last_active-at-insertion with lazy deletion: only the stalest
  // sessions are examined, instead of scanning all of them.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    while (!shard->expiry.empty()) {
      const auto front = shard->expiry.begin();
      if (clock_.now() - front->first <= limit) break;  // rest is fresher
      const auto it = shard->sessions.find(front->second);
      if (it == shard->sessions.end()) {
        shard->expiry.erase(front);  // dropped since insertion
        continue;
      }
      Session& session = it->second;
      if (session.mode != Mode::Poll && !session.walking()) {
        // Persist sessions hold an open connection and are not expired here;
        // requeue at the current time so they are revisited, not rescanned.
        const std::string id = front->second;
        shard->expiry.erase(front);
        shard->expiry.emplace(clock_.now(), id);
        continue;
      }
      if (session.last_active != front->first) {
        // Touched since insertion: requeue at the true last-active time.
        const std::uint64_t last_active = session.last_active;
        const std::string id = front->second;
        shard->expiry.erase(front);
        shard->expiry.emplace(last_active, id);
        continue;
      }
      const std::uint64_t deadline = governor_.limits().poll_deadline_ticks;
      if (deadline != 0 && clock_.now() - front->first > deadline &&
          !session.walking()) {
        ++governor_.stats().sessions_evicted;  // governor-caused, not admin
      }
      drop_session(*shard, it);
      shard->expiry.erase(front);
    }
  }
}

void ReSyncMaster::drop_session(Shard& shard,
                                std::map<std::string, Session>::iterator it) {
  Session& session = it->second;
  if (session.walking()) {
    --walking_;
  } else {
    for (const auto& [key, entry] : session.session->tracker().content()) {
      shard.router.note_leave(session.route, key);
    }
    shard.router.remove_session(session.route);
    shard.by_handle.erase(session.route);
  }
  shard.sessions.erase(it);
  // Any expiry node for the session is discarded lazily by tick().
}

void ReSyncMaster::reset() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->sessions.clear();
    shard->router.clear();
    shard->by_handle.clear();
    shard->expiry.clear();
    shard->dirty.clear();
    shard->delta = GovernorStats{};
  }
  walking_ = 0;
  // The restarted master resumes journal consumption at the tail: sessions
  // created after the restart take their baseline from initial() anyway.
  pumped_.advance(master_->journal().last_seq());
}

void ReSyncMaster::abandon(const std::string& cookie) {
  Shard* shard = nullptr;
  const auto it = find_session(parse_cookie(cookie).id, shard);
  if (it != shard->sessions.end()) drop_session(*shard, it);
}

sync::ChangeRouter::Stats ReSyncMaster::routing_stats() const {
  sync::ChangeRouter::Stats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total.merge(shard->router.stats());
  }
  return total;
}

std::size_t ReSyncMaster::session_count() const noexcept {
  std::size_t count = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    count += shard->sessions.size();
  }
  return count - walking_;
}

std::size_t ReSyncMaster::open_connections() const {
  std::size_t count = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (const auto& [cookie, session] : shard->sessions) {
      if (session.mode == Mode::Persist && !session.walking()) ++count;
    }
  }
  return count;
}

std::size_t ReSyncMaster::history_size() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (const auto& [cookie, session] : shard->sessions) {
      total += session.session->pending_events();
    }
  }
  return total;
}

std::size_t ReSyncMaster::history_units() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (const auto& [cookie, session] : shard->sessions) {
      total += session.session->history_units();
    }
  }
  return total;
}

std::size_t ReSyncMaster::replay_cache_bytes() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (const auto& [cookie, session] : shard->sessions) {
      total += session.replay_bytes;
    }
  }
  return total;
}

std::size_t ReSyncMaster::degraded_sessions() const {
  std::size_t count = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (const auto& [cookie, session] : shard->sessions) {
      if (session.session->degraded()) ++count;
    }
  }
  return count;
}

}  // namespace fbdr::resync
