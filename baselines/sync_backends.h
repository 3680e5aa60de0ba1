#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "server/directory_server.h"
#include "sync/query_session.h"
#include "sync/update_batch.h"

namespace fbdr::sync {

/// Master-side synchronization back-end serving one replica's set of
/// replicated queries. §5.2 compares four of them; bench_sync_backends
/// measures their traffic and the back-end suites their convergence.
/// ReSyncMaster is the production form of the session-history approach.
///
/// Usage: register queries, feed every master ChangeRecord via on_change,
/// pull batches with initial() then poll(). Applying each returned batch to
/// the replica's content must converge it to the master's (tested).
class SyncBackend {
 public:
  virtual ~SyncBackend() = default;

  /// Registers a replicated query; returns its handle.
  virtual std::size_t register_query(const ldap::Query& query) = 0;

  /// Full initial content for a freshly registered query.
  virtual UpdateBatch initial(std::size_t id) = 0;

  /// Updates accumulated since the previous initial()/poll() for this query.
  virtual UpdateBatch poll(std::size_t id) = 0;

  /// Feeds one journaled master update to the back-end. Only the session
  /// history keeps state between polls.
  virtual void on_change(const server::ChangeRecord&) {}

  virtual std::string name() const = 0;
};

/// ReSync's approach: per replicated query, a content tracker plus the
/// session history, the events accumulated since the replica's last poll.
/// Each poll returns the minimal update set of equation (2); see
/// QuerySession for the compaction rules.
class SessionHistoryBackend : public SyncBackend {
 public:
  explicit SessionHistoryBackend(const server::Dit& master_dit)
      : dit_(&master_dit) {}

  std::size_t register_query(const ldap::Query& query) override;
  UpdateBatch initial(std::size_t id) override;
  UpdateBatch poll(std::size_t id) override;
  void on_change(const server::ChangeRecord& record) override;
  std::string name() const override { return "session-history"; }

  /// Entries currently tracked for a query (the master-side content view).
  const ContentTracker& tracker(std::size_t id) const;

  /// Number of pending (unpolled) events across all queries: the "size of
  /// historical data" the protocol must maintain.
  std::size_t pending_events() const;

  /// Drops a replicated query (sync_end).
  void unregister_query(std::size_t id) { sessions_.at(id).reset(); }

 private:
  QuerySession& registered(std::size_t id) const;

  const server::Dit* dit_;
  std::vector<std::unique_ptr<QuerySession>> sessions_;  // null: unregistered
};

/// The tombstone and changelog baselines, which keep no state between polls:
/// each poll replays the journal since the previous one and ships the final
/// situation of every DN it touched. A deleted entry leaves an
/// attribute-less tombstone, so neither can tell whether it was in the
/// content and every deleted DN is shipped ("requiring transmission of all
/// deleted entry DNs since the last update"). Adds and modifies are
/// classified against the current DIT; a changed entry that does not match
/// now may have moved out of the content, so a conservative delete is
/// shipped for it. The changelog records the changed attributes, which
/// spares it that delete when no change to the entry touched a filter
/// attribute; that is the only difference between the two.
class JournalReplayBackend : public SyncBackend {
 public:
  std::size_t register_query(const ldap::Query& query) override;
  UpdateBatch initial(std::size_t id) override;
  UpdateBatch poll(std::size_t id) override;
  std::string name() const override {
    return changelog_ ? "changelog" : "tombstone";
  }

 protected:
  JournalReplayBackend(server::DirectoryServer& master, bool changelog)
      : master_(&master), changelog_(changelog) {}

 private:
  struct State {
    std::unique_ptr<ContentTracker> tracker;  // used only for query matching
    server::ChangeJournal::Reader polled;  // journal position of the last poll
    bool initialized = false;
  };

  server::DirectoryServer* master_;
  bool changelog_;
  std::vector<State> states_;
};

class TombstoneBackend : public JournalReplayBackend {
 public:
  explicit TombstoneBackend(server::DirectoryServer& master)
      : JournalReplayBackend(master, /*changelog=*/false) {}
};

class ChangelogBackend : public JournalReplayBackend {
 public:
  explicit ChangelogBackend(server::DirectoryServer& master)
      : JournalReplayBackend(master, /*changelog=*/true) {}
};

/// Full reload: the whole content is retransmitted on every poll.
class FullReloadBackend : public SyncBackend {
 public:
  explicit FullReloadBackend(const server::DirectoryServer& master)
      : master_(&master) {}

  std::size_t register_query(const ldap::Query& query) override {
    queries_.push_back(query);
    return queries_.size() - 1;
  }
  UpdateBatch initial(std::size_t id) override;
  UpdateBatch poll(std::size_t id) override { return initial(id); }
  std::string name() const override { return "full-reload"; }

 private:
  const server::DirectoryServer* master_;
  std::vector<ldap::Query> queries_;
};

}  // namespace fbdr::sync
