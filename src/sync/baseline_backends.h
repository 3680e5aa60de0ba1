#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "server/directory_server.h"
#include "sync/backend.h"
#include "sync/content_tracker.h"

namespace fbdr::sync {

/// Baseline: tombstone-driven synchronization (§5.2). Deleted entries leave
/// attribute-less tombstones, so the master cannot decide whether a deleted
/// entry was in a replicated query's content — *every* deleted DN since the
/// last poll is shipped to every replica ("requiring transmission of all
/// deleted entry DNs since the last update"). Adds/modifies are classified
/// against the current DIT.
class TombstoneBackend : public SyncBackend {
 public:
  explicit TombstoneBackend(
      server::DirectoryServer& master,
      const ldap::Schema& schema = ldap::Schema::default_instance());

  std::size_t register_query(const ldap::Query& query) override;
  UpdateBatch initial(std::size_t id) override;
  UpdateBatch poll(std::size_t id) override;
  void on_change(const server::ChangeRecord& record) override;
  std::string name() const override { return "tombstone"; }

 private:
  struct State {
    std::unique_ptr<ContentTracker> tracker;
    server::ChangeJournal::Reader polled;  // journal position of the last poll
    bool initialized = false;
  };

  server::DirectoryServer* master_;
  const ldap::Schema* schema_;
  std::vector<State> states_;
};

/// Baseline: changelog-driven synchronization (§5.2). The changelog records
/// only the changed attributes, so (i) deletes cannot be classified — every
/// deleted DN is shipped, and (ii) a modify of a non-matching entry whose
/// changed attributes touch the filter may have moved the entry out of the
/// content — a conservative delete is shipped for it.
class ChangelogBackend : public SyncBackend {
 public:
  explicit ChangelogBackend(
      server::DirectoryServer& master,
      const ldap::Schema& schema = ldap::Schema::default_instance());

  std::size_t register_query(const ldap::Query& query) override;
  UpdateBatch initial(std::size_t id) override;
  UpdateBatch poll(std::size_t id) override;
  void on_change(const server::ChangeRecord& record) override;
  std::string name() const override { return "changelog"; }

 private:
  struct State {
    std::unique_ptr<ContentTracker> tracker;  // used only for query matching
    server::ChangeJournal::Reader polled;  // journal position of the last poll
    bool initialized = false;
  };

  server::DirectoryServer* master_;
  const ldap::Schema* schema_;
  std::vector<State> states_;
};

/// Baseline: full reload — the whole content is retransmitted on every poll.
class FullReloadBackend : public SyncBackend {
 public:
  explicit FullReloadBackend(
      const server::DirectoryServer& master,
      const ldap::Schema& schema = ldap::Schema::default_instance());

  std::size_t register_query(const ldap::Query& query) override;
  UpdateBatch initial(std::size_t id) override;
  UpdateBatch poll(std::size_t id) override { return initial(id); }
  void on_change(const server::ChangeRecord&) override {}
  std::string name() const override { return "full-reload"; }

 private:
  const server::DirectoryServer* master_;
  const ldap::Schema* schema_;
  std::vector<ldap::Query> queries_;
};

}  // namespace fbdr::sync
