// Ablation (§5.2): synchronization traffic of the four back-ends under the
// same master update stream — the ReSync session-history approach vs
// tombstones, changelogs and full reloads. The paper's argument: tombstones
// force transmission of every deleted DN; changelogs additionally cannot
// classify modify-then-delete; full reload is the degenerate upper bound;
// session history ships the minimal set of equation (2). Bytes are the
// encoded size of each poll's batch as one ReSync Response frame.

#include <cstdio>

#include "common.h"
#include "resync/protocol.h"
#include "sync/replica_content.h"
#include "sync_backends.h"
#include "wire/codec.h"

int main() {
  using namespace fbdr;

  struct Result {
    std::string name;
    std::size_t entries = 0;
    std::size_t dns = 0;
    std::size_t bytes = 0;
    bool converged = false;
  };
  std::vector<Result> results;
  wire::Bytes frame;  // reused: each poll's batch is framed into it in place

  for (int which = 0; which < 4; ++which) {
    // Fresh, identically seeded directory and update stream per back-end.
    workload::EnterpriseDirectory dir = bench::default_directory(8000);
    const ldap::Query query =
        ldap::Query::parse("", ldap::Scope::Subtree, "(serialnumber=00*)");

    std::unique_ptr<sync::SyncBackend> backend;
    switch (which) {
      case 0:
        backend = std::make_unique<sync::SessionHistoryBackend>(dir.master->dit());
        break;
      case 1:
        backend = std::make_unique<sync::TombstoneBackend>(*dir.master);
        break;
      case 2:
        backend = std::make_unique<sync::ChangelogBackend>(*dir.master);
        break;
      default:
        backend = std::make_unique<sync::FullReloadBackend>(*dir.master);
        break;
    }

    const std::size_t id = backend->register_query(query);
    sync::ReplicaContent replica;
    replica.apply(backend->initial(id));

    Result result;
    result.name = backend->name();
    workload::UpdateGenerator updates(dir, {});
    std::uint64_t seq = dir.master->journal().last_seq();
    for (int round = 0; round < 40; ++round) {
      updates.apply(100);
      for (const server::ChangeRecord* record : dir.master->journal().since(seq)) {
        backend->on_change(*record);
        seq = record->seq;
      }
      const sync::UpdateBatch batch = backend->poll(id);
      result.entries += batch.entries_sent();
      result.dns += batch.dns_sent();
      resync::ReSyncResponse response;
      response.pdus = resync::to_pdus(batch);
      response.full_reload = batch.full_reload;
      response.complete_enumeration = batch.complete_enumeration;
      frame.clear();
      wire::Codec::frame_response(frame, response);
      result.bytes += frame.size();
      replica.apply(batch);
    }

    sync::ContentTracker truth(query);
    truth.initialize(dir.master->dit());
    result.converged = replica.keys() == truth.content_keys();
    results.push_back(result);
  }

  std::printf("# Sync back-end ablation: 4000 updates, one replicated filter\n");
  std::printf("# (serialnumber=00*); traffic shipped to the replica, bytes as\n"
              "# encoded Response frames\n");
  std::printf("backend,entries,dn_pdus,bytes,converged\n");
  for (const Result& result : results) {
    std::printf("%s,%zu,%zu,%zu,%s\n", result.name.c_str(), result.entries,
                result.dns, result.bytes, result.converged ? "yes" : "NO");
  }
  return 0;
}
