// Walks the failure model end to end: a replica site keeps a filter
// consistent through a faulty link, the master crashes, the degraded filter
// keeps answering containment hits from its (stale) local content, and a
// reconciliation walk heals it after the restart (DESIGN.md §12).
//
//   1. install (serialnumber=00*) through a lossy FaultyPipe
//   2. lose some polls — retries under the backoff policy cover them
//   3. crash the master mid-update — sync() degrades the filter
//   4. serve the filter's query anyway: hit, marked stale
//   5. restart the master — next sync() reconciles the diff and heals

#include <cstdio>

#include "core/replication_service.h"
#include "net/fault_injector.h"
#include "workload/directory_gen.h"
#include "workload/update_gen.h"

using namespace fbdr;

namespace {

void show(const char* moment, const core::FilterReplicationService& service) {
  std::printf("[%s]\n%s\n", moment, service.health().to_string().c_str());
}

}  // namespace

int main() {
  workload::DirectoryConfig directory_config;
  directory_config.employees = 2000;
  workload::EnterpriseDirectory dir =
      workload::generate_directory(directory_config);

  core::FilterReplicationService::Config config;
  config.retry.max_attempts = 4;
  config.retry.base_backoff_ticks = 1;
  config.retry.jitter_seed = 42;
  core::FilterReplicationService service(dir.master, config);

  net::FaultConfig faults;
  faults.seed = 42;
  faults.drop_request = 0.15;
  faults.drop_response = 0.10;
  faults.duplicate = 0.15;
  auto pipe = std::make_shared<net::FaultyPipe>(service.resync(), faults);
  service.set_channel(std::make_shared<net::FramedChannel>(pipe));

  const ldap::Query block =
      ldap::Query::parse("", ldap::Scope::Subtree, "(serialnumber=00*)");
  service.install(block);
  show("installed over a lossy link", service);

  // Routine churn under loss: retries absorb the dropped exchanges.
  workload::UpdateGenerator updates(dir, {});
  for (int round = 0; round < 10; ++round) {
    updates.apply(50);
    service.resync().pump();
    service.resync().tick();
    service.sync();
  }
  show("after 500 updates over the lossy link", service);
  std::printf("replays suppressed by the master: %llu\n\n",
              static_cast<unsigned long long>(
                  service.resync().replays_suppressed()));

  // Master crash: the poll fails past the retry budget and the filter
  // degrades — but it keeps answering from its last-synced content.
  pipe->crash_master();
  updates.apply(50);  // changes the replica cannot see yet
  service.sync();
  show("master down, filter degraded", service);

  const core::ServeOutcome outcome = service.serve(block);
  std::printf("serve(%s): hit=%d stale=%d  (answered from local content)\n\n",
              block.to_string().c_str(), outcome.hit, outcome.stale);

  // Staleness is measured in master clock ticks while the link is down.
  pipe->elapse(8);
  service.sync();
  show("still down — staleness accumulating", service);

  // Restart: the old cookie is unknown, so recovery offers the local
  // content's digests and only the missed updates ship (the pre-
  // reconciliation path reloaded everything here).
  pipe->restart_master();
  service.resync().pump();
  service.sync();
  show("master restarted, filter healed by a reconcile walk", service);

  const core::ServeOutcome healed = service.serve(block);
  std::printf("serve(%s): hit=%d stale=%d\n", block.to_string().c_str(),
              healed.hit, healed.stale);
  return 0;
}
