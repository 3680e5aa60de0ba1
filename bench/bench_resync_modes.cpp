// §5 quantification: traffic and server-state costs of the ReSync design
// choices under one shared update stream —
//   poll + complete history   — minimal deltas of equation (2),
//   poll + collapsed history  — a one-event history budget the governor
//                               enforces: every degraded session overflows
//                               its budget at once and collapses, so each
//                               poll re-ships the whole content as entry
//                               bodies (the retain stage of equation (3) is
//                               never reached here; GovernorHistory tests
//                               cover it),
//   persist                   — per-change push notifications (minimal
//                               traffic, but one open connection per filter:
//                               "might not scale for large replicas").
//
// Reported per mode: entries shipped, DN-only PDUs (deletes + retains),
// frame bytes, open connections held, peak pending-history events at the
// master, and the governor's degraded and collapsed session counts. The
// replicas poll over FramedChannels; a persist push counts as the Response
// frame it would travel in.

#include <algorithm>
#include <cstdio>
#include <map>

#include "common.h"
#include "net/framed_channel.h"
#include "resync/replica_client.h"

int main() {
  using namespace fbdr;

  struct Result {
    const char* mode;
    net::TrafficStats traffic;
    std::uint64_t bytes = 0;
    std::size_t connections = 0;
    std::size_t peak_history = 0;
    resync::GovernorStats governor;
  };
  std::vector<Result> results;

  for (int which = 0; which < 3; ++which) {
    workload::EnterpriseDirectory dir = bench::default_directory(8000);
    resync::ReSyncMaster master(*dir.master);
    if (which == 1) {
      // A one-unit history budget: 100 updates per round put well over one
      // event into every poll session, which degrades and then collapses.
      resync::ResourceLimits limits;
      limits.max_session_history = 1;
      master.set_resource_limits(limits);
    }

    // Eight replicated filters, as a replica holding several blocks would.
    std::vector<std::unique_ptr<net::FramedChannel>> links;
    std::vector<std::unique_ptr<resync::ReSyncReplica>> replicas;
    std::map<std::string, resync::ReSyncReplica*> by_cookie;
    for (int block = 0; block < 8; ++block) {
      const std::string prefix = "0" + std::to_string(block);
      links.push_back(std::make_unique<net::FramedChannel>(master));
      auto replica = std::make_unique<resync::ReSyncReplica>(
          *links.back(), ldap::Query::parse("", ldap::Scope::Subtree,
                                            "(serialnumber=" + prefix + "*)"));
      replica->start(which == 2 ? resync::Mode::Persist : resync::Mode::Poll);
      by_cookie[replica->cookie()] = replica.get();
      replicas.push_back(std::move(replica));
    }

    Result result;
    master.set_notification_sink(
        [&](const std::string& cookie,
            const std::vector<resync::EntryPdu>& pdus) {
          result.bytes += bench::push_frame(cookie, pdus).size();
          const auto it = by_cookie.find(cookie);
          if (it != by_cookie.end()) it->second->deliver(pdus);
        });
    // Measure steady state, not the initial fill.
    master.reset_traffic();
    for (auto& link : links) link->reset_traffic();

    result.mode = which == 0   ? "poll+complete-history"
                  : which == 1 ? "poll+collapsed-history"
                               : "persist";
    workload::UpdateGenerator updates(dir, {});
    for (int round = 0; round < 20; ++round) {
      updates.apply(100);
      master.pump();
      result.peak_history = std::max(result.peak_history, master.history_size());
      if (which != 2) {
        for (auto& replica : replicas) replica->poll();
      }
    }
    result.traffic = master.traffic();
    for (const auto& link : links) result.bytes += link->traffic().bytes;
    result.connections = master.open_connections();
    result.governor = master.governor_stats();
    results.push_back(result);
  }

  std::printf("# ReSync mode comparison: 2000 updates, 8 replicated filters\n");
  std::printf("mode,entries,dn_pdus,bytes,open_connections,peak_history,"
              "sessions_degraded,histories_collapsed\n");
  for (const Result& result : results) {
    std::printf("%s,%llu,%llu,%llu,%zu,%zu,%llu,%llu\n", result.mode,
                static_cast<unsigned long long>(result.traffic.entries),
                static_cast<unsigned long long>(result.traffic.dns_only),
                static_cast<unsigned long long>(result.bytes),
                result.connections, result.peak_history,
                static_cast<unsigned long long>(
                    result.governor.sessions_degraded),
                static_cast<unsigned long long>(
                    result.governor.histories_collapsed));
  }
  return 0;
}
