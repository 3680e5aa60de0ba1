// Robustness cost curve: retry/recovery traffic overhead of the ReSync
// protocol versus transport loss rate. A fleet of replicated filters polls
// a mutating master through a FaultyPipe at increasing loss rates; the
// fault-free run (loss=0) is the baseline. Because cookies are replay-safe,
// every run converges — what changes is the wire cost of getting there:
// retransmitted polls answered from the replay cache, retries, and
// full-reload recoveries after expiries forced by backoff delays.
//
// Series:
//   entries_overhead — entries shipped / baseline entries
//   round_trips      — request attempts reaching the wire (incl. retries)
//   retries          — transport retries spent by the replicas
//   recoveries       — full-reload session recoveries
//   replays          — duplicate polls suppressed by the master

#include <cstdio>
#include <memory>
#include <vector>

#include "common.h"
#include "net/fault_injector.h"
#include "resync/replica_client.h"

int main() {
  using namespace fbdr;

  const std::vector<double> loss_rates = {0.0, 0.05, 0.10, 0.20, 0.30, 0.40};
  struct Point {
    double loss = 0;
    net::TrafficStats traffic;
    std::uint64_t retries = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t replays = 0;
  };
  std::vector<Point> points;

  for (const double loss : loss_rates) {
    workload::EnterpriseDirectory dir = bench::default_directory(8000);
    resync::ReSyncMaster master(*dir.master);
    master.set_session_time_limit(200);

    net::FaultConfig faults;
    faults.seed = 20050501;
    faults.drop_request = loss / 2;
    faults.drop_response = loss / 4;
    faults.reset = loss / 4;
    faults.duplicate = loss / 2;
    faults.reorder = 0.5;
    auto pipe = std::make_shared<net::FaultyPipe>(master, faults);
    net::FramedChannel channel(pipe);

    net::RetryPolicy retry;
    retry.max_attempts = 5;
    retry.base_backoff_ticks = 1;
    retry.max_backoff_ticks = 8;
    retry.jitter_seed = 20050501;

    std::vector<std::unique_ptr<resync::ReSyncReplica>> replicas;
    for (int block = 0; block < 8; ++block) {
      const std::string prefix = "0" + std::to_string(block);
      auto replica = std::make_unique<resync::ReSyncReplica>(
          channel, ldap::Query::parse("", ldap::Scope::Subtree,
                                      "(serialnumber=" + prefix + "*)"));
      replica->set_auto_recover(true);
      replica->set_retry_policy(retry);
      while (true) {
        try {
          replica->start(resync::Mode::Poll);
          break;
        } catch (const net::TransportError&) {
        }
      }
      replicas.push_back(std::move(replica));
    }
    master.reset_traffic();  // steady state, not the initial fill

    workload::UpdateGenerator updates(dir, {});
    for (int round = 0; round < 20; ++round) {
      updates.apply(100);
      master.pump();
      master.tick();
      for (auto& replica : replicas) {
        try {
          replica->poll();
        } catch (const net::TransportError&) {
          // Budget exhausted this round; the replica catches up later.
        }
      }
    }
    // Quiescence so every run converges before it is measured.
    pipe->set_config({faults.seed});
    pipe->flush_replays();
    master.pump();
    for (auto& replica : replicas) replica->poll();

    Point point;
    point.loss = loss;
    point.traffic = master.traffic();
    point.replays = master.replays_suppressed();
    for (const auto& replica : replicas) {
      point.retries += replica->retries();
      point.recoveries += replica->recoveries();
    }
    points.push_back(point);
  }

  bench::print_banner("ReSync traffic overhead vs transport loss rate",
                      "2000 updates, 8 replicated filters, retry budget 5");
  const double base_entries =
      static_cast<double>(points.front().traffic.entries);
  const double base_trips =
      static_cast<double>(points.front().traffic.round_trips);
  for (const Point& point : points) {
    bench::print_row("entries_overhead", point.loss,
                     static_cast<double>(point.traffic.entries) / base_entries);
    bench::print_row("round_trips_overhead", point.loss,
                     static_cast<double>(point.traffic.round_trips) / base_trips);
    bench::print_row("retries", point.loss, static_cast<double>(point.retries));
    bench::print_row("recoveries", point.loss,
                     static_cast<double>(point.recoveries));
    bench::print_row("replays_suppressed", point.loss,
                     static_cast<double>(point.replays));
  }
  return 0;
}
