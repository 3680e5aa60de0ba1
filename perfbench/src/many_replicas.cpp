// many_replicas: one in-process ReSyncMaster over the enterprise DIT serving
// thousands of ReSyncReplica clients, each on its own FramedChannel over an
// EndpointPipe. Three phases are timed apart: install (every replica
// start()s), steady (commit a batch, pump, every replica polls) and
// recovery (the master resets, a batch commits, every replica heals).

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "inputs.h"
#include "resync/replica_client.h"
#include "sync/content_tracker.h"
#include "wired_tree.h"
#include "workloads.h"

namespace perfbench {

namespace {

using fbdr::resync::ReSyncReplica;

constexpr std::size_t kReplicas = 1200;  // per cycle
// A world build takes tens of milliseconds; each cycle times this many, and
// setup_s is the median of all of them.
constexpr std::size_t kBuildsPerCycle = 4;
constexpr std::size_t kBatch = 20;  // updates committed per steady round
constexpr std::size_t kRounds = 50;  // steady rounds per cycle: 1000 updates

struct Inputs {
  DitImage dit;
  std::vector<fbdr::ldap::Query> filters;
  std::vector<Update> stream;
};

/// The system under test: the master DIT, the master, and every replica
/// with its own framed link.
struct World {
  std::shared_ptr<fbdr::server::DirectoryServer> store;
  std::unique_ptr<fbdr::resync::ReSyncMaster> master;
  std::unique_ptr<LinkFactory> links;
  std::vector<Link> replica_links;
  std::vector<std::unique_ptr<ReSyncReplica>> replicas;
  std::uint64_t pumped_seq = 0;
};

std::unique_ptr<World> build_world(const Inputs& inputs, Tracer* tracer) {
  auto world = std::make_unique<World>();
  world->store = load_dit(inputs.dit);
  world->master = std::make_unique<fbdr::resync::ReSyncMaster>(*world->store);
  world->pumped_seq = world->store->journal().last_seq();
  world->links = std::make_unique<LinkFactory>(tracer);
  for (const fbdr::ldap::Query& filter : inputs.filters) {
    world->replica_links.push_back(world->links->make(*world->master, true));
    world->replicas.push_back(std::make_unique<ReSyncReplica>(
        *world->replica_links.back().channel, filter));
    // Recovery is the phase under test: a stale cookie must heal, not throw.
    world->replicas.back()->set_auto_recover(true);
  }
  return world;
}

struct Phases {
  std::vector<double> install_us;     // per replica
  std::vector<double> visibility_ms;  // per update, in commit order
  std::vector<double> round_us;       // per steady round
  std::vector<double> recover_us;     // per replica
  double install_s = 0.0;
  double steady_s = 0.0;
  double recovery_s = 0.0;
  std::size_t rounds = 0;
  std::size_t updates = 0;
  std::uint64_t steady_bytes = 0;
  std::uint64_t reconciles = 0, full_reloads = 0, shipped = 0;
};

std::uint64_t link_bytes(const World& world) {
  std::uint64_t bytes = 0;
  for (const Link& link : world.replica_links) bytes += link.framed->traffic().bytes;
  return bytes;
}

/// Every replica's content must equal a fresh ContentTracker over the
/// master DIT (computed once per distinct filter).
void check_content(const World& world, const Inputs& inputs, const char* phase,
                   Outcome& outcome) {
  std::map<std::string, std::vector<std::string>> truth;
  std::size_t diverged = 0;
  for (std::size_t i = 0; i < world.replicas.size(); ++i) {
    const fbdr::ldap::Query& query = inputs.filters[i];
    auto [it, fresh] = truth.try_emplace(query.key());
    if (fresh) {
      fbdr::sync::ContentTracker tracker(query);
      tracker.initialize(world.store->dit());
      it->second = tracker.content_keys();
    }
    if (world.replicas[i]->content().keys() != it->second) ++diverged;
  }
  if (diverged > 0) {
    outcome.fail(diverged, std::to_string(diverged) + " replicas diverged after " +
                               phase);
  }
}

void commit(World& world, const Inputs& inputs, std::size_t& next,
            std::vector<std::int64_t>& committed, Tracer* tracer,
            Outcome& outcome) {
  for (std::size_t k = 0; k < kBatch && next < inputs.stream.size(); ++k, ++next) {
    ScopedSpan span(tracer, "server.apply", next);
    apply_update(*world.store, inputs.stream[next]);
    committed.push_back(now_ns());
    outcome.attempt();
  }
}

/// Runs the three phases, with `rounds` steady rounds.
Phases run_phases(World& world, const Inputs& inputs, std::size_t rounds,
                  Tracer* tracer, Outcome& outcome) {
  Phases phases;
  std::int64_t start = now_ns();
  for (std::size_t i = 0; i < world.replicas.size(); ++i) {
    const std::int64_t t0 = now_ns();
    try {
      ScopedSpan span(tracer, "replica.start", i);
      world.replicas[i]->start();
    } catch (const std::exception& e) {
      outcome.fail(1, std::string("start: ") + e.what());
    }
    phases.install_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    outcome.attempt();
  }
  phases.install_s = static_cast<double>(now_ns() - start) / 1e9;

  std::size_t next = 0;
  const std::uint64_t bytes_before = link_bytes(world);
  start = now_ns();
  std::vector<std::int64_t> committed;
  while (phases.rounds < rounds && next < inputs.stream.size()) {
    committed.clear();
    const std::int64_t round_start = now_ns();
    {
      ScopedSpan span(tracer, "round", phases.rounds);
      commit(world, inputs, next, committed, tracer, outcome);
      traced_pump(*world.master, *world.store, world.pumped_seq, tracer);
      for (std::size_t i = 0; i < world.replicas.size(); ++i) {
        try {
          ScopedSpan poll(tracer, "replica.poll", i);
          world.replicas[i]->poll();
        } catch (const std::exception& e) {
          outcome.fail(1, std::string("poll: ") + e.what());
        }
      }
    }
    const std::int64_t visible = now_ns();
    for (const std::int64_t t : committed) {
      phases.visibility_ms.push_back(static_cast<double>(visible - t) / 1e6);
    }
    phases.round_us.push_back(static_cast<double>(visible - round_start) / 1e3);
    phases.updates += committed.size();
    ++phases.rounds;
  }
  phases.steady_s = static_cast<double>(now_ns() - start) / 1e9;
  phases.steady_bytes = link_bytes(world) - bytes_before;
  check_content(world, inputs, "the steady phase", outcome);

  // Recovery: every session is lost at the master while updates continue.
  world.master->reset();
  commit(world, inputs, next, committed, tracer, outcome);
  traced_pump(*world.master, *world.store, world.pumped_seq, tracer);
  start = now_ns();
  for (std::size_t i = 0; i < world.replicas.size(); ++i) {
    const std::int64_t t0 = now_ns();
    try {
      ScopedSpan span(tracer, "replica.recover", i);
      world.replicas[i]->poll();
    } catch (const std::exception& e) {
      outcome.fail(1, std::string("recovering poll: ") + e.what());
    }
    phases.recover_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    outcome.attempt();
  }
  phases.recovery_s = static_cast<double>(now_ns() - start) / 1e9;
  check_content(world, inputs, "recovery", outcome);
  std::size_t unhealed = 0;
  for (const auto& replica : world.replicas) {
    phases.reconciles += replica->reconciles();
    phases.full_reloads += replica->full_reloads();
    phases.shipped += replica->reconcile_entries_shipped();
    if (replica->recoveries() != 1 ||
        replica->recoveries() != replica->full_reloads() + replica->reconciles()) {
      ++unhealed;
    }
  }
  if (unhealed > 0) {
    outcome.fail(unhealed, std::to_string(unhealed) +
                               " replicas broke recoveries == full_reloads + "
                               "reconciles == 1");
  }
  return phases;
}

}  // namespace

void run_many_replicas(const RunConfig& config, Report& report, Outcome& outcome) {
  const Seeds seeds = Seeds::from(config.seed);
  Inputs inputs;
  const auto dir_config = directory_config(seeds.directory);
  {
    const auto dir = fbdr::workload::generate_directory(dir_config);
    inputs.dit = capture_dit(*dir.master);
    inputs.filters = replica_filters(dir, seeds.replicas, kReplicas);
  }
  // Every cycle replays the stream from its start on a fresh DIT.
  inputs.stream = generate_updates(dir_config, seeds.updates, (kRounds + 1) * kBatch);
  const double baseline_mb = reset_peak_rss();
  std::map<std::string, int> distinct;
  for (const auto& filter : inputs.filters) ++distinct[filter.key()];
  report.context("replicas", std::to_string(kReplicas));
  report.context("distinct_filters", std::to_string(distinct.size()));

  // Each cycle builds fresh worlds (the set-ups; the last one is measured)
  // and runs the same three phases on it, so every operation is timed once
  // per cycle and its best cycle counts; setup_s is the median build.
  // Cycles repeat until --seconds have passed. The
  // traced run measures one cycle's work three times: untraced to warm the
  // process, untraced again, then traced, so the tracing overhead is the
  // wall-time ratio of identical work on equally warm caches.
  std::vector<double> setup_s, bytes_per_update;
  std::vector<std::vector<double>> visibility, install, round_us, recover_us;
  std::unique_ptr<World> world;
  Phases phases;
  const std::int64_t start = now_ns();
  for (std::size_t cycle = 0;
       config.trace ? cycle < 2 : more_trials(cycle, start, config.seconds); ++cycle) {
    pin_trial(cycle);
    for (std::size_t build = 0; build < kBuildsPerCycle; ++build) {
      world.reset();
      world = timed(setup_s, [&] { return build_world(inputs, nullptr); });
    }
    phases = run_phases(*world, inputs, kRounds, nullptr, outcome);
    visibility.push_back(phases.visibility_ms);
    install.push_back(phases.install_us);
    round_us.push_back(phases.round_us);
    recover_us.push_back(phases.recover_us);
    bytes_per_update.push_back(static_cast<double>(phases.steady_bytes) /
                               static_cast<double>(phases.updates));
    report.context("cycle" + std::to_string(cycle),
                   "rounds=" + std::to_string(phases.rounds) +
                       " reconciles=" + std::to_string(phases.reconciles) +
                       " full_reloads=" + std::to_string(phases.full_reloads));
  }

  if (!config.trace) {
    const std::vector<double> installs = best_of(install);
    report.add("setup_s", median(setup_s), "s", setup_s.size());
    report.add("peak_rss_mb", peak_rss_mb(::getpid()) - baseline_mb, "MB");
    report.add_latency("visibility_ms", summarize(best_of(visibility)), "ms");
    report.add("updates_per_s",
               static_cast<double>(phases.updates) / (total(best_of(round_us)) / 1e6),
               "1/s");
    report.add_latency("install_ms", summarize(installs), "ms", 1e-3);
    report.add("recovery_s", total(best_of(recover_us)) / 1e6, "s");
    report.add("wire_bytes_per_update", median(bytes_per_update), "bytes");
    add_op_metrics(report, installs);
    return;
  }
  const double untraced_wall = phases.install_s + phases.steady_s + phases.recovery_s;

  world.reset();
  Tracer tracer;
  world = build_world(inputs, &tracer);
  const Phases traced = run_phases(*world, inputs, kRounds, &tracer, outcome);
  add_layer_metrics(tracer, {"replica.start", "replica.poll"}, report);
  write_spans(tracer, config, report);
  report.add("trace.overhead_frac",
             (traced.install_s + traced.steady_s + traced.recovery_s) /
                     untraced_wall -
                 1.0,
             "fraction");
  const auto fold = tracer.fold();
  const auto it = fold.find("replica.recover");
  if (it != fold.end()) {
    report.add("sync.recover_us",
               static_cast<double>(it->second.total_ns) / 1e3 /
                   static_cast<double>(it->second.count),
               "us", it->second.count);
  }
  report.add("sync.reconciles", static_cast<double>(traced.reconciles), "count");
  report.add("sync.full_reloads", static_cast<double>(traced.full_reloads), "count");
  report.add("sync.reconcile_entries_shipped", static_cast<double>(traced.shipped),
             "count");
  std::uint64_t bytes = 0, frames = 0;
  for (const Link& link : world->replica_links) {
    bytes += link.framed->traffic().bytes;
    frames += link.framed->traffic().frames;
  }
  report.add("wire.bytes_per_frame",
             static_cast<double>(bytes) / static_cast<double>(frames), "bytes");
}

}  // namespace perfbench
