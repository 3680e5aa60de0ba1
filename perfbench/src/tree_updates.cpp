// tree_updates: commit-to-leaf visibility through a real fbdr_node process
// tree (root -> relay -> two leaves over Unix sockets), with an in-process
// framed twin of the same tree and stream for exact wire bytes, the content
// cross-check and the traced per-layer run.

#include <unistd.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>

#include "inputs.h"
#include "netio/process_topology.h"
#include "wired_tree.h"
#include "workloads.h"

namespace perfbench {

namespace {

using fbdr::netio::ProcessTopology;

// fbdr_node's relay retry policy (NodeHost::Options::retry); the twin's
// relays must retry exactly as the processes' do.
const fbdr::net::RetryPolicy kNodeRetry{4, 1, 2.0, 16, 0};

constexpr std::size_t kBatch = 4;          // updates committed per tick
constexpr std::size_t kSettleTicks = 3;    // tree depth + 1
constexpr std::size_t kMaxDrainTicks = 16;
// Each trial runs the same rounds on a freshly set-up tree; setup_s is the
// median of the trials' set-ups. A round takes about half a millisecond on
// one CPU of a 4-vCPU host.
constexpr std::size_t kRounds = 1000;
const char* const kLeaves[2] = {"leaf1", "leaf2"};

struct TreeInputs {
  TreeFilters filters;
  std::vector<ControlOp> load;
  std::vector<std::vector<ControlOp>> stream;  // one entry per update
};

TreeInputs make_inputs(const Seeds& seeds, std::size_t updates) {
  TreeInputs inputs;
  const auto dir_config = directory_config(seeds.directory);
  const auto dir = fbdr::workload::generate_directory(dir_config);
  inputs.filters = select_tree_filters(dir, seeds);
  inputs.load = load_ops(capture_dit(*dir.master), fbdr::ldap::Dn::parse("o=ibm"));
  for (const Update& update : generate_updates(dir_config, seeds.updates, updates)) {
    inputs.stream.push_back(to_control_ops(update));
  }
  return inputs;
}

std::vector<std::string> specs(const std::vector<fbdr::ldap::Query>& queries) {
  std::vector<std::string> out;
  for (const auto& query : queries) out.push_back(query_spec(query));
  return out;
}

std::uint64_t health_value(ProcessTopology& topo, const std::string& node,
                           const std::string& key) {
  return std::stoull(topo.health(node).at(key));
}

/// Per-tick commit counts: the schedule the twin replays to ship the same
/// traffic as the process tree.
using Schedule = std::vector<std::size_t>;

/// One trial over a freshly set-up process tree.
struct ProcessRun {
  Schedule schedule;  // after setup
  std::size_t updates = 0;
  std::vector<double> round_us;       // every round: commit, tick, read leaves
  std::vector<double> visibility_ms;  // per update, in commit order
  double root_cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::map<std::string, std::vector<std::string>> leaf_keys;  // leaf|spec
  // Traced (by-hand tick) samples, in microseconds.
  std::vector<double> leaf_sync_us, relay_sync_us, root_pump_us, apply_us,
      ping_us, frames_per_round;
  double recoveries = 0.0;
};

/// Spawns the tree, loads the DIT through control-plane applies, installs
/// every relay's sessions and settles. This is the set-up setup_s times.
std::unique_ptr<ProcessTopology> start_tree(const RunConfig& config,
                                            const TreeInputs& inputs,
                                            const std::string& workdir) {
  std::filesystem::remove_all(workdir);
  std::filesystem::create_directories(workdir);
  ProcessTopology::Options options;
  options.node_binary = config.node_binary;
  options.workdir = workdir;
  options.suffix = "o=ibm";
  auto topo = std::make_unique<ProcessTopology>(options);
  topo->add_root("root");
  topo->add_relay("relay", "root", specs(inputs.filters.relay));
  topo->add_relay(kLeaves[0], "relay", specs(inputs.filters.leaves[0]));
  topo->add_relay(kLeaves[1], "relay", specs(inputs.filters.leaves[1]));
  topo->start();
  fbdr::netio::ControlClient& root = topo->control("root");
  for (const ControlOp& op : inputs.load) root.request(op.line());
  for (const char* node : {"relay", kLeaves[0], kLeaves[1]}) {
    if (topo->control(node).request("installall") != std::vector<std::string>{"1"}) {
      throw std::runtime_error(std::string("installall failed on ") + node);
    }
  }
  for (std::size_t i = 0; i < kSettleTicks; ++i) topo->tick();
  return topo;
}

double elapsed_us(std::int64_t start) {
  return static_cast<double>(now_ns() - start) / 1e3;
}

/// One round driven call by call, exactly ProcessTopology::tick(), so each
/// node's control call is timed.
void tick_by_hand(ProcessTopology& topo, ProcessRun& run) {
  topo.supervise();
  for (const char* node : {kLeaves[0], kLeaves[1], "relay"}) {
    const std::int64_t start = now_ns();
    topo.control(node).request("sync");
    (node[0] == 'l' ? run.leaf_sync_us : run.relay_sync_us)
        .push_back(elapsed_us(start));
  }
  const std::int64_t start = now_ns();
  topo.control("root").request("pump");
  run.root_pump_us.push_back(elapsed_us(start));
  topo.control("root").request("tick 1");
}

/// One trial over the process tree: each of `rounds` rounds commits a batch
/// at the root, ticks, reads each leaf's root_time and retires the updates
/// it made visible; then the tree drains.
void measure_process(const RunConfig& config, const TreeInputs& inputs,
                     ProcessTopology& topo, std::size_t rounds, ProcessRun& run,
                     Outcome& outcome) {
  const pid_t root_pid = child_processes("--name root").at(0).first;
  fbdr::netio::ControlClient& root = topo.control("root");
  std::uint64_t root_now = health_value(topo, "root", "now");
  std::uint64_t frames_before = 0;
  const auto frames = [&] {
    return health_value(topo, "root", "frames_in") +
           health_value(topo, "relay", "frames_in");
  };
  double recoveries_before = 0.0;
  for (const char* leaf : kLeaves) {
    recoveries_before += static_cast<double>(health_value(topo, leaf, "recoveries"));
  }
  if (config.trace) frames_before = frames();

  struct Pending {
    std::uint64_t logical;
    std::int64_t committed_ns;
  };
  std::deque<Pending> pending;
  const double cpu_before = process_cpu_seconds(root_pid);
  std::size_t next = 0;
  for (std::size_t round = 0;; ++round) {
    const bool committing = round < rounds && next < inputs.stream.size();
    if (!committing && pending.empty()) break;
    if (!committing && round >= rounds + kMaxDrainTicks) {
      outcome.fail(pending.size(), "updates never became visible at every leaf");
      break;
    }
    const std::int64_t round_start = now_ns();
    std::size_t batch = 0;
    if (committing) {
      for (; batch < kBatch && next < inputs.stream.size(); ++batch, ++next) {
        for (const ControlOp& op : inputs.stream[next]) {
          const std::int64_t op_start = now_ns();
          root.request(op.line());
          if (config.trace) run.apply_us.push_back(elapsed_us(op_start));
        }
        pending.push_back({root_now, now_ns()});
        outcome.attempt();
      }
    }
    run.schedule.push_back(batch);
    run.updates += batch;

    if (config.trace) {
      tick_by_hand(topo, run);
    } else {
      topo.tick();
    }
    ++root_now;
    if (config.trace) {
      const std::int64_t ping_start = now_ns();
      root.request("ping");
      run.ping_us.push_back(elapsed_us(ping_start));
    }

    std::uint64_t leaf_time = UINT64_MAX;
    for (const char* leaf : kLeaves) {
      leaf_time = std::min(leaf_time, health_value(topo, leaf, "root_time"));
    }
    const std::int64_t seen = now_ns();
    while (!pending.empty() && pending.front().logical < leaf_time) {
      run.visibility_ms.push_back(
          static_cast<double>(seen - pending.front().committed_ns) / 1e6);
      pending.pop_front();
    }
    run.round_us.push_back(elapsed_us(round_start));
  }
  run.root_cpu_s = process_cpu_seconds(root_pid) - cpu_before;
  if (config.trace) {
    run.frames_per_round.push_back(static_cast<double>(frames() - frames_before) /
                                   static_cast<double>(run.round_us.size()));
  }

  // Quiesce, then every leaf's content per filter must equal the root's.
  for (std::size_t i = 0; i < kSettleTicks; ++i) {
    topo.tick();
    run.schedule.push_back(0);
  }
  double recoveries_after = 0.0;
  for (std::size_t leaf = 0; leaf < 2; ++leaf) {
    const char* name = kLeaves[leaf];
    recoveries_after += static_cast<double>(health_value(topo, name, "recoveries"));
    for (const auto& spec : specs(inputs.filters.leaves[leaf])) {
      auto keys = topo.keys(name, spec);
      check_keys(keys, topo.keys("root", spec),
                 std::string(name) + " vs root on " + spec, outcome);
      run.leaf_keys[std::string(name) + "|" + spec] = std::move(keys);
    }
  }
  run.recoveries = recoveries_after - recoveries_before;
  if (run.recoveries != 0.0) {
    outcome.fail(static_cast<std::uint64_t>(run.recoveries),
                 "leaf sessions recovered with no fault injected");
  }
  for (const auto& [pid, cmdline] : child_processes(config.node_binary)) {
    run.peak_rss_mb += peak_rss_mb(pid);
  }
}

struct TwinRun {
  double wall_s = 0.0;  // the replayed window, set-up excluded
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;
};

/// Replays the process run's inputs and tick schedule on the in-process
/// framed twin, then checks its leaves against the process leaves and its
/// own root.
TwinRun replay_twin(const TreeInputs& inputs, const ProcessRun& process,
                    Tracer* tracer, Outcome& outcome) {
  auto root = make_node_root();
  WiredTree tree(*root, inputs.filters, /*framed=*/true, kNodeRetry, tracer);
  for (const ControlOp& op : inputs.load) op.apply(*root);
  if (!tree.install()) outcome.fail(1, "twin install_all failed");
  std::uint64_t round = 0;
  for (std::size_t i = 0; i < kSettleTicks; ++i) tree.tick(++round);
  tree.reset_traffic();

  TwinRun run;
  std::size_t next = 0;
  const std::int64_t start = now_ns();
  for (const std::size_t batch : process.schedule) {
    ScopedSpan span(tracer, "round", ++round);
    for (std::size_t k = 0; k < batch; ++k, ++next) {
      ScopedSpan apply(tracer, "server.apply", next);
      for (const ControlOp& op : inputs.stream[next]) op.apply(*root);
    }
    tree.tick(round);
  }
  run.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  run.bytes = tree.link_bytes();
  run.frames = tree.link_frames();

  for (std::size_t leaf = 0; leaf < 2; ++leaf) {
    for (const auto& query : inputs.filters.leaves[leaf]) {
      const std::string spec = query_spec(query);
      const auto keys = dn_keys(tree.node(leaf + 1).mirror().evaluate(query));
      check_keys(keys, dn_keys(root->evaluate(query)),
                 std::string("twin ") + kLeaves[leaf] + " vs twin root on " + spec,
                 outcome);
      const auto it = process.leaf_keys.find(std::string(kLeaves[leaf]) + "|" + spec);
      if (it != process.leaf_keys.end()) {
        check_keys(keys, it->second,
                   std::string("twin vs process ") + kLeaves[leaf] + " on " + spec,
                   outcome);
      }
    }
  }
  return run;
}

double mean(const std::vector<double>& values) {
  return summarize(values).mean;
}

}  // namespace

void run_tree_updates(const RunConfig& config, Report& report, Outcome& outcome) {
  const Seeds seeds = Seeds::from(config.seed);
  const TreeInputs inputs = make_inputs(seeds, kRounds * kBatch);
  report.context("leaf_filters", std::to_string(inputs.filters.leaves[0].size()) +
                                     "+" +
                                     std::to_string(inputs.filters.leaves[1].size()));
  report.context("relay_filters", std::to_string(inputs.filters.relay.size()));
  report.context("dit_entries", std::to_string(inputs.load.size() + 1));

  // The traced run is one trial on the process tree and three twin replays.
  const std::string workdir = config.out_dir + "/tree";
  std::vector<double> setups;
  std::vector<ProcessRun> trials;
  const std::int64_t start = now_ns();
  while (config.trace ? trials.empty() : more_trials(trials.size(), start, config.seconds)) {
    pin_trial(trials.size());
    auto topo = timed(setups, [&] { return start_tree(config, inputs, workdir); });
    measure_process(config, inputs, *topo, kRounds, trials.emplace_back(), outcome);
  }
  std::filesystem::remove_all(workdir);
  const ProcessRun& process = trials.front();
  for (const ProcessRun& trial : trials) {
    if (trial.schedule != process.schedule || trial.leaf_keys != process.leaf_keys) {
      outcome.fail(1, "trials of the same inputs ended in different states");
    }
  }

  const TwinRun twin = replay_twin(inputs, process, nullptr, outcome);
  const auto updates = static_cast<double>(process.updates);
  report.context("twin_frames_per_update",
                 std::to_string(static_cast<double>(twin.frames) / updates));

  if (!config.trace) {
    std::vector<std::vector<double>> visibility, round_us;
    std::vector<double> root_cpu_s, rss_mb;
    for (const ProcessRun& trial : trials) {
      visibility.push_back(trial.visibility_ms);
      round_us.push_back(trial.round_us);
      root_cpu_s.push_back(trial.root_cpu_s);
      rss_mb.push_back(trial.peak_rss_mb);
    }
    const std::vector<double> best_rounds = best_of(round_us);
    report.context("trials", std::to_string(trials.size()));
    report.add("setup_s", median(setups), "s", setups.size());
    report.add("peak_rss_mb", median(rss_mb), "MB", rss_mb.size());
    report.add_latency("visibility_ms", summarize(best_of(visibility)), "ms");
    report.add("updates_per_s", updates / (total(best_rounds) / 1e6), "1/s");
    report.add("wire_bytes_per_update", static_cast<double>(twin.bytes) / updates,
               "bytes");
    report.add("root_cpu_us_per_update", median(root_cpu_s) * 1e6 / updates, "us");
    add_op_metrics(report, best_rounds);
    return;
  }

  // The first replay warmed the process's caches; time a second one as the
  // untraced side of the overhead ratio.
  const TwinRun untraced = replay_twin(inputs, process, nullptr, outcome);
  Tracer tracer;
  const TwinRun traced = replay_twin(inputs, process, &tracer, outcome);
  add_layer_metrics(tracer, {"sync.leaf", "sync.relay", "install.leaf",
                             "install.relay"},
                    report);
  report.add("trace.overhead_frac", traced.wall_s / untraced.wall_s - 1.0, "fraction");
  write_spans(tracer, config, report);
  std::int64_t covered = 0, wall = 0;
  tracer.coverage("round", &covered, &wall);
  report.add("trace.coverage_frac",
             static_cast<double>(covered) / static_cast<double>(wall), "fraction");

  const auto fold = tracer.fold();
  const auto total_us = [&](const char* name) {
    const auto it = fold.find(name);
    return it == fold.end() || it->second.count == 0
               ? 0.0
               : static_cast<double>(it->second.total_ns) / 1e3 /
                     static_cast<double>(it->second.count);
  };
  const auto self_us = [&](const char* name) {
    const auto it = fold.find(name);
    return it == fold.end() ? 0.0 : it->second.mean_self_us();
  };
  report.add("topology.sync_self_us",
             (self_us("sync.leaf") * 2 + self_us("sync.relay")) / 3, "us");
  report.add("topology.leaf_sync_ms", mean(process.leaf_sync_us) / 1e3, "ms",
             process.leaf_sync_us.size());
  report.add("topology.relay_sync_ms", mean(process.relay_sync_us) / 1e3, "ms",
             process.relay_sync_us.size());
  report.add("topology.root_pump_ms", mean(process.root_pump_us) / 1e3, "ms",
             process.root_pump_us.size());
  report.add("topology.recoveries", process.recoveries, "count");
  report.add("netio.control_apply_us", mean(process.apply_us), "us",
             process.apply_us.size());
  report.add("netio.control_rtt_us", mean(process.ping_us), "us",
             process.ping_us.size());
  report.add("netio.sync_overhead_us",
             (mean(process.leaf_sync_us) * 2 + mean(process.relay_sync_us) -
              total_us("sync.leaf") * 2 - total_us("sync.relay")) /
                 3,
             "us");
  report.add("netio.frames_per_round", mean(process.frames_per_round), "count");
  report.add("wire.bytes_per_frame",
             static_cast<double>(traced.bytes) / static_cast<double>(traced.frames),
             "bytes");
}

}  // namespace perfbench
