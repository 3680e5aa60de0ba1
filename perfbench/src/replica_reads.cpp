// replica_reads: Table-1 reads issued with DistributedClient at the leaves
// of an in-process root -> relay -> two-leaf tree. Hits are answered from
// the leaf mirror, misses are chased by referral to the relay or the root.
// Writes sit beside the reads: every few hundred reads a batch commits and
// the tree ticks until both leaves reflect it. Every read is checked against
// the root's evaluation of the same query.

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "inputs.h"
#include "replica/filter_replica.h"
#include "server/distributed.h"
#include "topology/runtime.h"
#include "wired_tree.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kReadsPerWrite = 50;
constexpr std::size_t kWriteBatch = 50;  // as many updates as reads
// Each trial makes the same reads and writes on a freshly built tree. A
// read takes about 1.5 ms on a 4-vCPU host.
constexpr std::size_t kReads = 1000;
// Reads cycle through this trace, so after the first pass the set of
// distinct queries (and every cache keyed by it) stops growing.
constexpr std::size_t kTracePool = 4000;
constexpr std::size_t kSettleTicks = 3;
constexpr std::size_t kMaxCatchUpTicks = 16;
constexpr std::size_t kOverheadPairs = 6;  // untraced/traced segments
// A set-up takes tens of milliseconds; each trial times this many (the last
// is measured), and setup_s is the median of all of them.
constexpr std::size_t kBuildsPerTrial = 3;
const char* const kLeafUrls[2] = {"ldap://leaf1", "ldap://leaf2"};

struct Inputs {
  DitImage dit;
  TreeFilters filters;
  std::vector<fbdr::workload::GeneratedQuery> reads;
  std::vector<Update> stream;
};

/// The tree the reads run against: TopologyRuntime for the end-to-end run,
/// or the hand-wired WiredTree whose links and servers can be traced.
class ReadTree {
 public:
  virtual ~ReadTree() = default;
  virtual void tick() = 0;
  virtual std::uint64_t leaf_root_time() const = 0;
  virtual std::uint64_t root_now() = 0;
  virtual void apply(const Update& update, std::size_t id) = 0;
  virtual const fbdr::server::ServerMap& servers() const = 0;
  virtual fbdr::server::DirectoryServer& root() = 0;
};

class RuntimeTree final : public ReadTree {
 public:
  explicit RuntimeTree(const Inputs& inputs)
      : store_(load_dit(inputs.dit)), runtime_(store_, {}) {
    runtime_.add_node("relay", "", inputs.filters.relay);
    runtime_.add_node("leaf1", "relay", inputs.filters.leaves[0]);
    runtime_.add_node("leaf2", "relay", inputs.filters.leaves[1]);
    if (!runtime_.install()) throw std::runtime_error("TopologyRuntime install failed");
    for (std::size_t i = 0; i < kSettleTicks; ++i) runtime_.tick();
    servers_ = runtime_.server_map();
  }
  void tick() override { runtime_.tick(); }
  std::uint64_t leaf_root_time() const override {
    return std::min(runtime_.node("leaf1").root_time(),
                    runtime_.node("leaf2").root_time());
  }
  std::uint64_t root_now() override { return runtime_.root_master().now(); }
  void apply(const Update& update, std::size_t) override {
    apply_update(*store_, update);
  }
  const fbdr::server::ServerMap& servers() const override { return servers_; }
  fbdr::server::DirectoryServer& root() override { return *store_; }

 private:
  std::shared_ptr<fbdr::server::DirectoryServer> store_;
  fbdr::topology::TopologyRuntime runtime_;
  fbdr::server::ServerMap servers_;
};

class HandWiredTree final : public ReadTree {
 public:
  HandWiredTree(const Inputs& inputs, Tracer* tracer)
      : store_(load_dit(inputs.dit)),
        tracer_(tracer),
        // TopologyRuntime's defaults: direct links, no retries.
        tree_(*store_, inputs.filters, /*framed=*/false,
              fbdr::net::RetryPolicy{}, tracer) {
    if (!tree_.install()) throw std::runtime_error("hand-wired install failed");
    for (std::size_t i = 0; i < kSettleTicks; ++i) tree_.tick(round_++);
    add_server(std::shared_ptr<fbdr::server::SearchEndpoint>(
                   store_.get(), [](fbdr::server::SearchEndpoint*) {}),
               "search.root");
    for (std::size_t i = 0; i < WiredTree::kNodes; ++i) {
      add_server(std::shared_ptr<fbdr::server::SearchEndpoint>(
                     &tree_.node(i), [](fbdr::server::SearchEndpoint*) {}),
                 i == 0 ? "search.relay" : "search.leaf");
    }
  }
  void tick() override { tree_.tick(round_++); }
  std::uint64_t leaf_root_time() const override { return tree_.leaf_root_time(); }
  std::uint64_t root_now() override { return tree_.root_master().now(); }
  void apply(const Update& update, std::size_t id) override {
    ScopedSpan span(tracer_, "server.apply", id);
    apply_update(*store_, update);
  }
  const fbdr::server::ServerMap& servers() const override { return servers_; }
  fbdr::server::DirectoryServer& root() override { return *store_; }

 private:
  void add_server(std::shared_ptr<fbdr::server::SearchEndpoint> server,
                  const char* span) {
    if (tracer_) {
      server = std::make_shared<TracingSearchEndpoint>(*server, *tracer_, span);
      keep_.push_back(server);
    } else {
      keep_.push_back(server);
    }
    servers_.add(server);
  }

  std::shared_ptr<fbdr::server::DirectoryServer> store_;
  Tracer* tracer_;
  WiredTree tree_;
  std::uint64_t round_ = 0;
  fbdr::server::ServerMap servers_;
  std::vector<std::shared_ptr<fbdr::server::SearchEndpoint>> keep_;
};

/// One trial: its reads and the writes beside them, each in issue order.
struct ReadRun {
  std::vector<double> read_us;
  std::vector<double> visibility_ms;
  std::vector<double> write_us;  // per batch: commit and catch the leaves up
  std::vector<bool> hit;  // per read id
  std::uint64_t round_trips = 0;
  std::uint64_t entries = 0;
  std::vector<double> containment_us;
};

/// FNV-1a over a read's sorted DN keys.
std::uint64_t digest(const std::vector<std::string>& keys) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::string& key : keys) {
    for (const char c : key + '\n') {
      hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
  }
  return hash;
}

/// One trial on a freshly set-up `tree`: `reads` reads, with the update
/// stream committed from its start beside them. A read whose answer is not
/// yet in `answers` is checked against the root's evaluation and its digest
/// recorded; later trials, which make the same reads on the same states,
/// must match that digest. `containment` (traced run) times
/// FilterReplica::handle on replicas holding each leaf's filters.
ReadRun run_reads(ReadTree& tree, const Inputs& inputs, std::size_t reads,
                  Tracer* tracer, fbdr::replica::FilterReplica* containment,
                  std::vector<std::uint64_t>& answers, Outcome& outcome) {
  ReadRun run;
  fbdr::server::DistributedClient client(tree.servers());
  std::size_t next_update = 0;
  for (std::size_t i = 0; i < reads; ++i) {
    if (i > 0 && i % kReadsPerWrite == 0 && next_update < inputs.stream.size()) {
      // Writes beside the reads: commit, then tick until both leaves
      // reflect the batch. Not counted in read latency.
      const std::int64_t write_start = now_ns();
      const std::uint64_t logical = tree.root_now();
      std::vector<std::int64_t> committed;
      for (std::size_t k = 0; k < kWriteBatch && next_update < inputs.stream.size();
           ++k, ++next_update) {
        tree.apply(inputs.stream[next_update], next_update);
        committed.push_back(now_ns());
        outcome.attempt();
      }
      std::size_t ticks = 0;
      while (tree.leaf_root_time() <= logical && ticks++ < kMaxCatchUpTicks) {
        tree.tick();
      }
      const std::int64_t visible = now_ns();
      if (tree.leaf_root_time() <= logical) {
        outcome.fail(committed.size(), "leaves did not catch up with a write batch");
      }
      for (const std::int64_t t : committed) {
        run.visibility_ms.push_back(static_cast<double>(visible - t) / 1e6);
      }
      run.write_us.push_back(static_cast<double>(visible - write_start) / 1e3);
    }

    const fbdr::workload::GeneratedQuery& read = inputs.reads[i % inputs.reads.size()];
    const std::size_t leaf = i % 2;
    const std::uint64_t trips_before = client.stats().round_trips;
    std::vector<fbdr::ldap::EntryPtr> entries;
    const std::int64_t t0 = now_ns();
    try {
      ScopedSpan span(tracer, "read", i);
      entries = client.search(kLeafUrls[leaf], read.query);
    } catch (const std::exception& e) {
      outcome.fail(1, std::string("read: ") + e.what());
    }
    const std::int64_t t1 = now_ns();
    run.read_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    const std::uint64_t trips = client.stats().round_trips - trips_before;
    run.round_trips += trips;
    run.entries += entries.size();
    run.hit.push_back(trips == 1);
    if (containment) {
      // After the read, so the probe does not warm anything the read uses.
      const std::int64_t probe = now_ns();
      containment[leaf].handle(read.query);
      run.containment_us.push_back(static_cast<double>(now_ns() - probe) / 1e3);
    }
    outcome.attempt();
    const std::uint64_t got = digest(dn_keys(entries));
    if (i == answers.size()) {
      answers.push_back(digest(dn_keys(tree.root().evaluate(read.query))));
    }
    if (got != answers[i]) {
      outcome.fail(1, "read " + std::to_string(i) + " differs from the root: " +
                          read.query.filter->to_string());
    }
  }
  return run;
}

double hit_ratio(const std::vector<bool>& hit) {
  const auto hits = std::count(hit.begin(), hit.end(), true);
  return static_cast<double>(hits) / static_cast<double>(hit.size());
}

}  // namespace

void run_replica_reads(const RunConfig& config, Report& report, Outcome& outcome) {
  const Seeds seeds = Seeds::from(config.seed);
  Inputs inputs;
  const auto dir_config = directory_config(seeds.directory);
  {
    const auto dir = fbdr::workload::generate_directory(dir_config);
    inputs.dit = capture_dit(*dir.master);
    inputs.filters = select_tree_filters(dir, seeds);
    inputs.reads = read_trace(dir, seeds.reads, kTracePool);
  }
  // Every trial replays the stream from its start.
  const std::size_t reads = kReads;
  inputs.stream = generate_updates(dir_config, seeds.updates,
                                   reads / kReadsPerWrite * kWriteBatch + kWriteBatch);
  std::vector<std::uint64_t> answers;  // per read, from the first trial

  if (!config.trace) {
    const double baseline_mb = reset_peak_rss();
    // Each trial runs on a freshly built tree, so set-ups are sampled across
    // the whole run like every other timing, and one tree is alive at a time.
    std::vector<double> setups;
    std::vector<std::vector<double>> visibility, read_us, write_us;
    std::vector<bool> hit;
    std::size_t trials = 0;
    const std::int64_t start = now_ns();
    for (; more_trials(trials, start, config.seconds); ++trials) {
      pin_trial(trials);
      std::unique_ptr<RuntimeTree> tree;
      for (std::size_t build = 0; build < kBuildsPerTrial; ++build) {
        tree.reset();
        tree = timed(setups, [&] { return std::make_unique<RuntimeTree>(inputs); });
      }
      ReadRun run = run_reads(*tree, inputs, reads, nullptr, nullptr, answers, outcome);
      visibility.push_back(std::move(run.visibility_ms));
      read_us.push_back(std::move(run.read_us));
      write_us.push_back(std::move(run.write_us));
      if (trials == 0) hit = run.hit;
    }
    const std::vector<double> best_reads = best_of(read_us);
    const std::vector<double> best_visibility = best_of(visibility);
    report.context("trials", std::to_string(trials));
    report.add("setup_s", median(setups), "s", setups.size());
    report.add("peak_rss_mb", peak_rss_mb(::getpid()) - baseline_mb, "MB");
    report.add_latency("visibility_ms", summarize(best_visibility), "ms");
    report.add("updates_per_s",
               static_cast<double>(best_visibility.size()) /
                   (total(best_of(write_us)) / 1e6),
               "1/s");
    report.add_latency("read_us", summarize(best_reads), "us");
    report.add("reads_per_s",
               static_cast<double>(best_reads.size()) / (total(best_reads) / 1e6), "1/s");
    report.add("hit_ratio", hit_ratio(hit), "fraction", hit.size());
    add_op_metrics(report, best_reads);
    return;
  }

  // Identical work untraced and traced, in alternating short segments on
  // fresh hand-wired trees, so that both sides see the same host: its speed
  // moves by a fifth between consecutive stretches of a few seconds, more
  // than the overhead being measured. The ratio of their summed wall times
  // is the tracing overhead. A first untraced trial warms the process and
  // records the answers every segment is checked against.
  {
    HandWiredTree warm(inputs, nullptr);
    run_reads(warm, inputs, reads, nullptr, nullptr, answers, outcome);
  }
  const std::size_t segment_reads = std::max<std::size_t>(1, reads / kOverheadPairs);
  Tracer tracer;
  fbdr::replica::FilterReplica containment[2];
  for (std::size_t leaf = 0; leaf < 2; ++leaf) {
    for (const auto& query : inputs.filters.leaves[leaf]) {
      containment[leaf].add_query(query);
    }
  }
  double untraced_s = 0.0, traced_s = 0.0;
  ReadRun traced;  // every traced segment makes the same reads; the last is kept
  std::vector<double> containment_us;
  for (std::size_t pair = 0; pair < kOverheadPairs; ++pair) {
    {
      HandWiredTree tree(inputs, nullptr);
      const std::int64_t start = now_ns();
      run_reads(tree, inputs, segment_reads, nullptr, nullptr, answers, outcome);
      untraced_s += static_cast<double>(now_ns() - start) / 1e9;
    }
    HandWiredTree tree(inputs, &tracer);
    const std::int64_t start = now_ns();
    traced = run_reads(tree, inputs, segment_reads, &tracer, containment, answers, outcome);
    // The containment probe is timed outside the traced wall time.
    double probe_us = 0.0;
    for (const double us : traced.containment_us) probe_us += us;
    traced_s += static_cast<double>(now_ns() - start) / 1e9 - probe_us / 1e6;
    containment_us.insert(containment_us.end(), traced.containment_us.begin(),
                          traced.containment_us.end());
  }

  add_layer_metrics(tracer, {"sync.leaf", "sync.relay", "install.leaf",
                             "install.relay"},
                    report);
  report.add("trace.overhead_frac", traced_s / untraced_s - 1.0, "fraction");
  write_spans(tracer, config, report);
  report.add("containment.check_us", summarize(containment_us).mean, "us",
             containment_us.size());

  // Leaf search time on hits, root search time on chased misses.
  std::vector<double> local, root;
  for (const Span& span : tracer.spans()) {
    const std::string name = span.name;
    const auto us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    if (name == "search.leaf" && traced.hit.at(span.request)) {
      local.push_back(us);
    } else if (name == "search.root") {
      root.push_back(us);
    }
  }
  report.add("replica.local_read_us", summarize(local).mean, "us", local.size());
  report.add("replica.root_read_us", summarize(root).mean, "us", root.size());
  const auto traced_reads = static_cast<double>(traced.hit.size());
  report.add("replica.hops_per_read",
             static_cast<double>(traced.round_trips) / traced_reads, "count");
  report.add("replica.entries_per_read",
             static_cast<double>(traced.entries) / traced_reads, "count");
  report.add("hit_ratio", hit_ratio(traced.hit), "fraction", traced.hit.size());
}

}  // namespace perfbench
