// Depth-3 cascade chaos test: a root master feeding two depth-1 relays,
// four depth-2 relays and eight leaves, every link a FramedChannel over a
// seeded FaultyPipe (drop, duplicate, reorder, delay, reset — plus bit
// corruption and truncation on the corrupting schedules), with a mid-tree
// relay crash and restart in the schedule. A fault-free twin tree receives
// the identical mutation stream over DirectChannels. After quiescence every node's
// replicated content must equal the twin's and the master truth exactly —
// multi-hop cookie lineage (epoch bumps cascading StaleCookieError down the
// tree) is what makes that convergence possible.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/replication_service.h"
#include "ldap/error.h"
#include "net/fault_injector.h"
#include "net/framed_channel.h"
#include "resync/replica_client.h"
#include "sync/content_tracker.h"
#include "topology/runtime.h"
#include "wire/codec.h"
#include "workload/directory_gen.h"

namespace fbdr::topology {
namespace {

using ldap::Dn;
using ldap::make_entry;
using ldap::Query;
using ldap::Scope;
using server::Modification;

// Serials are 3 bits + 2 free digits: bit prefixes give a balanced binary
// containment tree ((serialnumber=000*) ⊆ (serialnumber=00*) ⊆
// (serialnumber=0*)) with 8 leaf groups.
const std::vector<std::string> kBits1 = {"0", "1"};
const std::vector<std::string> kBits2 = {"00", "01", "10", "11"};
const std::vector<std::string> kBits3 = {"000", "001", "010", "011",
                                         "100", "101", "110", "111"};

std::string serial_of(int group, int rank) {
  return kBits3[static_cast<std::size_t>(group)] +
         (rank < 10 ? "0" : "") + std::to_string(rank);
}

std::shared_ptr<server::DirectoryServer> make_master(const std::string& url) {
  auto master = std::make_shared<server::DirectoryServer>(url);
  master->add_context({Dn::parse("o=xyz"), {}});
  master->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  for (int group = 0; group < 8; ++group) {
    for (int rank = 0; rank < 6; ++rank) {
      const std::string serial = serial_of(group, rank);
      master->load(make_entry("cn=e" + serial + ",o=xyz",
                              {{"objectclass", "person"},
                               {"serialnumber", serial},
                               {"mail", "e" + serial + "@xyz.com"}}));
    }
  }
  return master;
}

Query serial_query(const std::string& prefix) {
  return Query::parse("o=xyz", Scope::Subtree,
                      "(serialnumber=" + prefix + "*)");
}

/// root -> d1-<b> -> d2-<bb> -> leaf-<bbb>, one filter per node.
void build_tree(TopologyRuntime& runtime) {
  for (const std::string& bits : kBits1) {
    runtime.add_node("d1-" + bits, "", {serial_query(bits)});
  }
  for (const std::string& bits : kBits2) {
    runtime.add_node("d2-" + bits, "d1-" + bits.substr(0, 1),
                     {serial_query(bits)});
  }
  for (const std::string& bits : kBits3) {
    runtime.add_node("leaf-" + bits, "d2-" + bits.substr(0, 2),
                     {serial_query(bits)});
  }
}

/// One operation applied identically to both masters.
void mutate_both(std::mt19937& rng, int& next_rank,
                 server::DirectoryServer& faulty, server::DirectoryServer& twin) {
  const int op = std::uniform_int_distribution<int>(0, 99)(rng);
  const int group = std::uniform_int_distribution<int>(0, 7)(rng);
  const int rank = std::uniform_int_distribution<int>(0, 59)(rng);
  const std::string serial = serial_of(group, rank % 100);
  const Dn target = Dn::parse("cn=e" + serial + ",o=xyz");
  const auto apply = [&](server::DirectoryServer& master) {
    try {
      if (op < 30) {
        const std::string fresh = serial_of(group, 6 + next_rank % 94);
        master.add(make_entry("cn=e" + fresh + ",o=xyz",
                              {{"objectclass", "person"},
                               {"serialnumber", fresh},
                               {"mail", "e" + fresh + "@xyz.com"}}));
      } else if (op < 55) {
        master.remove(target);
      } else {
        master.modify(target, {{Modification::Op::Replace,
                                "mail",
                                {"m" + std::to_string(next_rank) + "@x.com"}}});
      }
    } catch (const ldap::OperationError&) {
      // Missing/duplicate random target: identical noise on both masters.
    }
  };
  apply(faulty);
  apply(twin);
  ++next_rank;
}

std::vector<std::string> master_truth(const server::DirectoryServer& master,
                                      const Query& query) {
  sync::ContentTracker tracker(query);
  tracker.initialize(master.dit());
  return tracker.content_keys();
}

std::vector<std::string> mirror_keys(const RelayNode& node, const Query& query) {
  std::vector<std::string> keys;
  for (const ldap::EntryPtr& entry : node.mirror().evaluate(query)) {
    keys.push_back(entry->dn().norm_key());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

struct ChaosSchedule {
  std::uint64_t seed;
  net::FaultConfig faults;
  std::string crash_node;  // mid-tree relay crashed at crash_step
  int crash_step;
  int restart_step;

  bool damages_bytes() const {
    return faults.corrupt > 0.0 || faults.truncate > 0.0;
  }
  std::string name() const {
    return (damages_bytes() ? "corrupt_seed" : "lossy_seed") +
           std::to_string(seed);
  }
};

// gtest prints parameters into the test listing; without this it would
// dump the struct's raw bytes, heap pointers included.
void PrintTo(const ChaosSchedule& schedule, std::ostream* os) {
  *os << schedule.name();
  if (schedule.crash_step < 0) {
    *os << " no crash";
  } else {
    *os << " crash " << schedule.crash_node << " " << schedule.crash_step
        << ".." << schedule.restart_step;
  }
}

class TopologyChaos : public ::testing::TestWithParam<ChaosSchedule> {};

TEST_P(TopologyChaos, Depth3TreeConvergesToFaultFreeTwin) {
  const ChaosSchedule schedule = GetParam();

  auto faulty_master = make_master("ldap://root");
  auto twin_master = make_master("ldap://root");

  TopologyRuntime::Options faulty_options;
  faulty_options.faults = schedule.faults;
  faulty_options.retry.max_attempts = 4;
  faulty_options.retry.base_backoff_ticks = 1;
  faulty_options.retry.max_backoff_ticks = 6;
  faulty_options.retry.jitter_seed = schedule.seed;
  faulty_options.session_time_limit = 60;
  TopologyRuntime faulty(faulty_master, faulty_options);
  faulty.root_master().set_session_time_limit(60);

  TopologyRuntime::Options twin_options;
  twin_options.session_time_limit = 60;
  TopologyRuntime twin(twin_master, twin_options);
  twin.root_master().set_session_time_limit(60);

  build_tree(faulty);
  build_tree(twin);
  // Lossy install is allowed to leave sessions degraded; they must heal
  // during the run. The twin installs cleanly by construction.
  faulty.install();
  ASSERT_TRUE(twin.install());

  const std::uint64_t epoch_before =
      schedule.crash_step >= 0 ? faulty.node(schedule.crash_node).epoch() : 0;

  std::mt19937 rng(static_cast<unsigned>(schedule.seed));
  int next_rank = 0;
  for (int step = 0; step < 200; ++step) {
    mutate_both(rng, next_rank, *faulty_master, *twin_master);
    if (step == schedule.crash_step) faulty.crash_node(schedule.crash_node);
    if (step == schedule.restart_step) faulty.restart_node(schedule.crash_node);
    faulty.tick();
    twin.tick();
  }

  // Quiescence: links go clean, stray in-flight duplicates drain, the tree
  // runs enough clean rounds for every recovery to cascade to the leaves.
  net::FaultConfig clean;
  clean.seed = schedule.faults.seed;
  for (const std::string& name : faulty.node_names()) {
    net::FaultyPipe* pipe = faulty.fault_pipe(name);
    ASSERT_NE(pipe, nullptr) << name << " lost its fault pipe";
    pipe->set_config(clean);
    pipe->flush_replays();
  }
  for (int round = 0; round < 12; ++round) {
    faulty.tick();
    twin.tick();
  }

  // Exact convergence, every node against the twin and the master truth.
  std::uint64_t faults_seen = 0;
  std::uint64_t damaged = 0;
  for (const std::string& name : faulty.node_names()) {
    const RelayNode& node = faulty.node(name);
    const RelayNode& twin_node = twin.node(name);
    ASSERT_EQ(node.filter_count(), 1u);
    const Query& query = node.filter_replica().query_at(0);
    const auto faulty_keys = mirror_keys(node, query);
    EXPECT_EQ(faulty_keys, master_truth(*faulty_master, query))
        << name << " diverged from master truth (" << schedule.name() << ")";
    EXPECT_EQ(faulty_keys, mirror_keys(twin_node, query))
        << name << " diverged from its fault-free twin (" << schedule.name()
        << ")";
    const net::FaultCounters& counters = faulty.fault_pipe(name)->counters();
    faults_seen += counters.faults();
    damaged += counters.corrupted + counters.truncated;
  }

  // The schedule must actually have hurt.
  EXPECT_GT(faults_seen, 0u) << "fault schedule was a no-op";
  if (schedule.damages_bytes()) {
    EXPECT_GT(damaged, 0u)
        << "corrupting schedule damaged no frames (" << schedule.name() << ")";
  }
  for (const NodeHealth& health : faulty.health()) {
    EXPECT_FALSE(health.down) << health.name;
    EXPECT_FALSE(health.degraded) << health.name << " still degraded";
    // Recovery-mode split (DESIGN.md §12): every recovery is exactly one
    // full reload or one digest walk.
    EXPECT_EQ(health.recoveries, health.full_reloads + health.reconciles)
        << health.name << " recovered without a reload or a walk";
  }
  if (schedule.crash_step >= 0) {
    // The restarted relay advanced its epoch, and the stale-cookie cascade
    // forced full-reload recoveries below it.
    EXPECT_GT(faulty.node(schedule.crash_node).epoch(), epoch_before)
        << "restart must bump the relay epoch";
    std::uint64_t downstream_recoveries = 0;
    for (const std::string& name : faulty.node_names()) {
      if (faulty.parent_of(name) == schedule.crash_node) {
        downstream_recoveries += faulty.node(name).upstream_total().recoveries;
      }
    }
    EXPECT_GT(downstream_recoveries, 0u)
        << "children of the restarted relay never recovered";
  }
}

net::FaultConfig lossy(std::uint64_t seed) {
  net::FaultConfig config;
  config.seed = seed;
  config.drop_request = 0.08;
  config.drop_response = 0.08;
  config.duplicate = 0.15;
  config.reorder = 0.40;
  config.reset = 0.08;
  config.delay = 0.10;
  config.max_delay_ticks = 3;
  return config;
}

/// lossy() plus the byte faults: damaged frames must surface as transport
/// errors (counted) and heal through retries and the stale-cookie cascade.
net::FaultConfig corrupting(std::uint64_t seed) {
  net::FaultConfig config = lossy(seed);
  config.corrupt = 0.05;
  config.truncate = 0.04;
  return config;
}

const std::vector<ChaosSchedule> kSchedules = {
    // depth-1 relay crashes mid-run: half the tree re-converges
    ChaosSchedule{20050501, lossy(20050501), "d1-0", 70, 90},
    // depth-2 relay crashes: the stale-cookie cascade stops at its leaves
    ChaosSchedule{31337, lossy(31337), "d2-10", 110, 135},
    // pure link chaos, no crash
    ChaosSchedule{777, lossy(777), "d1-1", -1, -1},
    // crash with a long outage late in the run
    ChaosSchedule{424242, lossy(424242), "d2-01", 140, 180},
    // the same four worlds with flipped bits and truncated frames
    ChaosSchedule{20050501, corrupting(20050501), "d1-0", 70, 90},
    ChaosSchedule{31337, corrupting(31337), "d2-10", 110, 135},
    ChaosSchedule{777, corrupting(777), "d1-1", -1, -1},
    ChaosSchedule{424242, corrupting(424242), "d2-01", 140, 180},
};

std::string schedule_name(
    const ::testing::TestParamInfo<ChaosSchedule>& param_info) {
  return param_info.param.name();
}

INSTANTIATE_TEST_SUITE_P(Schedules, TopologyChaos,
                         ::testing::ValuesIn(kSchedules), schedule_name);

// Pipelined sync changes only the scheduling of upstream exchanges. Every
// node here replicates three overlapping filters, so each sync round polls
// a run of three sessions as one exchange_all batch. One tree pipelines
// over FramedChannel(FaultyPipe); its twin routes every link through a
// pass-through Channel that keeps the one-at-a-time default, so the polls
// go out exchange by exchange. Under the same seeded schedule both must
// make the same pipe calls: equal fault counters, mirrors, journals and
// per-filter retry/recovery accounting.

/// Pass-through link that keeps Channel's one-at-a-time exchange_all.
class OneAtATimeChannel final : public net::Channel {
 public:
  explicit OneAtATimeChannel(std::shared_ptr<net::Channel> inner)
      : inner_(std::move(inner)) {}

  resync::ReSyncResponse exchange(const Query& query,
                                  const resync::ReSyncControl& control) override {
    return inner_->exchange(query, control);
  }
  void abandon(const std::string& cookie) override { inner_->abandon(cookie); }
  void elapse(std::uint64_t ticks) override { inner_->elapse(ticks); }

 private:
  std::shared_ptr<net::Channel> inner_;
};

/// Pass-through link that forwards batches whole and counts the ones that
/// carried more than one request.
class BatchCountingChannel final : public net::Channel {
 public:
  BatchCountingChannel(std::shared_ptr<net::Channel> inner,
                       std::uint64_t& multi_batches)
      : inner_(std::move(inner)), multi_batches_(&multi_batches) {}

  resync::ReSyncResponse exchange(const Query& query,
                                  const resync::ReSyncControl& control) override {
    return inner_->exchange(query, control);
  }
  void exchange_all(std::span<net::ExchangeItem> items) override {
    if (items.size() > 1) ++*multi_batches_;
    inner_->exchange_all(items);
  }
  void abandon(const std::string& cookie) override { inner_->abandon(cookie); }
  void elapse(std::uint64_t ticks) override { inner_->elapse(ticks); }

 private:
  std::shared_ptr<net::Channel> inner_;
  std::uint64_t* multi_batches_;
};

/// Three overlapping filters per node: the bit prefix, its subset with
/// untouched mail, and a same-content spelling of the prefix.
std::vector<Query> overlapping_filters(const std::string& bits) {
  return {serial_query(bits),
          Query::parse("o=xyz", Scope::Subtree,
                       "(&(serialnumber=" + bits + "*)(mail=e*))"),
          Query::parse("o=xyz", Scope::Subtree,
                       "(&(objectclass=person)(serialnumber=" + bits + "*))")};
}

void build_overlapping_tree(TopologyRuntime& runtime) {
  for (const std::string& bits : kBits1) {
    runtime.add_node("d1-" + bits, "", overlapping_filters(bits));
  }
  for (const std::string& bits : kBits2) {
    runtime.add_node("d2-" + bits, "d1-" + bits.substr(0, 1),
                     overlapping_filters(bits));
  }
  for (const std::string& bits : kBits3) {
    runtime.add_node("leaf-" + bits, "d2-" + bits.substr(0, 2),
                     overlapping_filters(bits));
  }
}

/// Connects every node of `runtime` to its parent over a link the test
/// builds itself — a FramedChannel over a FaultyPipe seeded per link, as
/// TopologyRuntime builds them — passed through `wrap`. Returns the pipes
/// by node name.
template <typename Wrap>
std::map<std::string, std::shared_ptr<net::FaultyPipe>> connect_faulty_links(
    TopologyRuntime& runtime, const net::FaultConfig& faults, Wrap wrap) {
  std::map<std::string, std::shared_ptr<net::FaultyPipe>> pipes;
  std::uint64_t link = 0;
  for (const std::string& name : runtime.node_names()) {
    const std::string& parent = runtime.parent_of(name);
    resync::ReSyncEndpoint& upstream =
        parent.empty()
            ? static_cast<resync::ReSyncEndpoint&>(runtime.root_master())
            : runtime.node(parent);
    net::FaultConfig config = faults;
    config.seed += 0x9e3779b9ull * ++link;
    auto pipe = std::make_shared<net::FaultyPipe>(upstream, config);
    pipes[name] = pipe;
    RelayNode& node = runtime.node(name);
    node.connect(wrap(std::make_shared<net::FramedChannel>(pipe)),
                 node.parent_url());
  }
  return pipes;
}

/// Journals equal record by record: sequence, type, DN and entry image.
void expect_same_journal(const RelayNode& node, const RelayNode& twin,
                         const std::string& name) {
  const server::ChangeJournal& journal = node.mirror().journal();
  const server::ChangeJournal& other = twin.mirror().journal();
  ASSERT_EQ(journal.size(), other.size()) << name;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const server::ChangeRecord& record = journal.at(i);
    const server::ChangeRecord& twin_record = other.at(i);
    EXPECT_EQ(record.to_string(), twin_record.to_string()) << name;
    ASSERT_EQ(record.after == nullptr, twin_record.after == nullptr) << name;
    if (record.after) {
      EXPECT_TRUE(*record.after == *twin_record.after)
          << name << " " << record.to_string();
    }
  }
}

std::vector<std::uint64_t> counter_fields(const net::FaultCounters& c) {
  return {c.exchanges,   c.dropped_requests, c.dropped_responses,
          c.duplicated,  c.replayed,         c.delayed,
          c.resets,      c.rejected_while_down, c.outages,
          c.corrupted,   c.truncated};
}

class BatchedSync : public ::testing::TestWithParam<ChaosSchedule> {};

TEST_P(BatchedSync, PipelinedSyncMatchesOneAtATimeTwin) {
  const ChaosSchedule schedule = GetParam();

  auto batched_master = make_master("ldap://root");
  auto single_master = make_master("ldap://root");

  // The runtime's own links are replaced below by test-built faulty ones.
  TopologyRuntime::Options options;
  options.retry.max_attempts = 4;
  options.retry.base_backoff_ticks = 1;
  options.retry.max_backoff_ticks = 6;
  options.retry.jitter_seed = schedule.seed;
  options.session_time_limit = 60;
  TopologyRuntime batched(batched_master, options);
  TopologyRuntime single(single_master, options);
  batched.root_master().set_session_time_limit(60);
  single.root_master().set_session_time_limit(60);

  build_overlapping_tree(batched);
  build_overlapping_tree(single);
  std::uint64_t multi_batches = 0;
  const auto batched_pipes = connect_faulty_links(
      batched, schedule.faults, [&](std::shared_ptr<net::Channel> link) {
        return std::make_shared<BatchCountingChannel>(std::move(link),
                                                      multi_batches);
      });
  const auto single_pipes = connect_faulty_links(
      single, schedule.faults, [](std::shared_ptr<net::Channel> link) {
        return std::make_shared<OneAtATimeChannel>(std::move(link));
      });
  std::map<std::string, std::string> parent_urls;
  for (const std::string& name : batched.node_names()) {
    parent_urls[name] = batched.node(name).parent_url();
  }
  EXPECT_EQ(batched.install(), single.install());

  std::mt19937 rng(static_cast<unsigned>(schedule.seed));
  int next_rank = 0;
  for (int step = 0; step < 200; ++step) {
    mutate_both(rng, next_rank, *batched_master, *single_master);
    if (step == schedule.crash_step) {
      batched.crash_node(schedule.crash_node);
      single.crash_node(schedule.crash_node);
    }
    if (step == schedule.restart_step) {
      batched.restart_node(schedule.crash_node);
      single.restart_node(schedule.crash_node);
    }
    batched.tick();
    single.tick();
  }
  net::FaultConfig clean;
  clean.seed = schedule.faults.seed;
  for (const auto* pipes : {&batched_pipes, &single_pipes}) {
    for (const auto& [name, pipe] : *pipes) {
      pipe->set_config(clean);
      pipe->flush_replays();
    }
  }
  for (int round = 0; round < 12; ++round) {
    batched.tick();
    single.tick();
  }

  EXPECT_GT(multi_batches, 0u) << "no sync round pipelined its polls";
  std::uint64_t faults_seen = 0;
  for (const std::string& name : batched.node_names()) {
    const RelayNode& node = batched.node(name);
    const RelayNode& twin = single.node(name);
    const net::FaultCounters& counters = batched_pipes.at(name)->counters();
    faults_seen += counters.faults();
    EXPECT_EQ(counter_fields(counters),
              counter_fields(single_pipes.at(name)->counters()))
        << name << ": batching changed the pipe calls (" << schedule.name()
        << ")";
    expect_same_journal(node, twin, name);
    EXPECT_EQ(node.epoch(), twin.epoch()) << name;
    // A re-wire would have swapped in a runtime-built link.
    EXPECT_EQ(node.parent_url(), parent_urls.at(name)) << name;
    EXPECT_EQ(twin.parent_url(), parent_urls.at(name)) << name;
    ASSERT_EQ(node.filter_count(), 3u);
    for (std::size_t f = 0; f < node.filter_count(); ++f) {
      const Query& query = node.filter_replica().query_at(f);
      const auto keys = mirror_keys(node, query);
      EXPECT_EQ(keys, master_truth(*batched_master, query)) << name;
      EXPECT_EQ(keys, mirror_keys(twin, query)) << name;
    }
    const net::HealthStats health = node.upstream_health();
    const net::HealthStats twin_health = twin.upstream_health();
    for (const auto& [key, filter] : health.filters) {
      const net::FilterHealth& other = twin_health.filters.at(key);
      EXPECT_EQ(filter.retries, other.retries) << name << " " << key;
      EXPECT_EQ(filter.recoveries, other.recoveries) << name << " " << key;
      EXPECT_EQ(filter.full_reloads, other.full_reloads) << name << " " << key;
      EXPECT_EQ(filter.reconciles, other.reconciles) << name << " " << key;
      EXPECT_EQ(filter.failed_syncs, other.failed_syncs) << name << " " << key;
      EXPECT_FALSE(filter.degraded) << name << " " << key;
    }
  }
  EXPECT_GT(faults_seen, 0u) << "fault schedule was a no-op";
}

INSTANTIATE_TEST_SUITE_P(Schedules, BatchedSync, ::testing::ValuesIn(kSchedules),
                         schedule_name);

// One upstream-session state machine serves both consumer sites. A
// FilterReplicationService and a RelayNode replicate the same three
// overlapping filters, each over a FramedChannel on a FaultyPipe with the
// same seed, and both masters take the same mutation stream (and, in the
// crash schedules, the same master outage). Same answers in, so the same
// session state out: equal pipe counters and equal per-filter health on
// every round. Content key sets are compared on every round in which no
// filter is degraded: while one is, its stale claims can keep a shared
// entry in the relay's mirror, where an overlapping filter's mirror view
// still matches it.
class UpstreamSessionTwin : public ::testing::TestWithParam<ChaosSchedule> {};

std::vector<std::uint64_t> health_fields(const net::FilterHealth& h) {
  // Everything but ticks_behind: the two sites stamp syncs on different
  // clocks (the service its master's, the relay its downstream master's).
  return {h.degraded ? 1u : 0u, h.retries,         h.recoveries,
          h.failed_syncs,       h.busy_rejections, h.degraded_polls,
          h.paged_polls,        h.full_reloads,    h.reconciles,
          h.reconcile_fallbacks, h.reconcile_entries_shipped};
}

std::vector<std::string> service_keys(
    const core::FilterReplicationService& service, std::size_t slot) {
  std::vector<std::string> keys;
  for (const ldap::EntryPtr& entry :
       service.filter_replica().query_content(slot)) {
    keys.push_back(entry->dn().norm_key());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// The retry policy of the session twins.
net::RetryPolicy twin_retry(std::uint64_t seed) {
  net::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.base_backoff_ticks = 1;
  retry.max_backoff_ticks = 6;
  retry.jitter_seed = seed;
  return retry;
}

// Paging masters with a low walk-fallback threshold, so the session twins
// also drain continuation pages and heal by full reload as well as by walk.
void configure_twin_master(resync::ReSyncMaster& master) {
  resync::ResourceLimits limits;
  limits.max_page_entries = 5;
  master.set_session_time_limit(60);
  master.set_resource_limits(limits);
  master.set_reconcile_fallback_fraction(0.1);
}

TEST_P(UpstreamSessionTwin, ServiceAndRelayStayInStep) {
  const ChaosSchedule schedule = GetParam();
  auto service_master = make_master("ldap://root");
  auto relay_master = make_master("ldap://root");
  const net::RetryPolicy retry = twin_retry(schedule.seed);

  core::FilterReplicationService::Config service_config;
  service_config.retry = retry;
  core::FilterReplicationService service(service_master, service_config);
  resync::ReSyncMaster root(*relay_master);
  configure_twin_master(service.resync());
  configure_twin_master(root);
  RelayNode::Config relay_config;
  relay_config.name = "relay";
  relay_config.suffix = Dn::parse("o=xyz");
  relay_config.retry = retry;
  RelayNode relay(relay_config);

  // The links go lossy after the install: a failed install throws at the
  // service but degrades at the relay, the one place the sites differ.
  net::FaultConfig clean;
  clean.seed = schedule.faults.seed;
  auto service_pipe =
      std::make_shared<net::FaultyPipe>(service.resync(), clean);
  auto relay_pipe = std::make_shared<net::FaultyPipe>(root, clean);
  service.set_channel(std::make_shared<net::FramedChannel>(service_pipe));
  relay.connect(std::make_shared<net::FramedChannel>(relay_pipe),
                relay_master->url());
  const std::vector<Query> filters = overlapping_filters("0");
  for (const Query& query : filters) {
    service.install(query);
    relay.add_filter(query);
  }
  ASSERT_TRUE(relay.install_all());
  service_pipe->set_config(schedule.faults);
  relay_pipe->set_config(schedule.faults);

  std::size_t content_rounds = 0;
  const auto expect_in_step = [&](const std::string& when) {
    EXPECT_EQ(counter_fields(service_pipe->counters()),
              counter_fields(relay_pipe->counters()))
        << when;
    const net::HealthStats service_health = service.health();
    const net::HealthStats relay_health = relay.upstream_health();
    ASSERT_EQ(service_health.filters.size(), filters.size()) << when;
    ASSERT_EQ(relay_health.filters.size(), filters.size()) << when;
    for (const Query& query : filters) {
      EXPECT_EQ(health_fields(service_health.filters.at(query.key())),
                health_fields(relay_health.filters.at(query.key())))
          << when << " " << query.to_string();
    }
    if (relay.upstream_total().degraded) return;
    ++content_rounds;
    for (std::size_t slot = 0; slot < filters.size(); ++slot) {
      EXPECT_EQ(service_keys(service, slot), mirror_keys(relay, filters[slot]))
          << when << " " << filters[slot].to_string();
    }
  };
  const auto round = [&] {
    service.sync();  // pumps its own master first
    root.pump();
    relay.sync();
    service.resync().tick();
    root.tick();
  };

  std::mt19937 rng(static_cast<unsigned>(schedule.seed));
  int next_rank = 0;
  for (int step = 0; step < 200; ++step) {
    mutate_both(rng, next_rank, *service_master, *relay_master);
    if (step == schedule.crash_step) {
      service_pipe->crash_master();
      relay_pipe->crash_master();
    }
    if (step == schedule.restart_step) {
      service_pipe->restart_master();
      relay_pipe->restart_master();
    }
    round();
    expect_in_step("step " + std::to_string(step));
    if (::testing::Test::HasFailure()) return;  // one report per schedule
  }
  for (const auto& pipe : {service_pipe, relay_pipe}) {
    pipe->set_config(clean);
    pipe->flush_replays();
  }
  for (int extra = 0; extra < 12; ++extra) {
    round();
    expect_in_step("quiescence " + std::to_string(extra));
  }

  EXPECT_FALSE(relay.upstream_total().degraded);
  EXPECT_GT(content_rounds, 100u) << "content was rarely comparable";
  EXPECT_GT(service_pipe->counters().faults(), 0u)
      << "fault schedule was a no-op";
  const net::FilterHealth health = service.health().total();
  EXPECT_GT(health.retries, 0u) << "no exchange was retried";
  EXPECT_EQ(health.recoveries, health.full_reloads + health.reconciles);
  EXPECT_GT(health.paged_polls, 0u) << "no answer was paged";
  if (schedule.crash_step >= 0) {
    EXPECT_GT(health.recoveries, 0u) << "the outage never healed";
  }
  for (std::size_t slot = 0; slot < filters.size(); ++slot) {
    EXPECT_EQ(service_keys(service, slot),
              master_truth(*service_master, filters[slot]));
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, UpstreamSessionTwin,
                         ::testing::ValuesIn(kSchedules), schedule_name);

// The single-filter client runs the same session machine: a one-filter
// service and a ReSyncReplica over identically seeded faulty links make the
// same exchanges and keep the same health and content on every round. A
// poll that failed past the retry budget heals on the next round by ending
// the old session and walking (or reloading), on both sides.
class ReplicaSessionTwin : public ::testing::TestWithParam<ChaosSchedule> {};

TEST_P(ReplicaSessionTwin, ReplicaAndServiceStayInStep) {
  const ChaosSchedule schedule = GetParam();
  auto service_master = make_master("ldap://root");
  auto replica_master = make_master("ldap://root");
  const net::RetryPolicy retry = twin_retry(schedule.seed);

  core::FilterReplicationService::Config service_config;
  service_config.retry = retry;
  core::FilterReplicationService service(service_master, service_config);
  resync::ReSyncMaster root(*replica_master);
  configure_twin_master(service.resync());
  configure_twin_master(root);

  net::FaultConfig clean;
  clean.seed = schedule.faults.seed;
  auto service_pipe =
      std::make_shared<net::FaultyPipe>(service.resync(), clean);
  auto replica_pipe = std::make_shared<net::FaultyPipe>(root, clean);
  service.set_channel(std::make_shared<net::FramedChannel>(service_pipe));
  net::FramedChannel replica_channel(replica_pipe);
  const Query filter = serial_query("0");
  service.install(filter);
  resync::ReSyncReplica replica(replica_channel, filter);
  replica.set_retry_policy(retry);
  replica.set_auto_recover(true);
  replica.start();
  service_pipe->set_config(schedule.faults);
  replica_pipe->set_config(schedule.faults);

  const auto expect_in_step = [&](const std::string& when) {
    EXPECT_EQ(counter_fields(service_pipe->counters()),
              counter_fields(replica_pipe->counters()))
        << when;
    EXPECT_EQ(health_fields(service.health().filters.at(filter.key())),
              health_fields(replica.health()))
        << when;
    EXPECT_EQ(service_keys(service, 0), replica.content().keys()) << when;
  };
  const auto round = [&] {
    service.sync();  // pumps its own master first
    root.pump();
    try {
      replica.poll();
    } catch (const net::TransportError&) {
      // Down past the retry budget: the next poll heals.
    }
    service.resync().tick();
    root.tick();
  };

  std::mt19937 rng(static_cast<unsigned>(schedule.seed));
  int next_rank = 0;
  for (int step = 0; step < 200; ++step) {
    mutate_both(rng, next_rank, *service_master, *replica_master);
    if (step == schedule.crash_step) {
      service_pipe->crash_master();
      replica_pipe->crash_master();
    }
    if (step == schedule.restart_step) {
      service_pipe->restart_master();
      replica_pipe->restart_master();
    }
    round();
    expect_in_step("step " + std::to_string(step));
    if (::testing::Test::HasFailure()) return;  // one report per schedule
  }
  for (const auto& pipe : {service_pipe, replica_pipe}) {
    pipe->set_config(clean);
    pipe->flush_replays();
  }
  for (int extra = 0; extra < 12; ++extra) {
    round();
    expect_in_step("quiescence " + std::to_string(extra));
  }

  const net::FilterHealth health = replica.health();
  EXPECT_FALSE(health.degraded);
  EXPECT_GT(replica_pipe->counters().faults(), 0u)
      << "fault schedule was a no-op";
  if (schedule.crash_step >= 0) {
    EXPECT_GT(health.failed_syncs, 0u) << "no poll failed past the budget";
    EXPECT_GT(health.recoveries, 0u) << "the outage never healed";
  }
  EXPECT_EQ(health.recoveries, health.full_reloads + health.reconciles);
  EXPECT_LE(health.reconcile_fallbacks, health.full_reloads);
  EXPECT_EQ(replica.content().keys(), master_truth(*replica_master, filter));
}

INSTANTIATE_TEST_SUITE_P(Schedules, ReplicaSessionTwin,
                         ::testing::ValuesIn(kSchedules), schedule_name);

// Re-establishing a session whose poll failed past the retry budget ends
// the old session upstream. With an admin limit of 0 (the relay and
// fbdr_node default) nothing else ever drops it, and every pump would keep
// routing changes into the orphan's history.
TEST(UpstreamSessionLeak, ReestablishEndsTheAbandonedSession) {
  auto master = make_master("ldap://root");
  TopologyRuntime::Options options;
  options.faults = net::FaultConfig{};  // framed, fault-free until an outage
  TopologyRuntime runtime(master, options);
  runtime.add_node("relay", "", {serial_query("0")});
  ASSERT_TRUE(runtime.install());
  ASSERT_EQ(runtime.root_master().session_count(), 1u);

  net::FaultyPipe& pipe = *runtime.fault_pipe("relay");
  net::FaultConfig outage;
  outage.drop_response = 1.0;
  for (int i = 0; i < 5; ++i) {
    pipe.set_config(outage);
    runtime.tick();  // the poll reaches the root; its answer is lost
    EXPECT_TRUE(runtime.node("relay").upstream_total().degraded) << "outage " << i;
    pipe.set_config(net::FaultConfig{});
    runtime.tick();  // re-established
    EXPECT_FALSE(runtime.node("relay").upstream_total().degraded) << "outage " << i;
    EXPECT_EQ(runtime.root_master().session_count(), 1u) << "outage " << i;
  }

  // One in-filter write per round: the live session drains each round and
  // holds only the write pumped after its poll; an orphan would hold all.
  for (int rank = 0; rank < 20; ++rank) {
    master->modify(Dn::parse("cn=e" + serial_of(rank % 4, rank % 6) + ",o=xyz"),
                   {{Modification::Op::Replace, "mail",
                     {"w" + std::to_string(rank) + "@x.com"}}});
    runtime.tick();
  }
  EXPECT_EQ(runtime.root_master().session_count(), 1u);
  EXPECT_LE(runtime.root_master().history_size(), 1u);
  EXPECT_EQ(mirror_keys(runtime.node("relay"), serial_query("0")),
            master_truth(*master, serial_query("0")));
}

// The end can be lost too: when the outage outlasts the failed poll, the
// re-establishment's SyncEnd never reaches the root. The cookie is kept and
// the old session is ended on the next attempt, before another is opened.
TEST(UpstreamSessionLeak, LostEndIsResentBeforeReopening) {
  auto master = make_master("ldap://root");
  TopologyRuntime::Options options;
  options.faults = net::FaultConfig{};
  TopologyRuntime runtime(master, options);
  runtime.add_node("relay", "", {serial_query("0")});
  ASSERT_TRUE(runtime.install());

  net::FaultyPipe& pipe = *runtime.fault_pipe("relay");
  net::FaultConfig answers_lost;
  answers_lost.drop_response = 1.0;
  net::FaultConfig partitioned;
  partitioned.drop_request = 1.0;
  for (int i = 0; i < 3; ++i) {
    pipe.set_config(answers_lost);
    runtime.tick();  // the poll reaches the root; its answer is lost
    pipe.set_config(partitioned);
    runtime.tick();  // the SyncEnd of the re-establishment is lost
    EXPECT_TRUE(runtime.node("relay").upstream_total().degraded) << "outage " << i;
    EXPECT_EQ(runtime.root_master().session_count(), 1u) << "outage " << i;
    pipe.set_config(net::FaultConfig{});
    runtime.tick();  // ended, then re-established
    EXPECT_FALSE(runtime.node("relay").upstream_total().degraded) << "outage " << i;
    EXPECT_EQ(runtime.root_master().session_count(), 1u) << "outage " << i;
  }
  EXPECT_EQ(mirror_keys(runtime.node("relay"), serial_query("0")),
            master_truth(*master, serial_query("0")));
}

/// Fails its first `failures` exchanges with TransportError and logs every
/// exchange ("x") and backoff ("e<ticks>") it sees.
class FlakyChannel final : public net::Channel {
 public:
  explicit FlakyChannel(int failures) : failures_(failures) {}

  resync::ReSyncResponse exchange(const Query& query,
                                  const resync::ReSyncControl& control) override {
    log.push_back("x " + query.key() + " " + control.cookie);
    if (failures_-- > 0) throw net::TransportError("flaky");
    resync::ReSyncResponse response;
    response.cookie = control.cookie + "+";
    return response;
  }
  void abandon(const std::string&) override {}
  void elapse(std::uint64_t ticks) override {
    log.push_back("e" + std::to_string(ticks));
  }

  std::vector<std::string> log;

 private:
  int failures_;
};

// The retry rule behind pipelined sync: a TransportError inside a batch is
// attempt 1 of the item's RetryPolicy, and an item the batch never sent
// runs the whole policy. Finishing a two-poll batch must therefore make
// exactly the exchanges, backoffs and retry counts of two exchange_with_retry
// calls, whether the link heals in time or not.
TEST(BatchedSync, TransportFailureInBatchIsTheFirstRetryAttempt) {
  const Query first = serial_query("0");
  const Query second = serial_query("1");
  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ticks = 2;
  policy.jitter_seed = 7;
  for (int failures = 0; failures <= 6; ++failures) {
    FlakyChannel single(failures);
    std::uint64_t single_retries = 0;
    std::vector<std::string> single_cookies;
    for (const Query* query : {&first, &second}) {
      try {
        single_cookies.push_back(
            net::exchange_with_retry(single, *query,
                                     {resync::Mode::Poll, "c"}, policy,
                                     &single_retries)
                .cookie);
      } catch (const net::TransportError&) {
        single_cookies.push_back("failed");
      }
    }

    FlakyChannel batched(failures);
    std::uint64_t batched_retries = 0;
    std::vector<std::string> batched_cookies;
    std::vector<net::ExchangeItem> items = {
        {first, {resync::Mode::Poll, "c"}}, {second, {resync::Mode::Poll, "c"}}};
    batched.exchange_all(items);
    for (net::ExchangeItem& item : items) {
      try {
        batched_cookies.push_back(
            net::finish_with_retry(batched, item, policy, &batched_retries)
                .cookie);
      } catch (const net::TransportError&) {
        batched_cookies.push_back("failed");
      }
    }

    EXPECT_EQ(batched.log, single.log) << failures << " failures";
    EXPECT_EQ(batched_retries, single_retries) << failures << " failures";
    EXPECT_EQ(batched_cookies, single_cookies) << failures << " failures";
  }
}

// Codec transparency at tree scale: a fault-free tree whose every link runs
// the framed wire codec (an all-zero FaultConfig) must mirror a
// DirectChannel twin exactly — same entries at every node after the
// identical mutation stream.
class FramedTopologyTwin : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FramedTopologyTwin, FramedTreeMirrorsDirectTwinExactly) {
  const std::uint64_t seed = GetParam();

  auto framed_master = make_master("ldap://root");
  auto direct_master = make_master("ldap://root");

  TopologyRuntime::Options framed_options;
  framed_options.faults = net::FaultConfig{};  // framed, fault-free
  TopologyRuntime framed(framed_master, framed_options);
  TopologyRuntime direct(direct_master, {});

  build_tree(framed);
  build_tree(direct);
  ASSERT_TRUE(framed.install());
  ASSERT_TRUE(direct.install());

  // Every hop of the faults-configured tree is framed; none of the other.
  for (const std::string& name : framed.node_names()) {
    EXPECT_NE(framed.framed_link(name), nullptr) << name;
    EXPECT_NE(framed.fault_pipe(name), nullptr) << name;
    EXPECT_TRUE(framed.node(name).framed_upstream()) << name;
    EXPECT_EQ(direct.framed_link(name), nullptr) << name;
    EXPECT_FALSE(direct.node(name).framed_upstream()) << name;
  }

  std::mt19937 rng(static_cast<unsigned>(seed));
  int next_rank = 0;
  for (int step = 0; step < 150; ++step) {
    mutate_both(rng, next_rank, *framed_master, *direct_master);
    framed.tick();
    direct.tick();
  }
  // Settle: the last mutations propagate one hop per tick down the depth-3
  // tree, identically on both sides.
  for (int round = 0; round < 4; ++round) {
    framed.tick();
    direct.tick();
  }

  for (const std::string& name : framed.node_names()) {
    const RelayNode& node = framed.node(name);
    const Query& query = node.filter_replica().query_at(0);
    const auto keys = mirror_keys(node, query);
    EXPECT_EQ(keys, master_truth(*framed_master, query))
        << name << " diverged from master truth (seed " << seed << ")";
    EXPECT_EQ(keys, mirror_keys(direct.node(name), query))
        << name << " diverged from the direct twin (seed " << seed << ")";
  }

  // The all-zero schedule injected nothing.
  for (const std::string& name : framed.node_names()) {
    EXPECT_EQ(framed.fault_pipe(name)->counters().faults(), 0u) << name;
  }

  // Framed links measured exact frame traffic.
  const net::FramedChannel* link = framed.framed_link("d1-0");
  ASSERT_NE(link, nullptr);
  EXPECT_GT(link->traffic().frames, 0u);
  // Every frame carries at least its fixed header.
  EXPECT_GT(link->traffic().bytes,
            link->traffic().frames * wire::Codec::kFrameHeaderBytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FramedTopologyTwin,
                         ::testing::Values(20050501u, 31337u, 777u, 424242u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& p) {
                           return "seed" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace fbdr::topology
