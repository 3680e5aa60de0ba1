// Wire codec bench: what the framed binary codec costs and measures against
// the in-process DirectChannel across the four protocol shapes — the
// initial full reload, steady-state polls, persist-mode pushes and a
// reconcile recovery. The framed side reports its frame bytes (headers
// included) from FramedChannel::traffic(); a direct link moves no bytes, so
// the direct side reports wall-clock and entries only. A codec microbench
// reports raw encode/decode ns per response and throughput.
//
// --max-wire-overhead gates CI on the framed/direct wall-clock factor for
// the poll loop (the steady-state path): the codec must stay a small
// multiplier on an exchange, not a dominating cost. That factor divides by
// the replica's apply work too, so it rises whenever shared work gets
// cheaper; three codec-only numbers sit beside it:
//   decode_over_encode       codec microbench decode ns / encode ns
//                            (--max-decode-factor)
//   decode_ns_per_pdu        codec microbench decode ns per PDU; unlike
//                            the ratio it does not rise when only encode
//                            gets faster
//   persist_overhead_factor  framed persist push ns / direct push ns
//                            (--max-persist-overhead)
//   codec_ns_per_poll        encode + in-place decode of one poll's
//                            requests and replies, no replica work
// Both worlds must also end bit-identically converged at every scenario,
// or the bench fails.
//
// Usage:
//   bench_wire [--employees=N] [--rounds=N] [--updates-per-round=N]
//              [--json=PATH] [--max-wire-overhead=F]
//              [--max-decode-factor=F] [--max-persist-overhead=F]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "json_report.h"
#include "net/framed_channel.h"
#include "resync/replica_client.h"
#include "sync/content_tracker.h"
#include "wire/codec.h"

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 Clock::now() - start)
                                 .count());
}

struct Options {
  std::size_t employees = 4000;
  std::size_t rounds = 40;
  std::size_t updates_per_round = 50;
  std::string json_path = "BENCH_wire.json";
  double max_wire_overhead = 0.0;
  double max_decode_factor = 0.0;
  double max_persist_overhead = 0.0;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      return arg.compare(0, std::strlen(prefix), prefix) == 0
                 ? arg.c_str() + std::strlen(prefix)
                 : nullptr;
    };
    if (const char* employees = value("--employees=")) {
      options.employees = std::strtoull(employees, nullptr, 10);
    } else if (const char* rounds = value("--rounds=")) {
      options.rounds = std::strtoull(rounds, nullptr, 10);
    } else if (const char* updates = value("--updates-per-round=")) {
      options.updates_per_round = std::strtoull(updates, nullptr, 10);
    } else if (const char* json = value("--json=")) {
      options.json_path = json;
    } else if (const char* overhead = value("--max-wire-overhead=")) {
      options.max_wire_overhead = fbdr::bench::gate_flag<double>(
          "--max-wire-overhead=", overhead);
    } else if (const char* factor = value("--max-decode-factor=")) {
      options.max_decode_factor = fbdr::bench::gate_flag<double>(
          "--max-decode-factor=", factor);
    } else if (const char* persist = value("--max-persist-overhead=")) {
      options.max_persist_overhead = fbdr::bench::gate_flag<double>(
          "--max-persist-overhead=", persist);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

fbdr::workload::EnterpriseDirectory make_directory(std::size_t employees) {
  fbdr::workload::DirectoryConfig config;
  config.employees = employees;
  config.countries = 2;
  config.geo_countries = 1;
  config.divisions = 4;
  config.depts_per_division = 4;
  config.locations = 4;
  return fbdr::workload::generate_directory(config);
}

/// The replicated filter: all of division 0, a quarter of the directory.
fbdr::ldap::Query division_query() {
  return fbdr::ldap::Query::parse("", fbdr::ldap::Scope::Subtree,
                                  "(serialnumber=00*)");
}

/// One scenario measured in one world. Framed runs report frame traffic;
/// direct runs move no bytes (bytes and frames stay 0).
struct Run {
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t entries = 0;
  double wall_ns = 0.0;
  std::size_t operations = 0;
  bool converged = false;

  double ns_per_op() const {
    return operations > 0 ? wall_ns / static_cast<double>(operations) : 0.0;
  }
  double bytes_per_op() const {
    return operations > 0
               ? static_cast<double>(bytes) / static_cast<double>(operations)
               : 0.0;
  }
};

bool content_matches(const fbdr::resync::ReSyncReplica& replica,
                     const fbdr::server::DirectoryServer& master,
                     const fbdr::ldap::Query& query) {
  fbdr::sync::ContentTracker truth(query);
  truth.initialize(master.dit());
  return replica.content().keys() == truth.content_keys();
}

/// One exchange of a direct link, kept for the codec-only replay.
struct Exchange {
  fbdr::ldap::Query query;
  fbdr::resync::ReSyncControl control;
  fbdr::resync::ReSyncResponse response;
};

/// A direct link that keeps every exchange it carries while `recording`.
class RecordingChannel final : public fbdr::net::Channel {
 public:
  explicit RecordingChannel(fbdr::resync::ReSyncEndpoint& endpoint)
      : inner_(endpoint) {}

  fbdr::resync::ReSyncResponse exchange(
      const fbdr::ldap::Query& query,
      const fbdr::resync::ReSyncControl& control) override {
    fbdr::resync::ReSyncResponse response = inner_.exchange(query, control);
    if (recording) log.push_back({query, control, response});
    return response;
  }
  void abandon(const std::string& cookie) override { inner_.abandon(cookie); }
  void elapse(std::uint64_t ticks) override { inner_.elapse(ticks); }

  bool recording = false;
  std::vector<Exchange> log;

 private:
  fbdr::net::DirectChannel inner_;
};

/// full_reload + poll: one session started (the full reload), then `rounds`
/// of update/pump/poll. `reload` and `poll` come back separately. With
/// `record`, the direct world's poll exchanges are kept there.
void run_poll(const Options& options, bool framed, Run& reload, Run& poll,
              std::vector<Exchange>* record = nullptr) {
  using namespace fbdr;
  workload::EnterpriseDirectory dir = make_directory(options.employees);
  resync::ReSyncMaster master(*dir.master);
  const ldap::Query query = division_query();

  net::FramedChannel framed_channel(master);
  RecordingChannel direct_channel(master);
  net::Channel& channel =
      framed ? static_cast<net::Channel&>(framed_channel) : direct_channel;
  resync::ReSyncReplica replica(channel, query);

  auto start = Clock::now();
  replica.start(resync::Mode::Poll);
  reload.wall_ns = ns_since(start);
  reload.operations = 1;
  reload.bytes = framed_channel.traffic().bytes;
  reload.frames = framed_channel.traffic().frames;
  reload.entries =
      framed ? framed_channel.traffic().entries : master.traffic().entries;
  reload.converged = content_matches(replica, *dir.master, query);

  master.reset_traffic();
  framed_channel.reset_traffic();
  workload::UpdateGenerator updates(dir, {});
  direct_channel.recording = record != nullptr;
  double poll_ns = 0.0;
  for (std::size_t round = 0; round < options.rounds; ++round) {
    updates.apply(options.updates_per_round);
    master.pump();
    start = Clock::now();
    replica.poll();
    poll_ns += ns_since(start);
  }
  poll.wall_ns = poll_ns;
  poll.operations = options.rounds;
  poll.bytes = framed_channel.traffic().bytes;
  poll.frames = framed_channel.traffic().frames;
  poll.entries =
      framed ? framed_channel.traffic().entries : master.traffic().entries;
  poll.converged = content_matches(replica, *dir.master, query);
  if (record) *record = std::move(direct_channel.log);
}

/// The codec alone on the poll scenario's traffic: each recorded request
/// and reply encoded into a reused frame buffer and decoded in place, as
/// the two ends of a framed link do, with no replica or master work. One
/// untimed pass first: the recorded entries are cold by now, and a cold
/// encode costs several times a warm one.
double codec_ns(const std::vector<Exchange>& exchanges) {
  using namespace fbdr;
  wire::Bytes request;
  wire::Bytes reply;
  const auto replay = [&] {
    for (const Exchange& exchange : exchanges) {
      request.clear();
      wire::Codec::frame_request(request, exchange.query, exchange.control);
      const wire::RequestFrame decoded_request =
          wire::Codec::decode_request(wire::Codec::payload_of(request));
      reply.clear();
      wire::Codec::frame_response(reply, exchange.response);
      const resync::ReSyncResponse decoded_reply =
          wire::Codec::decode_response(wire::Codec::payload_of(reply));
      if (decoded_reply.pdus.size() != exchange.response.pdus.size()) {
        std::abort();
      }
    }
  };
  replay();
  const auto start = Clock::now();
  replay();
  return ns_since(start);
}

/// persist: a subscribed session receiving pushes. The framed world encodes
/// every push as a Response frame and decodes it on delivery — the exact
/// bytes a framed persist connection carries.
Run run_persist(const Options& options, bool framed) {
  using namespace fbdr;
  workload::EnterpriseDirectory dir = make_directory(options.employees);
  resync::ReSyncMaster master(*dir.master);
  const ldap::Query query = division_query();

  net::FramedChannel framed_channel(master);
  net::DirectChannel direct_channel(master);
  net::Channel& channel =
      framed ? static_cast<net::Channel&>(framed_channel) : direct_channel;
  resync::ReSyncReplica replica(channel, query);
  replica.start(resync::Mode::Persist);

  Run run;
  double push_ns = 0.0;
  master.set_notification_sink([&](const std::string& cookie,
                                   const std::vector<resync::EntryPdu>& pdus) {
    if (cookie != replica.cookie()) return;
    ++run.operations;
    if (framed) {
      const auto start = Clock::now();
      const wire::Bytes frame = bench::push_frame(cookie, pdus);
      const resync::ReSyncResponse decoded =
          wire::Codec::decode_response(wire::Codec::payload_of(frame));
      push_ns += ns_since(start);
      run.bytes += frame.size();
      ++run.frames;
      run.entries += decoded.entries_sent();
      replica.deliver(decoded.pdus);
    } else {
      const auto start = Clock::now();
      replica.deliver(pdus);
      push_ns += ns_since(start);
    }
  });

  master.reset_traffic();
  workload::UpdateGenerator updates(dir, {});
  for (std::size_t round = 0; round < options.rounds; ++round) {
    updates.apply(options.updates_per_round);
    master.pump();
  }
  run.wall_ns = push_ns;
  if (!framed) run.entries = master.traffic().entries;
  run.converged = content_matches(replica, *dir.master, query);
  return run;
}

/// reconcile: the session expires while 1% of the content goes stale; the
/// recovery runs the digest walk over the measured link.
Run run_reconcile(const Options& options, bool framed) {
  using namespace fbdr;
  workload::EnterpriseDirectory dir = make_directory(options.employees);
  resync::ReSyncMaster master(*dir.master);
  master.set_session_time_limit(5);
  const ldap::Query query = division_query();

  net::FramedChannel framed_channel(master);
  net::DirectChannel direct_channel(master);
  net::Channel& channel =
      framed ? static_cast<net::Channel&>(framed_channel) : direct_channel;
  resync::ReSyncReplica replica(channel, query);
  replica.set_auto_recover(true);
  replica.start(resync::Mode::Poll);

  const std::size_t changed =
      std::max<std::size_t>(1, replica.content().size() / 100);
  std::size_t staled = 0;
  for (const workload::EmployeeInfo& employee : dir.employees) {
    if (staled >= changed) break;
    if (employee.serial.compare(0, 2, "00") != 0) continue;
    dir.master->modify(employee.dn, {{server::Modification::Op::Replace,
                                      "mail",
                                      {"stale" + std::to_string(staled) +
                                       "@xyz.com"}}});
    ++staled;
  }
  master.tick(6);  // the cookie goes stale
  master.reset_traffic();
  framed_channel.reset_traffic();

  Run run;
  const auto start = Clock::now();
  replica.poll();  // recovery: the digest walk
  run.wall_ns = ns_since(start);
  run.operations = 1;
  // The digests ride in request frames, so the frame bytes include them.
  run.bytes = framed_channel.traffic().bytes;
  run.frames = framed_channel.traffic().frames;
  run.entries =
      framed ? framed_channel.traffic().entries : master.traffic().entries;
  run.converged = replica.reconciles() > 0 &&
                  content_matches(replica, *dir.master, query);
  return run;
}

/// Raw codec speed, isolated from the protocol: encode/decode a response
/// of `batch` mid-size entries, reporting ns per op and MB/s.
struct CodecMicro {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  std::size_t payload_bytes = 0;
  std::size_t pdus = 0;
};

CodecMicro run_codec_micro(std::size_t batch = 64, std::size_t reps = 400) {
  using namespace fbdr;
  resync::ReSyncResponse response;
  response.cookie = "rs-1#42";
  for (std::size_t i = 0; i < batch; ++i) {
    resync::EntryPdu pdu;
    pdu.action = resync::Action::Add;
    pdu.dn = ldap::Dn::parse("cn=e" + std::to_string(i) + ",ou=d0,o=xyz");
    auto entry = std::make_shared<ldap::Entry>(pdu.dn);
    entry->set_values("objectclass", {"person", "organizationalPerson"});
    entry->set_values("serialnumber", {"00" + std::to_string(1000 + i)});
    entry->set_values("mail", {"e" + std::to_string(i) + "@xyz.com"});
    entry->set_values("dept", {"d" + std::to_string(i % 16)});
    pdu.entry = std::move(entry);
    response.pdus.push_back(std::move(pdu));
  }

  CodecMicro micro;
  wire::Bytes payload;
  auto start = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    payload = wire::Codec::encode_response(response);
  }
  micro.encode_ns = ns_since(start) / static_cast<double>(reps);
  micro.payload_bytes = payload.size();
  start = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    const resync::ReSyncResponse decoded = wire::Codec::decode_response(payload);
    if (decoded.pdus.size() != batch) std::abort();
  }
  micro.decode_ns = ns_since(start) / static_cast<double>(reps);
  micro.pdus = batch;
  return micro;
}

void scenario_json(fbdr::bench::JsonValue& report, const char* name,
                   const Run& framed, const Run& direct) {
  fbdr::bench::JsonValue out = fbdr::bench::JsonValue::object();
  out.set("framed_bytes", framed.bytes);
  out.set("framed_bytes_per_op", framed.bytes_per_op());
  out.set("framed_frames", framed.frames);
  out.set("framed_ns_per_op", framed.ns_per_op());
  out.set("direct_ns_per_op", direct.ns_per_op());
  out.set("entries_shipped", framed.entries);
  out.set("converged", fbdr::bench::JsonValue::boolean(framed.converged &&
                                                       direct.converged));
  report.set(name, std::move(out));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fbdr;
  const Options options = parse_options(argc, argv);

  bench::print_banner("wire",
                      "framed codec vs direct channel: frame bytes and "
                      "wall-clock per exchange, by protocol shape");

  Run framed_reload, framed_poll, direct_reload, direct_poll;
  run_poll(options, /*framed=*/true, framed_reload, framed_poll);
  run_poll(options, /*framed=*/false, direct_reload, direct_poll);
  // A third run only records the poll traffic, so the two timed runs above
  // carry no recording cost.
  std::vector<Exchange> poll_traffic;
  {
    Run unused_reload, unused_poll;
    run_poll(options, /*framed=*/false, unused_reload, unused_poll,
             &poll_traffic);
  }
  const double codec_ns_per_poll =
      options.rounds > 0
          ? codec_ns(poll_traffic) / static_cast<double>(options.rounds)
          : 0.0;
  const Run framed_persist = run_persist(options, /*framed=*/true);
  const Run direct_persist = run_persist(options, /*framed=*/false);
  const Run framed_reconcile = run_reconcile(options, /*framed=*/true);
  const Run direct_reconcile = run_reconcile(options, /*framed=*/false);
  const CodecMicro micro = run_codec_micro();

  const struct {
    const char* name;
    const Run* framed;
    const Run* direct;
  } scenarios[] = {{"full_reload", &framed_reload, &direct_reload},
                   {"poll", &framed_poll, &direct_poll},
                   {"persist", &framed_persist, &direct_persist},
                   {"reconcile", &framed_reconcile, &direct_reconcile}};

  bool all_converged = true;
  for (const auto& scenario : scenarios) {
    all_converged = all_converged && scenario.framed->converged &&
                    scenario.direct->converged;
    bench::print_row(std::string(scenario.name) + "_framed_bytes_per_op", 0,
                     scenario.framed->bytes_per_op());
    bench::print_row(std::string(scenario.name) + "_framed_ns_per_op", 0,
                     scenario.framed->ns_per_op());
    bench::print_row(std::string(scenario.name) + "_direct_ns_per_op", 0,
                     scenario.direct->ns_per_op());
  }
  bench::print_row("codec_encode_ns", 0, micro.encode_ns);
  bench::print_row("codec_decode_ns", 0, micro.decode_ns);
  bench::print_row("codec_ns_per_poll", 0, codec_ns_per_poll);

  const auto ratio = [](double over, double under) {
    return under > 0.0 ? over / under : 0.0;
  };
  const double overhead_factor =
      ratio(framed_poll.ns_per_op(), direct_poll.ns_per_op());
  const double decode_over_encode = ratio(micro.decode_ns, micro.encode_ns);
  const double decode_ns_per_pdu =
      ratio(micro.decode_ns, static_cast<double>(micro.pdus));
  const double persist_overhead_factor =
      ratio(framed_persist.ns_per_op(), direct_persist.ns_per_op());
  const double micro_mb_per_s =
      micro.encode_ns + micro.decode_ns > 0.0
          ? static_cast<double>(micro.payload_bytes) * 1000.0 /
                (micro.encode_ns + micro.decode_ns)
          : 0.0;

  bench::JsonValue report = bench::JsonValue::object();
  report.set("bench", "wire");
  report.set("employees", static_cast<std::uint64_t>(options.employees));
  report.set("rounds", static_cast<std::uint64_t>(options.rounds));
  report.set("updates_per_round",
             static_cast<std::uint64_t>(options.updates_per_round));
  for (const auto& scenario : scenarios) {
    scenario_json(report, scenario.name, *scenario.framed, *scenario.direct);
  }
  bench::JsonValue codec = bench::JsonValue::object();
  codec.set("payload_bytes", static_cast<std::uint64_t>(micro.payload_bytes));
  codec.set("encode_ns_per_response", micro.encode_ns);
  codec.set("decode_ns_per_response", micro.decode_ns);
  codec.set("roundtrip_mb_per_s", micro_mb_per_s);
  report.set("codec_micro", std::move(codec));
  report.set("poll_overhead_factor", overhead_factor);
  report.set("decode_over_encode", decode_over_encode);
  report.set("decode_ns_per_pdu", decode_ns_per_pdu);
  report.set("persist_overhead_factor", persist_overhead_factor);
  report.set("codec_ns_per_poll", codec_ns_per_poll);
  report.set("all_converged", bench::JsonValue::boolean(all_converged));
  bench::write_json_report(options.json_path, report);

  std::printf("# poll overhead: framed %.0f ns/poll vs direct %.0f ns/poll "
              "(%.2fx); codec %.1f MB/s roundtrip\n",
              framed_poll.ns_per_op(), direct_poll.ns_per_op(),
              overhead_factor, micro_mb_per_s);
  std::printf("# codec only: decode %.2fx encode, %.0f ns per PDU; %.0f ns "
              "per poll; persist push framed %.2fx direct\n",
              decode_over_encode, decode_ns_per_pdu, codec_ns_per_poll,
              persist_overhead_factor);

  if (!all_converged) {
    std::fprintf(stderr, "FAIL: a scenario left framed and direct replicas "
                         "diverged\n");
    return 1;
  }
  if (options.max_wire_overhead > 0.0 &&
      overhead_factor > options.max_wire_overhead) {
    std::fprintf(stderr,
                 "FAIL: framed poll overhead %.2fx exceeds the allowed "
                 "%.2fx\n",
                 overhead_factor, options.max_wire_overhead);
    return 1;
  }
  bool gates_hold = true;
  if (options.max_decode_factor > 0.0 &&
      decode_over_encode > options.max_decode_factor) {
    std::fprintf(stderr, "FAIL: decode costs %.2fx encode, allowed %.2fx\n",
                 decode_over_encode, options.max_decode_factor);
    gates_hold = false;
  }
  if (options.max_persist_overhead > 0.0 &&
      persist_overhead_factor > options.max_persist_overhead) {
    std::fprintf(stderr,
                 "FAIL: a framed persist push costs %.2fx a direct one, "
                 "allowed %.2fx\n",
                 persist_overhead_factor, options.max_persist_overhead);
    gates_hold = false;
  }
  return gates_hold ? 0 : 1;
}
