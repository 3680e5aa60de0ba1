// The socket transport against the in-process seam it must be
// indistinguishable from: every test runs a real EpollServer on a loopback
// Unix socket (or TCP) with SocketPipe clients, and the reference runs are
// EndpointPipe links to an identically-driven twin master. Skips loudly
// when the sandbox forbids sockets.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeindex>
#include <typeinfo>
#include <vector>

#include "ldap/entry.h"
#include "ldap/error.h"
#include "net/framed_channel.h"
#include "netio/control.h"
#include "netio/epoll_server.h"
#include "netio/frame_reassembler.h"
#include "netio/socket_addr.h"
#include "netio/socket_pipe.h"
#include "reference_codec.h"
#include "resync/master.h"
#include "resync/replica_client.h"
#include "server/change.h"
#include "server/directory_server.h"
#include "topology/relay_node.h"
#include "wire/codec.h"

namespace fbdr::netio {
namespace {

using ldap::Dn;
using ldap::Query;
using ldap::Scope;
using resync::Mode;
using resync::ReSyncControl;
using resync::ReSyncMaster;
using resync::ReSyncReplica;
using resync::ReSyncResponse;
using server::Modification;

#define SKIP_WITHOUT_SOCKETS()                                       \
  do {                                                               \
    std::string reason;                                              \
    if (!sockets_available(&reason)) {                               \
      GTEST_SKIP() << "SKIPPING: sandbox forbids sockets (" << reason \
                   << ") — socket transport is untested here";       \
    }                                                                \
  } while (0)

/// A private directory for this test's Unix socket paths.
class SocketDir {
 public:
  SocketDir() {
    char templ[] = "/tmp/fbdr_sock_XXXXXX";
    dir_ = ::mkdtemp(templ) ? templ : "";
  }
  ~SocketDir() {
    if (!dir_.empty()) {
      std::system(("rm -rf " + dir_).c_str());
    }
  }
  SocketAddr addr(const std::string& name) const {
    return SocketAddr::unix_path(dir_ + "/" + name);
  }

 private:
  std::string dir_;
};

ldap::EntryPtr make_entry(
    const std::string& dn,
    const std::vector<std::pair<std::string, std::string>>& attrs) {
  auto entry = std::make_shared<ldap::Entry>(Dn::parse(dn));
  for (const auto& [attr, value] : attrs) entry->set_values(attr, {value});
  return entry;
}

std::unique_ptr<server::DirectoryServer> make_master() {
  auto master = std::make_unique<server::DirectoryServer>("ldap://master");
  server::NamingContext context;
  context.suffix = Dn::parse("o=xyz");
  master->add_context(std::move(context));
  master->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  for (int i = 0; i < 20; ++i) {
    master->load(make_entry(
        "cn=E" + std::to_string(i) + ",o=xyz",
        {{"objectclass", "person"}, {"dept", std::to_string(i % 3 * 35 + 7)}}));
  }
  return master;
}

const std::vector<Query> kQueries = {
    Query::parse("o=xyz", Scope::Subtree, "(dept=7)"),
    Query::parse("o=xyz", Scope::Subtree, "(dept=42)"),
    Query::parse("o=xyz", Scope::Subtree, "(objectclass=person)"),
};

/// Logs the canonical encoding of every response that crossed the channel.
class RecordingChannel final : public net::Channel {
 public:
  explicit RecordingChannel(net::Channel& inner) : inner_(&inner) {}

  ReSyncResponse exchange(const Query& query,
                          const ReSyncControl& control) override {
    ReSyncResponse response = inner_->exchange(query, control);
    log_.push_back(wire::ReferenceCodec::encode_response(response));
    return response;
  }
  void abandon(const std::string& cookie) override { inner_->abandon(cookie); }
  void elapse(std::uint64_t ticks) override { inner_->elapse(ticks); }

  const std::vector<wire::Bytes>& log() const noexcept { return log_; }

 private:
  net::Channel* inner_;
  std::vector<wire::Bytes> log_;
};

/// One operation applied identically to both masters (the socket-served one
/// and its in-process twin), mirroring the chaos-suite mutation stream.
void mutate_both(std::mt19937& rng, int& next_cn,
                 server::DirectoryServer& socket_master,
                 server::DirectoryServer& twin_master, EpollServer& server) {
  const int op = std::uniform_int_distribution<int>(0, 99)(rng);
  const int pick = std::uniform_int_distribution<int>(0, 60)(rng);
  const std::string dept = std::to_string(pick % 3 * 35 + 7);
  const Dn target = Dn::parse("cn=E" + std::to_string(pick) + ",o=xyz");
  const auto apply = [&](server::DirectoryServer& master) {
    try {
      if (op < 35) {
        master.add(make_entry("cn=E" + std::to_string(next_cn) + ",o=xyz",
                              {{"objectclass", "person"}, {"dept", dept}}));
      } else if (op < 60) {
        master.remove(target);
      } else if (op < 90) {
        master.modify(target, {{Modification::Op::Replace, "dept", {dept}}});
      } else {
        master.modify_dn(target, Dn::parse("cn=R" + std::to_string(next_cn) +
                                           ",o=xyz"));
      }
    } catch (const ldap::OperationError&) {
      // Missing random target: identical noise on both masters.
    }
  };
  {
    // The epoll loop dispatches requests against this store.
    std::lock_guard<std::mutex> lock(server.endpoint_mutex());
    apply(socket_master);
  }
  apply(twin_master);
  ++next_cn;
}

// The transport transparency property, now across a real process-style
// boundary: a replica polling through SocketPipe -> loopback -> EpollServer
// must see byte-identical responses (canonical encoding, cookies included)
// to one polling the same master history through the in-process
// EndpointPipe, across the chaos suite's seeds.
class SocketTwin : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SocketTwin, SocketAndInProcessRunsAreBitIdentical) {
  SKIP_WITHOUT_SOCKETS();
  const std::uint64_t seed = GetParam();

  auto socket_master = make_master();
  auto twin_master = make_master();
  ReSyncMaster socket_resync(*socket_master);
  ReSyncMaster twin_resync(*twin_master);

  SocketDir dir;
  EpollServer server(socket_resync);
  const SocketAddr addr = server.listen(dir.addr("master.sock"));
  server.start();

  SocketPipe::Options pipe_options;
  pipe_options.addr = addr;
  net::FramedChannel socket_channel(
      std::make_shared<SocketPipe>(pipe_options));
  net::FramedChannel twin_channel(twin_resync);
  RecordingChannel socket_log(socket_channel);
  RecordingChannel twin_log(twin_channel);

  std::vector<std::unique_ptr<ReSyncReplica>> socket_replicas;
  std::vector<std::unique_ptr<ReSyncReplica>> twin_replicas;
  for (const Query& query : kQueries) {
    socket_replicas.push_back(std::make_unique<ReSyncReplica>(socket_log, query));
    socket_replicas.back()->start(Mode::Poll);
    twin_replicas.push_back(std::make_unique<ReSyncReplica>(twin_log, query));
    twin_replicas.back()->start(Mode::Poll);
  }

  std::mt19937 rng(static_cast<unsigned>(seed));
  int next_cn = 100;
  for (int step = 0; step < 120; ++step) {
    mutate_both(rng, next_cn, *socket_master, *twin_master, server);
    {
      std::lock_guard<std::mutex> lock(server.endpoint_mutex());
      socket_resync.pump();
    }
    twin_resync.pump();
    if (step % 7 == 0) {
      for (std::size_t i = 0; i < kQueries.size(); ++i) {
        socket_replicas[i]->poll();
        twin_replicas[i]->poll();
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(server.endpoint_mutex());
    socket_resync.pump();
  }
  twin_resync.pump();
  for (std::size_t i = 0; i < kQueries.size(); ++i) {
    socket_replicas[i]->poll();
    twin_replicas[i]->poll();
  }

  ASSERT_EQ(socket_log.log().size(), twin_log.log().size());
  for (std::size_t i = 0; i < socket_log.log().size(); ++i) {
    EXPECT_EQ(socket_log.log()[i], twin_log.log()[i])
        << "response " << i << " differs across the socket (seed " << seed
        << ")";
  }

  for (std::size_t i = 0; i < kQueries.size(); ++i) {
    EXPECT_EQ(socket_replicas[i]->content().keys(),
              twin_replicas[i]->content().keys());
    EXPECT_EQ(socket_replicas[i]->cookie(), twin_replicas[i]->cookie());
  }

  // Both seams did exact frame accounting: two frames per exchange.
  EXPECT_EQ(socket_channel.traffic().frames, 2 * socket_log.log().size());
  EXPECT_EQ(socket_channel.traffic().bytes, twin_channel.traffic().bytes);

  const EpollServer::Stats stats = server.stats();
  EXPECT_EQ(stats.frames_in, socket_log.log().size());
  EXPECT_EQ(stats.frames_out, socket_log.log().size());
  EXPECT_EQ(stats.garbled_closes, 0u);
  server.stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SocketTwin,
                         ::testing::Values(20050501u, 31337u, 777u, 424242u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& p) {
                           return "seed" + std::to_string(p.param);
                         });

// Typed protocol errors must cross the socket type-exact, just as they
// cross the EndpointPipe seam. Busy is NOT an exception at the endpoint —
// it is an in-band response flag (ReSyncReplica turns it into BusyError
// client-side) — so the wire must deliver the flagged response unchanged;
// a stale cookie IS a thrown ldap::StaleCookieError and must arrive as
// exactly that type.
TEST(SocketErrors, StaleCookieAndBusyArriveTypeExact) {
  SKIP_WITHOUT_SOCKETS();
  auto master = make_master();
  ReSyncMaster resync(*master);
  resync::ResourceLimits limits;
  limits.max_sessions = 1;
  resync.set_resource_limits(limits);

  SocketDir dir;
  EpollServer server(resync);
  const SocketAddr addr = server.listen(dir.addr("master.sock"));
  server.start();

  SocketPipe::Options pipe_options;
  pipe_options.addr = addr;
  net::FramedChannel channel(std::make_shared<SocketPipe>(pipe_options));

  // Session 1 occupies the only slot.
  const ReSyncResponse first = channel.exchange(kQueries[0], {Mode::Poll, ""});
  EXPECT_FALSE(first.cookie.empty());

  // Session 2 bounces at admission: the busy-flagged response crosses the
  // socket in-band — no session created, no transport failure.
  const ReSyncResponse bounced =
      channel.exchange(kQueries[1], {Mode::Poll, ""});
  EXPECT_TRUE(bounced.busy);
  EXPECT_TRUE(bounced.cookie.empty());
  server.with_endpoint([](resync::ReSyncEndpoint& endpoint) {
    EXPECT_EQ(static_cast<resync::ReSyncMaster&>(endpoint).session_count(), 1u);
  });

  // The master restarts; the held cookie goes stale — StaleCookieError.
  server.with_endpoint([](resync::ReSyncEndpoint& endpoint) {
    endpoint.reset();
  });
  EXPECT_THROW(channel.exchange(kQueries[0], {Mode::Poll, first.cookie}),
               ldap::StaleCookieError);
  server.stop();
}

// A garbled frame makes the connection unrecoverable: the server closes it
// (the socket spelling of EndpointPipe's "drop the frame") and the client
// surfaces TransportError, then transparently reconnects for the retry.
TEST(SocketErrors, GarbledFrameClosesConnectionAndReconnectHeals) {
  SKIP_WITHOUT_SOCKETS();
  auto master = make_master();
  ReSyncMaster resync(*master);

  SocketDir dir;
  EpollServer server(resync);
  const SocketAddr addr = server.listen(dir.addr("master.sock"));
  server.start();

  SocketPipe::Options pipe_options;
  pipe_options.addr = addr;
  auto pipe = std::make_shared<SocketPipe>(pipe_options);

  // A frame whose header is intact but whose checksum lies: the server
  // must deframe-fail and close.
  wire::Bytes corrupt = wire::ReferenceCodec::frame(
      wire::ReferenceCodec::encode_request(kQueries[0], {Mode::Poll, ""}));
  corrupt.back() ^= 0x01;
  EXPECT_THROW(pipe->transfer(corrupt), net::TransportError);

  // Bytes that are not a frame at all: rejected at the header, closed.
  wire::Bytes junk = {'G', 'E', 'T', ' ', '/', ' ', 'H', 'T', 'T', 'P',
                      '/', '1', '.', '1', '\r', '\n'};
  EXPECT_THROW(pipe->transfer(junk), net::TransportError);

  // The same pipe heals by reconnecting: a valid exchange now succeeds.
  net::FramedChannel channel(pipe);
  const ReSyncResponse response = channel.exchange(kQueries[0], {Mode::Poll, ""});
  EXPECT_FALSE(response.cookie.empty());
  EXPECT_GE(pipe->connects(), 3u);  // two garbled closes + the good run

  const EpollServer::Stats stats = server.stats();
  EXPECT_GE(stats.garbled_closes, 2u);
  server.stop();
}

// Abandon over the socket is one-way best effort, exactly like the
// in-process pipe: the session dies server-side, no response crosses back.
TEST(SocketErrors, AbandonIsOneWayAndReachesTheEndpoint) {
  SKIP_WITHOUT_SOCKETS();
  auto master = make_master();
  ReSyncMaster resync(*master);

  SocketDir dir;
  EpollServer server(resync);
  const SocketAddr addr = server.listen(dir.addr("master.sock"));
  server.start();

  SocketPipe::Options pipe_options;
  pipe_options.addr = addr;
  net::FramedChannel channel(std::make_shared<SocketPipe>(pipe_options));

  const ReSyncResponse response = channel.exchange(kQueries[0], {Mode::Poll, ""});
  channel.abandon(response.cookie);

  // The abandon is async on the loop thread; wait for it to land.
  bool gone = false;
  for (int i = 0; i < 200 && !gone; ++i) {
    {
      std::lock_guard<std::mutex> lock(server.endpoint_mutex());
      gone = resync.session_count() == 0;
    }
    if (!gone) usleep(5000);
  }
  EXPECT_TRUE(gone) << "abandon never reached the endpoint";
  EXPECT_GE(server.stats().abandons, 1u);
  server.stop();
}

// --- serve_frame: one dispatcher behind both server ends ---------------

enum class Transport { InProcess, Socket };

/// One framed link to `endpoint`: an EndpointPipe, or an EpollServer on a
/// Unix socket with a SocketPipe client. Declare it after the endpoint, so
/// the server stops before the endpoint goes.
class TestLink {
 public:
  TestLink(Transport transport, resync::ReSyncEndpoint& endpoint) {
    if (transport == Transport::InProcess) {
      channel_ = std::make_unique<net::FramedChannel>(endpoint);
      return;
    }
    server_ = std::make_unique<EpollServer>(endpoint);
    SocketPipe::Options options;
    options.addr = server_->listen(dir_.addr("serve.sock"));
    server_->start();
    pipe_ = std::make_shared<SocketPipe>(options);
    channel_ = std::make_unique<net::FramedChannel>(pipe_);
  }

  net::FramedChannel& channel() { return *channel_; }
  EpollServer* server() { return server_.get(); }
  SocketPipe* pipe() { return pipe_.get(); }

 private:
  SocketDir dir_;
  std::unique_ptr<EpollServer> server_;
  std::shared_ptr<SocketPipe> pipe_;
  std::unique_ptr<net::FramedChannel> channel_;
};

class ServeFrameTwin : public ::testing::TestWithParam<Transport> {
 protected:
  void SetUp() override {
    if (GetParam() == Transport::Socket) SKIP_WITHOUT_SOCKETS();
  }
};

// An abandon the endpoint rejects (ReSyncMaster cannot parse the cookie) is
// dropped on both ends: the one-way sender never sees the error, nothing is
// counted as abandoned, and the link keeps serving.
TEST_P(ServeFrameTwin, RejectedAbandonIsDroppedAndTheLinkStaysUsable) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  TestLink link(GetParam(), resync);

  const ReSyncResponse first =
      link.channel().exchange(kQueries[0], {Mode::Poll, ""});
  EXPECT_NO_THROW(link.channel().abandon("rs-1#x"));
  // On a socket the abandon is read before this request, in order.
  const ReSyncResponse next =
      link.channel().exchange(kQueries[0], {Mode::Poll, first.cookie});
  EXPECT_FALSE(next.cookie.empty());

  if (EpollServer* server = link.server()) {
    const EpollServer::Stats stats = server->stats();
    EXPECT_EQ(stats.frames_in, 3u);
    EXPECT_EQ(stats.frames_out, 2u);
    EXPECT_EQ(stats.abandons, 0u);
    EXPECT_EQ(stats.garbled_closes, 0u);
    EXPECT_EQ(link.pipe()->connects(), 1u);
    server->with_endpoint([](resync::ReSyncEndpoint& endpoint) {
      EXPECT_EQ(static_cast<ReSyncMaster&>(endpoint).session_count(), 1u);
    });
  } else {
    EXPECT_EQ(resync.session_count(), 1u);
  }
}

/// An endpoint whose every request and abandon throws the error `kind`
/// selects: 0 stale cookie, 1 busy, 2 protocol, 3 operation.
class ThrowingEndpoint final : public resync::ReSyncEndpoint {
 public:
  std::atomic<int> kind{0};

  ReSyncResponse handle(const Query&, const ReSyncControl&) override {
    raise();
  }
  void abandon(const std::string&) override { raise(); }
  void tick(std::uint64_t) override {}
  void reset() override {}
  const std::string& url() const override { return url_; }

 private:
  [[noreturn]] void raise() const {
    switch (kind.load()) {
      case 0: throw ldap::StaleCookieError("stale");
      case 1: throw ldap::BusyError("busy");
      case 2: throw ldap::ProtocolError("protocol");
      default:
        throw ldap::OperationError(ldap::ResultCode::NoSuchObject, "gone");
    }
  }

  std::string url_ = "ldap://throwing";
};

// Each error kind the endpoint throws reaches the client as exactly that
// type (not a base class), the operation error with its result code; the
// same kinds thrown at an abandon never reach the sender.
TEST_P(ServeFrameTwin, EndpointErrorsArriveTypeExact) {
  ThrowingEndpoint endpoint;
  TestLink link(GetParam(), endpoint);
  const std::type_index expected[] = {
      typeid(ldap::StaleCookieError), typeid(ldap::BusyError),
      typeid(ldap::ProtocolError), typeid(ldap::OperationError)};

  for (int kind = 0; kind < 4; ++kind) {
    SCOPED_TRACE("kind " + std::to_string(kind));
    endpoint.kind = kind;
    EXPECT_NO_THROW(link.channel().abandon("rs-1#1"));
    std::string direct_message;
    try {
      net::DirectChannel(endpoint).exchange(kQueries[0], {Mode::Poll, ""});
    } catch (const std::exception& e) {
      direct_message = e.what();
    }
    std::type_index thrown = typeid(void);
    std::string message;
    try {
      link.channel().exchange(kQueries[0], {Mode::Poll, ""});
    } catch (const ldap::OperationError& e) {
      thrown = typeid(e);
      message = e.what();
      EXPECT_EQ(e.code(), ldap::ResultCode::NoSuchObject);
    } catch (const std::exception& e) {
      thrown = typeid(e);
      message = e.what();
    }
    EXPECT_EQ(thrown, expected[kind]);
    // The message too arrives as a direct link throws it.
    EXPECT_EQ(message, direct_message);
  }

  if (EpollServer* server = link.server()) {
    const EpollServer::Stats stats = server->stats();
    EXPECT_EQ(stats.frames_out, 4u);
    EXPECT_EQ(stats.abandons, 0u);
    EXPECT_EQ(stats.garbled_closes, 0u);
    EXPECT_EQ(link.pipe()->connects(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, ServeFrameTwin,
                         ::testing::Values(Transport::InProcess,
                                           Transport::Socket),
                         [](const auto& p) {
                           return p.param == Transport::InProcess
                                      ? std::string("InProcess")
                                      : std::string("Socket");
                         });

// N concurrent replica connections multiplexed by one epoll loop: every
// session converges, and the server really held them all open at once.
TEST(SocketConcurrency, FourConcurrentReplicaSessionsConverge) {
  SKIP_WITHOUT_SOCKETS();
  auto master = make_master();
  ReSyncMaster resync(*master);

  SocketDir dir;
  EpollServer server(resync);
  const SocketAddr addr = server.listen(dir.addr("master.sock"));
  server.start();

  constexpr std::size_t kSessions = 4;
  std::vector<std::unique_ptr<net::FramedChannel>> channels;
  std::vector<std::unique_ptr<ReSyncReplica>> replicas;
  const Query query = Query::parse("o=xyz", Scope::Subtree, "(objectclass=person)");
  for (std::size_t i = 0; i < kSessions; ++i) {
    SocketPipe::Options pipe_options;
    pipe_options.addr = addr;
    channels.push_back(std::make_unique<net::FramedChannel>(
        std::make_shared<SocketPipe>(pipe_options)));
    replicas.push_back(std::make_unique<ReSyncReplica>(*channels[i], query));
    replicas[i]->start(Mode::Poll);
  }
  EXPECT_EQ(server.open_connections(), kSessions);

  for (int round = 0; round < 10; ++round) {
    {
      std::lock_guard<std::mutex> lock(server.endpoint_mutex());
      master->add(make_entry("cn=N" + std::to_string(round) + ",o=xyz",
                             {{"objectclass", "person"}, {"dept", "7"}}));
      resync.pump();
    }
    for (auto& replica : replicas) replica->poll();
  }

  std::vector<std::string> expected;
  {
    std::lock_guard<std::mutex> lock(server.endpoint_mutex());
    for (const ldap::EntryPtr& entry : master->evaluate(query)) {
      expected.push_back(entry->dn().norm_key());
    }
    std::sort(expected.begin(), expected.end());
  }
  for (auto& replica : replicas) {
    EXPECT_EQ(replica->content().keys(), expected);
  }
  EXPECT_EQ(server.open_connections(), kSessions);
  server.stop();
}

// A server restart severs the TCP-level connection but not the protocol:
// the pipe reconnects on the next transfer and the session resumes from
// its replay-safe cookie (the master object survived, as after a fast
// failover to a warm standby).
TEST(SocketRecovery, PipeReconnectsAfterServerRestart) {
  SKIP_WITHOUT_SOCKETS();
  auto master = make_master();
  ReSyncMaster resync(*master);

  SocketDir dir;
  const SocketAddr addr = dir.addr("master.sock");

  auto server = std::make_unique<EpollServer>(resync);
  server->listen(addr);
  server->start();

  SocketPipe::Options pipe_options;
  pipe_options.addr = addr;
  pipe_options.connect_timeout_ms = 300;
  auto pipe = std::make_shared<SocketPipe>(pipe_options);
  net::FramedChannel channel(pipe);

  const ReSyncResponse first = channel.exchange(kQueries[0], {Mode::Poll, ""});
  EXPECT_EQ(pipe->connects(), 1u);

  // Down: the next exchange fails at the transport level.
  server.reset();
  EXPECT_THROW(channel.exchange(kQueries[0], {Mode::Poll, first.cookie}),
               net::TransportError);

  // Back up on the same address: the pipe reconnects, the cookie still
  // names a live session, and the poll succeeds.
  server = std::make_unique<EpollServer>(resync);
  server->listen(addr);
  server->start();
  const ReSyncResponse resumed =
      channel.exchange(kQueries[0], {Mode::Poll, first.cookie});
  EXPECT_FALSE(resumed.cookie.empty());
  EXPECT_GE(pipe->connects(), 2u);
  server->stop();
}

// TCP loopback speaks the same frames as Unix sockets.
TEST(SocketTcp, TcpLoopbackServesTheProtocol) {
  SKIP_WITHOUT_SOCKETS();
  auto master = make_master();
  ReSyncMaster resync(*master);

  EpollServer server(resync);
  const SocketAddr bound = server.listen(SocketAddr::tcp("127.0.0.1", 0));
  EXPECT_GT(bound.port, 0);
  server.start();

  SocketPipe::Options pipe_options;
  pipe_options.addr = bound;
  net::FramedChannel channel(std::make_shared<SocketPipe>(pipe_options));
  const ReSyncResponse response =
      channel.exchange(kQueries[2], {Mode::Poll, ""});
  EXPECT_EQ(response.pdus.size(), 20u);
  server.stop();
}

// ---------------------------------------------------------------------------
// Self-defence knobs: write-buffer backpressure, idle reaping, accept caps.

/// A master fat enough that a handful of enumerations dwarfs both the
/// kernel socket buffer and a small max_write_buffer.
std::unique_ptr<server::DirectoryServer> make_fat_master(int entries) {
  auto master = std::make_unique<server::DirectoryServer>("ldap://master");
  server::NamingContext context;
  context.suffix = Dn::parse("o=xyz");
  master->add_context(std::move(context));
  master->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  const std::string padding(120, 'x');
  for (int i = 0; i < entries; ++i) {
    master->load(make_entry("cn=B" + std::to_string(i) + ",o=xyz",
                            {{"objectclass", "person"},
                             {"dept", "7"},
                             {"description", padding}}));
  }
  return master;
}

/// Raw frame client: sends encoded request frames and reassembles response
/// payloads, with no retry machinery in the way.
struct RawFrameClient {
  int fd = -1;
  FrameReassembler reassembler;

  explicit RawFrameClient(const SocketAddr& addr) {
    std::string error;
    fd = open_client(addr, 2000, &error);
    if (fd < 0) throw std::runtime_error("raw connect: " + error);
  }
  ~RawFrameClient() {
    if (fd >= 0) ::close(fd);
  }

  void send_request(const Query& query) {
    const wire::Bytes frame =
        wire::ReferenceCodec::frame(wire::ReferenceCodec::encode_request(query, {Mode::Poll, ""}));
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n =
          ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << "raw send failed: " << std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads until one whole response payload is reassembled.
  wire::Bytes read_response() {
    std::uint8_t chunk[16384];
    while (!reassembler.has_frame()) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        throw std::runtime_error("raw connection closed mid-read");
      }
      reassembler.feed(chunk, static_cast<std::size_t>(n));
    }
    return wire::ReferenceCodec::deframe(reassembler.next_frame());
  }
};

// A slow-reading client pushed past max_write_buffer: the server must pause
// reads at the limit (counted), lose and reorder nothing, and resume once
// the queue drains — bounded memory instead of unbounded buffering.
TEST(SocketBackpressure, SlowReaderIsPausedWithoutLosingOrReorderingFrames) {
  SKIP_WITHOUT_SOCKETS();
  auto master = make_fat_master(1200);
  ReSyncMaster resync(*master);

  SocketDir dir;
  EpollServer::Options options;
  options.max_write_buffer = 32u << 10;  // tiny: a single response overflows
  EpollServer server(resync, options);
  const SocketAddr addr = server.listen(dir.addr("master.sock"));
  server.start();

  // Alternate a huge enumeration (every entry) with an empty one (nothing
  // has dept=42), all on one connection, reading NOTHING back yet. The
  // size alternation later proves per-connection response order.
  RawFrameClient client(addr);
  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    client.send_request(kQueries[i % 2 == 0 ? 0 : 1]);
    if (::testing::Test::HasFatalFailure()) return;
  }

  // The responses dwarf kernel + user buffers: the loop must hit the pause.
  bool paused = false;
  for (int i = 0; i < 400 && !paused; ++i) {
    paused = server.stats().backpressure_pauses > 0;
    if (!paused) usleep(5000);
  }
  EXPECT_TRUE(paused) << "max_write_buffer never engaged";

  // Now drain: every response arrives, intact and in request order.
  for (int i = 0; i < kRequests; ++i) {
    const wire::Bytes payload = client.read_response();
    ASSERT_EQ(wire::Codec::kind_of(payload), wire::FrameKind::Response);
    const ReSyncResponse response = wire::Codec::decode_response(payload);
    const std::size_t expected = i % 2 == 0 ? 1200u : 0u;
    EXPECT_EQ(response.pdus.size(), expected)
        << "response " << i << " out of order or torn";
  }

  // And the pause was a pause, not a close: the same connection serves a
  // fresh request after the queue drained back under the watermark.
  client.send_request(kQueries[1]);
  if (::testing::Test::HasFatalFailure()) return;
  const ReSyncResponse tail =
      wire::Codec::decode_response(client.read_response());
  EXPECT_EQ(tail.pdus.size(), 0u);

  const EpollServer::Stats stats = server.stats();
  EXPECT_EQ(stats.frames_in, static_cast<std::uint64_t>(kRequests) + 1);
  EXPECT_EQ(stats.frames_out, static_cast<std::uint64_t>(kRequests) + 1);
  EXPECT_EQ(stats.garbled_closes, 0u);
  EXPECT_EQ(server.open_connections(), 1u);
  server.stop();
}

// A connection that stalls mid-conversation is reaped once idle_timeout_ms
// passes — a slow loris holds no fd forever. Control connections are
// exempt by design (ProcessTopology parks one per node).
TEST(SocketHardening, IdleFrameConnectionIsReaped) {
  SKIP_WITHOUT_SOCKETS();
  auto master = make_master();
  ReSyncMaster resync(*master);

  SocketDir dir;
  EpollServer::Options options;
  options.idle_timeout_ms = 100;
  EpollServer server(resync, options);
  const SocketAddr addr = server.listen(dir.addr("master.sock"));
  server.start();

  RawFrameClient client(addr);
  client.send_request(kQueries[0]);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(wire::Codec::kind_of(client.read_response()),
            wire::FrameKind::Response);

  // ... and then the client goes silent. The loop wakes at most 200ms
  // apart, so well within a second the connection must be gone.
  bool reaped = false;
  for (int i = 0; i < 300 && !reaped; ++i) {
    reaped = server.stats().idle_reaped > 0;
    if (!reaped) usleep(5000);
  }
  EXPECT_TRUE(reaped) << "idle connection survived its deadline";
  EXPECT_EQ(server.open_connections(), 0u);
  server.stop();
}

// Accepts beyond max_connections are shed immediately and loudly counted;
// the connections already inside keep working.
TEST(SocketHardening, AcceptsBeyondTheConnectionCapAreShed) {
  SKIP_WITHOUT_SOCKETS();
  auto master = make_master();
  ReSyncMaster resync(*master);

  SocketDir dir;
  EpollServer::Options options;
  options.max_connections = 2;
  EpollServer server(resync, options);
  const SocketAddr addr = server.listen(dir.addr("master.sock"));
  server.start();

  // Two residents first, each proven live with a full exchange.
  RawFrameClient first(addr);
  RawFrameClient second(addr);
  for (RawFrameClient* client : {&first, &second}) {
    client->send_request(kQueries[2]);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(wire::Codec::decode_response(client->read_response()).pdus.size(),
              20u);
  }

  // The third and fourth are shed at accept: a best-effort write either
  // fails outright (EPIPE) or lands in a buffer nobody will read, and the
  // next recv sees EOF/reset — never a response.
  for (int extra = 0; extra < 2; ++extra) {
    RawFrameClient shed(addr);
    const wire::Bytes frame = wire::ReferenceCodec::frame(
        wire::ReferenceCodec::encode_request(kQueries[0], {Mode::Poll, ""}));
    (void)::send(shed.fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    std::uint8_t byte = 0;
    ssize_t n;
    do {
      n = ::recv(shed.fd, &byte, 1, 0);
    } while (n < 0 && errno == EINTR);
    EXPECT_LE(n, 0) << "shed connection produced bytes";
  }

  bool counted = false;
  for (int i = 0; i < 200 && !counted; ++i) {
    counted = server.stats().shed_accepts >= 2;
    if (!counted) usleep(5000);
  }
  EXPECT_TRUE(counted) << "shed accepts never counted";
  EXPECT_EQ(server.open_connections(), 2u);

  // The residents are unharmed.
  first.send_request(kQueries[0]);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(wire::Codec::kind_of(first.read_response()),
            wire::FrameKind::Response);
  server.stop();
}


// --- Pipelining: one write per batch, replies coalesced per read batch ---

/// Poll frames for every open session, in session order.
std::vector<wire::Bytes> poll_frames(const std::vector<std::string>& cookies) {
  std::vector<wire::Bytes> frames;
  for (std::size_t i = 0; i < cookies.size(); ++i) {
    frames.push_back(wire::ReferenceCodec::frame(wire::ReferenceCodec::encode_request(
        kQueries[i % kQueries.size()], {Mode::Poll, cookies[i]})));
  }
  return frames;
}

/// Opens one poll session per kQueries entry on `channel`; returns cookies.
std::vector<std::string> open_sessions(net::Channel& channel) {
  std::vector<std::string> cookies;
  for (const Query& query : kQueries) {
    cookies.push_back(channel.exchange(query, {Mode::Poll, ""}).cookie);
  }
  return cookies;
}

// N polls carried by one transfer_all come back in request order and are
// byte-identical to N one-at-a-time transfers against a twin master that
// saw the same history.
TEST(SocketPipelining, BatchedPollsMatchSingleTransfersOnTwin) {
  SKIP_WITHOUT_SOCKETS();
  auto socket_master = make_master();
  auto twin_master = make_master();
  ReSyncMaster socket_resync(*socket_master);
  ReSyncMaster twin_resync(*twin_master);

  SocketDir dir;
  EpollServer server(socket_resync);
  const SocketAddr addr = server.listen(dir.addr("master.sock"));
  server.start();

  SocketPipe::Options pipe_options;
  pipe_options.addr = addr;
  auto pipe = std::make_shared<SocketPipe>(pipe_options);
  net::FramedChannel socket_channel(pipe);
  net::EndpointPipe twin_pipe(twin_resync);
  net::FramedChannel twin_channel(twin_resync);
  std::vector<std::string> cookies = open_sessions(socket_channel);
  ASSERT_EQ(cookies, open_sessions(twin_channel));

  std::mt19937 rng(20050501u);
  int next_cn = 100;
  for (int round = 0; round < 6; ++round) {
    for (int step = 0; step < 5; ++step) {
      mutate_both(rng, next_cn, *socket_master, *twin_master, server);
    }
    {
      std::lock_guard<std::mutex> lock(server.endpoint_mutex());
      socket_resync.pump();
    }
    twin_resync.pump();

    const std::vector<wire::Bytes> frames = poll_frames(cookies);
    std::vector<wire::Bytes> batched;
    pipe->transfer_all(frames, [&](wire::ByteSpan reply) {
      batched.emplace_back(reply.begin(), reply.end());
      return true;
    });
    ASSERT_EQ(batched.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(batched[i], twin_pipe.transfer(frames[i]))
          << "reply " << i << " of round " << round;
      const ReSyncResponse response =
          wire::Codec::decode_response(wire::ReferenceCodec::deframe(batched[i]));
      cookies[i] = response.cookie;
    }
  }
  EXPECT_EQ(pipe->connects(), 1u);
  const EpollServer::Stats stats = server.stats();
  EXPECT_EQ(stats.frames_in, 3u + 6u * 3u);
  EXPECT_EQ(stats.frames_out, stats.frames_in);
  EXPECT_EQ(stats.garbled_closes, 0u);
  server.stop();
}

// A pipelined batch larger than the server's 16 KiB read chunk reaches it
// over several readable events, one read each; every reply still comes
// back, in request order, byte-identical to the in-process twin's.
TEST(SocketPipelining, BatchLargerThanOneReadIsServedWhole) {
  SKIP_WITHOUT_SOCKETS();
  auto socket_master = make_master();
  auto twin_master = make_master();
  ReSyncMaster socket_resync(*socket_master);
  ReSyncMaster twin_resync(*twin_master);

  SocketDir dir;
  EpollServer server(socket_resync);
  SocketPipe::Options pipe_options;
  pipe_options.addr = server.listen(dir.addr("master.sock"));
  server.start();
  SocketPipe pipe(pipe_options);
  net::EndpointPipe twin_pipe(twin_resync);

  // Initial requests whose filters carry a long value: about 3 KiB a frame.
  const std::string padding(3000, 'x');
  std::vector<wire::Bytes> frames;
  std::size_t batch_bytes = 0;
  for (int i = 0; i < 8; ++i) {
    const Query query = Query::parse(
        "o=xyz", Scope::Subtree,
        "(|(dept=7)(description=" + padding + std::to_string(i) + "))");
    frames.push_back(wire::ReferenceCodec::frame(
        wire::ReferenceCodec::encode_request(query, {Mode::Poll, ""})));
    batch_bytes += frames.back().size();
  }
  ASSERT_GT(batch_bytes, 16384u);

  std::vector<wire::Bytes> replies;
  pipe.transfer_all(frames, [&](wire::ByteSpan reply) {
    replies.emplace_back(reply.begin(), reply.end());
    return true;
  });
  ASSERT_EQ(replies.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(replies[i], twin_pipe.transfer(frames[i])) << "reply " << i;
  }
  EXPECT_EQ(pipe.connects(), 1u);
  const EpollServer::Stats stats = server.stats();
  EXPECT_EQ(stats.frames_in, frames.size());
  EXPECT_EQ(stats.frames_out, frames.size());
  EXPECT_EQ(stats.garbled_closes, 0u);
  server.stop();
}

// A protocol rejection in the middle of a batch is that item's answer
// alone: the stale cookie's error frame rethrows type-exact from its own
// item, and the items around it decode normally.
TEST(SocketPipelining, StaleCookieMidBatchReachesOnlyItsItem) {
  SKIP_WITHOUT_SOCKETS();
  auto master = make_master();
  ReSyncMaster resync(*master);

  SocketDir dir;
  EpollServer server(resync);
  const SocketAddr addr = server.listen(dir.addr("master.sock"));
  server.start();

  SocketPipe::Options pipe_options;
  pipe_options.addr = addr;
  net::FramedChannel channel(std::make_shared<SocketPipe>(pipe_options));
  const std::vector<std::string> cookies = open_sessions(channel);

  std::vector<net::ExchangeItem> items = {
      {kQueries[0], {Mode::Poll, cookies[0]}},
      {kQueries[1], {Mode::Poll, "rs-4242#1"}},
      {kQueries[2], {Mode::Poll, cookies[2]}},
  };
  channel.exchange_all(items);
  for (const net::ExchangeItem& item : items) {
    EXPECT_TRUE(item.response.has_value() || item.error != nullptr);
  }
  ASSERT_TRUE(items[0].response.has_value());
  ASSERT_TRUE(items[2].response.has_value());
  EXPECT_FALSE(items[0].response->cookie.empty());
  EXPECT_FALSE(items[2].response->cookie.empty());
  ASSERT_FALSE(items[1].response.has_value());
  ASSERT_NE(items[1].error, nullptr);
  EXPECT_THROW(std::rethrow_exception(items[1].error), ldap::StaleCookieError);

  // The sessions around the rejection advanced: their next polls succeed.
  EXPECT_NO_THROW(channel.exchange(kQueries[0],
                                   {Mode::Poll, items[0].response->cookie}));
  EXPECT_NO_THROW(channel.exchange(kQueries[2],
                                   {Mode::Poll, items[2].response->cookie}));
  // Six request frames, six replies; the batch counted like three exchanges.
  EXPECT_EQ(channel.traffic().round_trips, 8u);
  EXPECT_EQ(channel.traffic().frames, 16u);
  server.stop();
}

/// Damages the request frame at `index` of every batch (a valid header
/// over a lying checksum), so the server closes the connection there.
class DamagingPipe final : public net::BytePipe {
 public:
  DamagingPipe(std::shared_ptr<SocketPipe> inner, std::size_t index)
      : inner_(std::move(inner)), index_(index) {}

  wire::Bytes transfer(const wire::Bytes& frame) override {
    return inner_->transfer(frame);
  }
  void transfer_all(const std::vector<wire::Bytes>& frames,
                    const ReplySink& on_reply) override {
    std::vector<wire::Bytes> damaged = frames;
    if (index_ < damaged.size()) damaged[index_].back() ^= 0x01;
    inner_->transfer_all(damaged, on_reply);
  }
  void send(const wire::Bytes& frame) override { inner_->send(frame); }
  void elapse(std::uint64_t ticks) override { inner_->elapse(ticks); }

 private:
  std::shared_ptr<SocketPipe> inner_;
  std::size_t index_;
};

// A peer that closes mid-batch fails the batch from the first unanswered
// item on: the items it answered keep their replies, the item it dropped
// carries TransportError, the rest were not sent — and the next call
// reconnects transparently.
TEST(SocketPipelining, PeerCloseMidBatchFailsFromFirstUnansweredItem) {
  SKIP_WITHOUT_SOCKETS();
  auto master = make_master();
  ReSyncMaster resync(*master);

  SocketDir dir;
  EpollServer server(resync);
  const SocketAddr addr = server.listen(dir.addr("master.sock"));
  server.start();

  SocketPipe::Options pipe_options;
  pipe_options.addr = addr;
  auto socket = std::make_shared<SocketPipe>(pipe_options);
  net::FramedChannel channel(std::make_shared<DamagingPipe>(socket, 1));
  const std::vector<std::string> cookies = open_sessions(channel);

  std::vector<net::ExchangeItem> items;
  for (std::size_t i = 0; i < kQueries.size(); ++i) {
    items.emplace_back(kQueries[i], ReSyncControl{Mode::Poll, cookies[i]});
  }
  channel.exchange_all(items);
  EXPECT_TRUE(items[0].response.has_value());
  ASSERT_FALSE(items[1].response.has_value());
  ASSERT_NE(items[1].error, nullptr);
  EXPECT_THROW(std::rethrow_exception(items[1].error), net::TransportError);
  EXPECT_FALSE(items[2].response.has_value());
  EXPECT_EQ(items[2].error, nullptr);
  EXPECT_FALSE(socket->connected());

  // Two items got an outcome; the unsent third is not counted.
  EXPECT_EQ(channel.traffic().round_trips, 3u + 2u);

  // The next call reconnects, and the dropped item's session still answers.
  const ReSyncResponse healed =
      channel.exchange(kQueries[1], {Mode::Poll, cookies[1]});
  EXPECT_FALSE(healed.cookie.empty());
  EXPECT_EQ(socket->connects(), 2u);
  EXPECT_GE(server.stats().garbled_closes, 1u);
  server.stop();
}

// The control plane pipelines too: an erroring command in the middle of a
// request_all batch still has every reply consumed, so the stream stays in
// sync and the next request reads its own reply.
TEST(SocketPipelining, ControlRequestAllConsumesEveryReply) {
  SKIP_WITHOUT_SOCKETS();
  auto master = make_master();
  ReSyncMaster resync(*master);

  SocketDir dir;
  EpollServer server(resync);
  std::vector<std::string> seen;  // loop thread only until stop()
  const SocketAddr control = server.listen_control(
      dir.addr("control.sock"), [&seen](const std::string& line) {
        seen.push_back(line);
        if (line == "fail") return std::string("err boom\n");
        return "ok 2\n" + line + "\nsecond\n";
      });
  server.start();

  ControlClient client(control);
  try {
    client.request_all({"one", "fail", "three"});
    ADD_FAILURE() << "request_all swallowed the error reply";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("boom"), std::string::npos)
        << error.what();
  }
  // In sync: the next request reads its own reply, not a leftover.
  EXPECT_EQ(client.request("four"),
            (std::vector<std::string>{"four", "second"}));
  const auto payloads = client.request_all({"five", "six"});
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], (std::vector<std::string>{"five", "second"}));
  EXPECT_EQ(payloads[1], (std::vector<std::string>{"six", "second"}));
  server.stop();
  EXPECT_EQ(seen, (std::vector<std::string>{"one", "fail", "three", "four",
                                            "five", "six"}));
}

// A client may send its last requests and shut its write side down before
// reading (socat at stdin EOF does). The replies the server owes that read
// batch still reach it — frames and control lines alike — before the close.
TEST(SocketPipelining, HalfClosedPeerStillReadsItsReplies) {
  SKIP_WITHOUT_SOCKETS();
  auto master = make_master();
  ReSyncMaster resync(*master);

  SocketDir dir;
  EpollServer server(resync);
  const SocketAddr data = server.listen(dir.addr("master.sock"));
  const SocketAddr control = server.listen_control(
      dir.addr("control.sock"), [](const std::string& line) {
        if (line == "fail") return std::string("err boom\n");
        return "ok 1\n" + line + "\n";
      });
  server.start();

  RawFrameClient frames(data);
  frames.send_request(kQueries[0]);
  frames.send_request(kQueries[1]);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_EQ(::shutdown(frames.fd, SHUT_WR), 0);
  EXPECT_EQ(wire::Codec::kind_of(frames.read_response()),
            wire::FrameKind::Response);
  EXPECT_EQ(wire::Codec::kind_of(frames.read_response()),
            wire::FrameKind::Response);

  std::string error;
  const int fd = open_client(control, 2000, &error);
  ASSERT_GE(fd, 0) << error;
  const std::string lines = "keys\nfail\n";
  ASSERT_EQ(::send(fd, lines.data(), lines.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(lines.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  std::string replies;
  char chunk[256];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    replies.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(replies, "ok 1\nkeys\nerr boom\n");
  server.stop();
}

// --- persist push --------------------------------------------------------

/// A relay replicating (dept=7) from a master served over a Unix socket:
/// the relay's upstream session persists, since its channel carries pushes.
class PersistLink {
 public:
  PersistLink() : master_(make_master()), resync_(*master_) {
    start_server();
    SocketPipe::Options pipe_options;
    pipe_options.addr = addr_;
    pipe_options.connect_timeout_ms = 300;
    pipe_ = std::make_shared<SocketPipe>(pipe_options);
    channel_ = std::make_shared<net::FramedChannel>(pipe_);
    topology::RelayNode::Config config;
    config.name = "relay";
    config.suffix = Dn::parse("o=xyz");
    relay_ = std::make_unique<topology::RelayNode>(config);
    relay_->connect(channel_, "ldap://master");
    relay_->add_filter(kQueries[0]);
  }
  ~PersistLink() { server_->stop(); }

  /// Replaces the server with a new one on the same address: every
  /// connection of the old one closes.
  void start_server() {
    server_.reset();
    server_ = std::make_unique<EpollServer>(resync_);
    addr_ = server_->listen(dir_.addr("master.sock"));
    server_->start();
  }

  /// Adds a (dept=7) entry at the master and pumps it into the sessions.
  void commit(const std::string& cn) {
    std::lock_guard<std::mutex> lock(server_->endpoint_mutex());
    master_->add(make_entry("cn=" + cn + ",o=xyz",
                            {{"objectclass", "person"}, {"dept", "7"}}));
    resync_.pump();
  }

  bool relay_holds(const std::string& cn) const {
    return relay_->mirror().dit().contains(Dn::parse("cn=" + cn + ",o=xyz"));
  }

  /// Takes pushes until `cn` arrived, or five seconds passed.
  bool take_until(const std::string& cn) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!relay_holds(cn) && std::chrono::steady_clock::now() < deadline) {
      relay_->take_pushes();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return relay_holds(cn);
  }

  std::size_t bound_sessions() {
    std::lock_guard<std::mutex> lock(server_->endpoint_mutex());
    return resync_.bound_sessions();
  }

  std::uint64_t frames_in() const { return server_->stats().frames_in; }

  std::unique_ptr<server::DirectoryServer> master_;
  ReSyncMaster resync_;
  SocketDir dir_;
  SocketAddr addr_;
  std::unique_ptr<EpollServer> server_;
  std::shared_ptr<SocketPipe> pipe_;
  std::shared_ptr<net::FramedChannel> channel_;
  std::unique_ptr<topology::RelayNode> relay_;
};

TEST(SocketPersist, SessionReceivesPushesWithoutPolling) {
  SKIP_WITHOUT_SOCKETS();
  PersistLink link;
  ASSERT_TRUE(link.relay_->install_all());
  EXPECT_EQ(link.bound_sessions(), 1u);
  const std::uint64_t frames = link.frames_in();

  link.commit("P1");
  ASSERT_TRUE(link.take_until("P1"));
  link.commit("P2");
  ASSERT_TRUE(link.take_until("P2"));
  // A round after pushes reached the session sends nothing upstream.
  link.relay_->sync();
  EXPECT_EQ(link.frames_in(), frames);
  EXPECT_EQ(link.relay_->upstream_total().recoveries, 0u);
}

TEST(SocketPersist, LostLastPushHealsInOnePoll) {
  SKIP_WITHOUT_SOCKETS();
  PersistLink link;
  ASSERT_TRUE(link.relay_->install_all());
  const std::uint64_t frames = link.frames_in();

  // The push for P1 is read off the link and dropped: the relay never
  // sees it.
  link.commit("P1");
  std::vector<ReSyncResponse> lost;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (lost.empty() && std::chrono::steady_clock::now() < deadline) {
    link.channel_->take_pushes(lost);
  }
  ASSERT_EQ(lost.size(), 1u);
  ASSERT_FALSE(lost.front().pdus.empty());
  EXPECT_FALSE(link.relay_holds("P1"));

  // Nothing reached the session since the last round, so the round polls
  // with the cookie the lost push answered: the replay cache sends it back.
  link.relay_->sync();
  EXPECT_TRUE(link.relay_holds("P1"));
  EXPECT_EQ(link.frames_in(), frames + 1);
  EXPECT_EQ(link.relay_->upstream_total().recoveries, 0u);

  // Still bound: the next change is pushed again.
  link.commit("P2");
  ASSERT_TRUE(link.take_until("P2"));
  EXPECT_EQ(link.frames_in(), frames + 1);
}

TEST(SocketPersist, BrokenStreamFallsBackToPollingAndConverges) {
  SKIP_WITHOUT_SOCKETS();
  PersistLink link;
  ASSERT_TRUE(link.relay_->install_all());
  EXPECT_EQ(link.bound_sessions(), 1u);

  // The server goes away with the connection; its session is unbound and
  // keeps the next change as history instead of pushing it.
  link.start_server();
  EXPECT_EQ(link.bound_sessions(), 0u);
  link.commit("P1");
  link.relay_->take_pushes();  // reads the end of the stream
  EXPECT_FALSE(link.relay_holds("P1"));
  EXPECT_FALSE(link.pipe_->connected());

  // The round polls on a new connection, which binds the session again.
  link.relay_->sync();
  EXPECT_TRUE(link.relay_holds("P1"));
  EXPECT_EQ(link.bound_sessions(), 1u);
  EXPECT_EQ(link.pipe_->connects(), 2u);
  link.commit("P2");
  ASSERT_TRUE(link.take_until("P2"));
  EXPECT_EQ(link.relay_->upstream_total().recoveries, 0u);
  EXPECT_FALSE(link.relay_->upstream_total().degraded);
}

}  // namespace
}  // namespace fbdr::netio
