// The fbdr_node control plane, pinned reply by reply: a root and a relay
// NodeHost run in-process (listen(), then server().start()) and a
// ControlClient drives every command of control.h through them, plus the
// malformed lines a client can send — a missing '|', an unknown op, an
// empty spec, runs of spaces and tabs. Every reply is compared byte for
// byte ("ok <n>\n" + payload lines, or "err <message>\n"), so a change to
// how the handlers parse a line cannot change what they answer.
//
// Skips loudly when the sandbox forbids sockets.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "netio/control.h"
#include "netio/node_host.h"
#include "netio/socket_addr.h"

namespace fbdr::netio {
namespace {

#define SKIP_WITHOUT_SOCKETS()                                        \
  do {                                                                \
    std::string reason;                                               \
    if (!sockets_available(&reason)) {                                \
      GTEST_SKIP() << "SKIPPING: sandbox forbids sockets (" << reason \
                   << ") — the control plane is untested here";       \
    }                                                                 \
  } while (0)

/// The exact reply bytes of one command, rebuilt from what ControlClient
/// hands back: the payload of an "ok", or the message of an "err".
std::string reply_bytes(ControlClient& client, const std::string& line) {
  try {
    const std::vector<std::string> payload = client.request(line);
    std::string reply = "ok " + std::to_string(payload.size()) + "\n";
    for (const std::string& row : payload) reply += row + "\n";
    return reply;
  } catch (const std::runtime_error& error) {
    const std::string prefix = "control command '" + line + "' failed: ";
    const std::string what = error.what();
    if (what.rfind(prefix, 0) != 0) throw;
    return "err " + what.substr(prefix.size()) + "\n";
  }
}

struct Row {
  const char* node;  // "root" or "relay"
  const char* line;
  const char* reply;
};

// In order: each reply depends on the commands before it.
const Row kRows[] = {
    // Liveness, the unknown and the empty command.
    {"root", "ping", "ok 0\n"},
    {"root", "ping  trailing words", "ok 0\n"},
    {"root", "", "err unknown command: \n"},
    {"root", "bogus arg", "err unknown command: bogus\n"},
    {"root", "   ping", "ok 0\n"},
    // Relay-only commands on the root, root-only commands on the relay.
    {"root", "install o=xyz|sub|(cn=*)", "err install: not a relay\n"},
    {"root", "installall", "err installall: not a relay\n"},
    {"root", "sync", "err sync: not a relay\n"},
    {"relay", "pump", "err pump: not the root\n"},
    {"relay", "apply add cn=x,o=xyz|sn=x", "err apply: not the root\n"},
    // The clock: a missing count is one tick, tabs separate like spaces.
    // A count is one decimal word below 2^64; anything else is refused and
    // leaves the clock alone, so the root's "now" below counts 1+2+1+2.
    {"root", "tick", "ok 0\n"},
    {"root", "tick 2", "ok 0\n"},
    {"root", "tick\t1", "ok 0\n"},
    {"root", "tick abc", "err tick: bad count: abc\n"},
    {"root", "tick 2x", "err tick: bad count: 2x\n"},
    {"root", "tick -1", "err tick: bad count: -1\n"},
    {"root", "tick 18446744073709551616",
     "err tick: bad count: 18446744073709551616\n"},
    {"root", "tick 2", "ok 0\n"},
    // Journaled writes, well formed and with runs of spaces.
    {"root", "apply add cn=e001,o=xyz|objectclass=person;serialnumber=001",
     "ok 0\n"},
    {"root", "apply   add    cn=e002,o=xyz|objectclass=person;serialnumber=002",
     "ok 0\n"},
    {"root", "apply\tadd cn=e010,o=xyz|objectclass=person;serialnumber=010;;",
     "ok 0\n"},
    {"root", "apply add cn=e003,o=xyz|objectclass=person;serialnumber=003,004",
     "ok 0\n"},
    {"root", "apply mod cn=e001,o=xyz|serialnumber=005", "ok 0\n"},
    {"root", "apply del cn=e003,o=xyz", "ok 0\n"},
    // Malformed applies.
    {"root", "apply add cn=e004,o=xyz", "err apply add: missing '|'\n"},
    {"root", "apply mod cn=e004,o=xyz", "err apply mod: missing '|'\n"},
    {"root", "apply add", "err apply add: missing '|'\n"},
    {"root", "apply", "err apply : missing '|'\n"},
    {"root", "apply   ", "err apply : missing '|'\n"},
    {"root", "apply frob cn=e004,o=xyz|sn=x",
     "err apply: op must be add|del|mod\n"},
    {"root", "apply add cn=e004,o=xyz|noequals",
     "err attribute without '=': noequals\n"},
    {"root", "apply add cn=e002,o=xyz|objectclass=person",
     "err entryAlreadyExists: cn=e002,o=xyz\n"},
    {"root", "apply mod cn=e404,o=xyz|sn=x",
     "err noSuchObject: cn=e404,o=xyz\n"},
    {"root", "apply del cn=e404,o=xyz", "err noSuchObject: cn=e404,o=xyz\n"},
    {"root", "apply add |sn=x",
     "err namingViolation: cannot add the root DSE\n"},
    {"root", "apply del", "err noSuchObject: \n"},
    {"root", "apply add cn=e005,o=xyz|objectclass=person;serialnumber=006  ",
     "ok 0\n"},
    // Content queries.
    {"root", "keys o=xyz|sub|(objectclass=person)",
     "ok 4\n"
     "cn=e001,o=xyz\n"
     "cn=e002,o=xyz\n"
     "cn=e005,o=xyz\n"
     "cn=e010,o=xyz\n"},
    {"root", "keys   o=xyz|sub|(serialnumber=00*)",
     "ok 3\n"
     "cn=e001,o=xyz\n"
     "cn=e002,o=xyz\n"
     "cn=e005,o=xyz\n"},
    {"root", "keys o=xyz|one|(serialnumber=01*)", "ok 1\ncn=e010,o=xyz\n"},
    {"root", "keys o=xyz|base|(objectclass=*)", "ok 1\no=xyz\n"},
    {"root", "keys o=xyz|bogus|(cn=*)",
     "err scope must be base|one|sub: bogus\n"},
    {"root", "keys o=xyz|sub",
     "err query spec must be base|scope|filter: o=xyz|sub\n"},
    {"root", "keys", "err query spec must be base|scope|filter: \n"},
    {"root", "keys o=xyz|sub|(cn=",
     "err filter parse error at offset 4 in '(cn=': empty assertion value\n"},
    {"root", "pump", "ok 0\n"},
    // The relay: filters, install, a sync round, its content and health.
    {"relay", "install o=xyz|sub|(serialnumber=0*)", "ok 0\n"},
    {"relay", "install    o=xyz|sub|(serialnumber=00*)", "ok 0\n"},
    {"relay", "install o=xyz|sub|(serialnumber=0*)", "ok 0\n"},
    {"relay", "install o=xyz|sub",
     "err query spec must be base|scope|filter: o=xyz|sub\n"},
    {"relay", "install", "err query spec must be base|scope|filter: \n"},
    {"relay", "installall", "ok 1\n1\n"},
    {"root", "apply mod cn=e002,o=xyz|serialnumber=007", "ok 0\n"},
    {"root", "pump", "ok 0\n"},
    {"root", "tick 1", "ok 0\n"},
    {"relay", "sync", "ok 0\n"},
    {"relay", "keys o=xyz|sub|(serialnumber=0*)",
     "ok 4\n"
     "cn=e001,o=xyz\n"
     "cn=e002,o=xyz\n"
     "cn=e005,o=xyz\n"
     "cn=e010,o=xyz\n"},
    {"relay", "keys o=xyz|sub|(serialnumber=1*)", "ok 0\n"},
    {"relay", "tick 3", "ok 0\n"},
    {"relay", "health",
     "ok 18\n"
     "role relay\n"
     "epoch 0\n"
     "recoveries 0\n"
     "degraded 0\n"
     "failed_streak 0\n"
     "root_time 7\n"
     "full_reloads 0\n"
     "reconciles 0\n"
     "sessions 0\n"
     "journal_records 0\n"
     "journal_trimmed_up_to 6\n"
     "frames_in 0\n"
     "frames_out 0\n"
     "connections 0\n"
     "garbled_closes 0\n"
     "backpressure 0\n"
     "idle_reaped 0\n"
     "shed_accepts 0\n"},
    {"root", "health",
     "ok 12\n"
     "role root\n"
     "sessions 2\n"
     "now 7\n"
     "journal_records 0\n"
     "journal_trimmed_up_to 8\n"
     "frames_in 2\n"
     "frames_out 2\n"
     "connections 1\n"
     "garbled_closes 0\n"
     "backpressure 0\n"
     "idle_reaped 0\n"
     "shed_accepts 0\n"},
    {"relay", "quit", "ok 0\n"},
    {"root", "quit now", "ok 0\n"},
};

TEST(ControlPlane, EveryReplyIsPinnedByteForByte) {
  SKIP_WITHOUT_SOCKETS();
  char templ[] = "/tmp/fbdr_ctl_XXXXXX";
  ASSERT_NE(::mkdtemp(templ), nullptr);
  const std::string dir = templ;

  NodeHost::Options root_options;
  root_options.role = NodeHost::Role::Root;
  root_options.name = "root";
  root_options.listen = SocketAddr::unix_path(dir + "/root.sock");
  root_options.control = SocketAddr::unix_path(dir + "/root.ctl");
  NodeHost root(root_options);
  root.listen();
  root.server().start();

  NodeHost::Options relay_options;
  relay_options.role = NodeHost::Role::Relay;
  relay_options.name = "relay";
  relay_options.listen = SocketAddr::unix_path(dir + "/relay.sock");
  relay_options.control = SocketAddr::unix_path(dir + "/relay.ctl");
  relay_options.parent = root_options.listen;
  relay_options.parent_url = "ldap://root";
  NodeHost relay(relay_options);
  relay.listen();
  relay.server().start();

  ControlClient root_client(root_options.control, 5000);
  ControlClient relay_client(relay_options.control, 5000);
  for (const Row& row : kRows) {
    ControlClient& client =
        std::string(row.node) == "root" ? root_client : relay_client;
    EXPECT_EQ(reply_bytes(client, row.line), row.reply)
        << row.node << " <- '" << row.line << "'";
  }
  relay.server().stop();
  root.server().stop();
  std::system(("rm -rf " + dir).c_str());
}

// The status line comes from another process: "ok " must carry a count of
// one or more digits that fits, else the client refuses the reply instead
// of reading it as some number of payload lines.
TEST(ControlPlane, MalformedReplyCountIsRefused) {
  SKIP_WITHOUT_SOCKETS();
  for (const std::string status :
       {"ok ", "ok x", "ok 1x", "ok -1", "ok 99999999999999999999999"}) {
    SocketAddr bound;
    std::string error;
    const int listener = open_listener(SocketAddr::tcp("127.0.0.1", 0),
                                       kListenBacklog, &bound, &error);
    ASSERT_GE(listener, 0) << error;
    ControlClient client(bound, 5000);
    client.send({"ping"});
    const int peer = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(peer, 0);
    const std::string reply = status + "\n";
    ASSERT_TRUE(send_all(peer, reply.data(), reply.size()));
    try {
      client.finish();
      ADD_FAILURE() << "accepted '" << status << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "malformed control reply: " + status);
    }
    ::close(peer);
    ::close(listener);
  }
}

}  // namespace
}  // namespace fbdr::netio
