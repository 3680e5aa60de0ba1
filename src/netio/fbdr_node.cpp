// fbdr_node: one replication node as one OS process.
//
//   fbdr_node --role root  --name root --suffix o=xyz
//             --listen unix:/tmp/t/root.sock --control unix:/tmp/t/root.ctl
//   fbdr_node --role relay --name d1 --suffix o=xyz
//             --listen unix:/tmp/t/d1.sock --control unix:/tmp/t/d1.ctl
//             --parent unix:/tmp/t/root.sock --parent-url ldap://root
//
// The process serves the ReSync protocol as wire frames on --listen and the
// line-based control plane (see src/netio/control.h) on --control, both off
// one single-threaded epoll loop. ProcessTopology fork/execs these and
// drives the tree through the control plane; the README quickstart drives
// them by hand with socat/nc.

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include "ldap/text.h"
#include "netio/node_host.h"

namespace {

[[noreturn]] void usage(const char* reason) {
  std::fprintf(stderr,
               "fbdr_node: %s\n"
               "usage: fbdr_node --role root|relay --name <name> "
               "--listen <addr> --control <addr>\n"
               "       [--suffix <dn>] [--parent <addr> --parent-url <url>]\n"
               "       [--session-limit <ticks>] [--retry-attempts <n>]\n"
               "       [--io-timeout-ms <ms>] [--connect-timeout-ms <ms>]\n"
               "       [--idle-timeout-ms <ms>] [--max-conns <n>]\n"
               "       [--crash-on-start] [--ready-fd <fd>]\n"
               "addresses: tcp:host:port or unix:/path\n",
               reason);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using fbdr::netio::NodeHost;
  using fbdr::netio::SocketAddr;

  NodeHost::Options options;
  bool have_role = false, have_listen = false, have_control = false;
  bool have_parent = false, crash_on_start = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    // A count or duration: all digits, at most `max`.
    const auto number = [&](std::uint64_t max) -> std::uint64_t {
      const std::string text = value();
      const std::optional<std::uint64_t> n = fbdr::ldap::text::parse_u64(text);
      if (!n || *n > max) usage((arg + ": bad number '" + text + "'").c_str());
      return *n;
    };
    try {
      if (arg == "--role") {
        const std::string role = value();
        if (role == "root") {
          options.role = NodeHost::Role::Root;
        } else if (role == "relay") {
          options.role = NodeHost::Role::Relay;
        } else {
          usage("--role must be root or relay");
        }
        have_role = true;
      } else if (arg == "--name") {
        options.name = value();
      } else if (arg == "--suffix") {
        options.suffix = value();
      } else if (arg == "--listen") {
        options.listen = SocketAddr::parse(value());
        have_listen = true;
      } else if (arg == "--control") {
        options.control = SocketAddr::parse(value());
        have_control = true;
      } else if (arg == "--parent") {
        options.parent = SocketAddr::parse(value());
        have_parent = true;
      } else if (arg == "--parent-url") {
        options.parent_url = value();
      } else if (arg == "--session-limit") {
        options.session_time_limit = number(UINT64_MAX);
      } else if (arg == "--retry-attempts") {
        options.retry.max_attempts = number(SIZE_MAX);
      } else if (arg == "--io-timeout-ms") {
        options.io_timeout_ms = static_cast<int>(number(INT_MAX));
      } else if (arg == "--connect-timeout-ms") {
        options.connect_timeout_ms = static_cast<int>(number(INT_MAX));
      } else if (arg == "--idle-timeout-ms") {
        options.idle_timeout_ms = static_cast<int>(number(INT_MAX));
      } else if (arg == "--max-conns") {
        options.max_connections = number(SIZE_MAX);
      } else if (arg == "--ready-fd") {
        // Set by a spawning parent (ProcessTopology): the write end of its
        // readiness pipe.
        options.ready_fd = static_cast<int>(number(INT_MAX));
      } else if (arg == "--crash-on-start") {
        // Supervision regression hook: die before serving anything, as a
        // node whose binary/config is broken would.
        crash_on_start = true;
      } else {
        usage(("unknown argument: " + arg).c_str());
      }
    } catch (const std::exception& e) {
      usage(e.what());
    }
  }

  if (!have_role) usage("--role is required");
  if (options.name.empty()) usage("--name is required");
  if (!have_listen || !have_control) usage("--listen and --control are required");
  if (options.role == NodeHost::Role::Relay && !have_parent) {
    usage("a relay needs --parent");
  }
  if (options.parent_url.empty() && have_parent) {
    options.parent_url = "ldap://parent";
  }
  if (crash_on_start) {
    std::fprintf(stderr, "fbdr_node: --crash-on-start\n");
    return 3;
  }

  try {
    NodeHost host(std::move(options));
    host.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fbdr_node: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
