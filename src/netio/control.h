#pragma once

#include <chrono>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "netio/socket_addr.h"

namespace fbdr::netio {

/// Client side of the fbdr_node control plane.
///
/// The control plane is a deliberately boring line protocol, separate from
/// the wire frame codec: one text command per line, one reply of
///
///   ok <n>\n        followed by n payload lines, or
///   err <message>\n
///
/// It exists so the topology driver can do to a node process exactly what
/// TopologyRuntime does to an in-process node — add filters, drive sync
/// rounds, apply master writes, advance logical time, inspect content —
/// without those operations racing the frame traffic: the node handles
/// control lines on the same epoll loop thread that dispatches frames.
///
/// Each node has its own connection, so a caller can keep several nodes
/// busy at once: ProcessTopology's tree driver send()s "sync" to every
/// relay of one depth before it finish()es any of them, and same-depth
/// siblings overlap their upstream polls on their parent (each on its own
/// session, against a parent whose content does not move until its own,
/// shallower level syncs).
///
/// Commands (role in parens when restricted):
///
///   ping                                     liveness probe
///   install <base>|<scope>|<filter>   (relay) declare a replicated query
///   installall                        (relay) install_all(); payload "1"/"0"
///   sync                              (relay) one upstream sync round
///   take                              (relay) apply and forward the pushes
///                                            waiting on the upstream link
///   pump                              (root)  route journal into sessions
///   tick [<n>]                               advance the logical clock n
///                                            ticks (default 1; n is one
///                                            decimal word below 2^64)
///   apply add <dn>|<a>=<v1>,<v2>;...  (root)  journaled add
///   apply del <dn>                    (root)  journaled delete
///   apply mod <dn>|<a>=<v1>,<v2>      (root)  journaled replace
///   keys <base>|<scope>|<filter>             sorted norm keys of the local
///                                            content matching the query
///   health                                   "key value" lines (epoch,
///                                            recoveries, degraded,
///                                            journal_records, ...)
///   quit                                     stop the node's loop
///
/// <scope> is base|one|sub. Attribute values in apply must not contain the
/// '|' ';' ',' '=' delimiters or newlines — the topology tests' fixtures
/// never do, and the control plane is a test/driver surface, not the
/// replication protocol (which ships length-prefixed TLV frames precisely
/// so it never has this restriction).
class ControlClient {
 public:
  /// Connects within `timeout_ms`; every reply must then arrive within
  /// `timeout_ms` of the wait for it.
  ControlClient(const SocketAddr& addr, int timeout_ms = 10000);
  ~ControlClient();

  ControlClient(const ControlClient&) = delete;
  ControlClient& operator=(const ControlClient&) = delete;

  /// Sends one command line, returns the payload lines of an "ok" reply.
  /// Throws std::runtime_error on "err", transport failure or timeout.
  std::vector<std::string> request(const std::string& line);

  /// Pipelined: send(lines), then finish(). Returns the payloads.
  std::vector<std::vector<std::string>> request_all(
      const std::vector<std::string>& lines);

  /// First half of a pipelined exchange: writes every line in one send and
  /// reads nothing. A caller can send() to several nodes before it
  /// finish()es any of them, so the nodes work at once.
  void send(const std::vector<std::string>& lines);

  /// Second half: reads the reply of every line sent and not yet answered,
  /// in order, and returns their payloads. All are consumed even when one
  /// is "err", so the stream stays in step; the first error is then thrown.
  /// A transport failure (timeout, closed connection, garbled reply) closes
  /// the client, and its later calls throw: a late reply can never be read
  /// as the answer to a later command.
  std::vector<std::vector<std::string>> finish();

  /// health command parsed into a key -> value map.
  std::map<std::string, std::string> health();

 private:
  /// The next reply line without its '\n': a view into buffer_, valid
  /// until the next read_line.
  std::string_view read_line(std::chrono::steady_clock::time_point deadline);
  /// Reads one reply to `line`, all of it within timeout_ms: its payload,
  /// or the error message in *error.
  std::vector<std::string> read_reply(const std::string& line,
                                      std::string* error);

  /// Closes the connection after a transport failure.
  void fail();

  int fd_ = -1;
  int timeout_ms_;
  std::string buffer_;
  std::size_t read_pos_ = 0;  // buffer_ before this offset is read
  std::vector<std::string> unanswered_;  // lines sent, replies not yet read
  SocketAddr addr_;
};

}  // namespace fbdr::netio
