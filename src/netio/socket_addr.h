#pragma once

#include <sys/uio.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace fbdr::netio {

/// A transport address the socket layer can listen on or connect to:
///
///   "tcp:<host>:<port>"   TCP over loopback or a real interface; port 0
///                         asks the kernel for a free port (the bound
///                         address reports the resolved one)
///   "unix:<path>"         a Unix-domain stream socket at <path>
///
/// Unix sockets are the default fabric of the in-machine process topology
/// (no port allocation races, peers addressed by file path); TCP is what a
/// spread-across-hosts deployment uses. Both speak the same frame stream.
struct SocketAddr {
  enum class Kind { Tcp, Unix };

  Kind kind = Kind::Unix;
  std::string host;         // Tcp only
  std::uint16_t port = 0;   // Tcp only
  std::string path;         // Unix only

  static SocketAddr tcp(std::string host, std::uint16_t port);
  static SocketAddr unix_path(std::string path);

  /// Parses the "tcp:host:port" / "unix:/path" spelling above. Throws
  /// std::invalid_argument on anything else.
  static SocketAddr parse(const std::string& spec);

  /// The canonical spelling parse() accepts.
  std::string to_string() const;
};

/// True when this process may create and bind loopback sockets — the probe
/// the tests, benches and tier-1 stage use to skip loudly instead of
/// failing inside sandboxes that forbid networking. When false, `reason`
/// (if given) receives the errno text of the first refused syscall.
bool sockets_available(std::string* reason = nullptr);

// --- low-level helpers shared by the socket clients and servers ---------
// The fd-returning ones return a valid fd or -1 with `error` filled; fds
// are close-on-exec.

/// The listen backlog of the EpollServer and ChaosProxy listeners.
inline constexpr int kListenBacklog = 64;

/// Binds + listens at `addr`; on success writes the actually-bound address
/// (TCP port 0 resolved) to `bound`. A pre-existing Unix socket path is
/// unlinked first (a crashed predecessor's leftover).
int open_listener(const SocketAddr& addr, int backlog, SocketAddr* bound,
                  std::string* error);

/// Connects to `addr` with a deadline, returning a blocking-mode fd.
int open_client(const SocketAddr& addr, int timeout_ms, std::string* error);

/// Puts `fd` into non-blocking mode. Returns false on failure.
bool set_nonblocking(int fd);

/// Waits until `fd` reports one of `events` (POLLIN, POLLOUT) or `deadline`
/// passes. A signal does not cut the wait short (SIGCHLD from a supervised
/// child is routine): the poll resumes on the time left. Returns what
/// poll() does: > 0 ready, 0 timed out, < 0 failed with errno set.
int poll_until(int fd, short events,
               std::chrono::steady_clock::time_point deadline);

/// Writes all `size` bytes to the blocking socket `fd`, across partial
/// writes and signals. A peer that closed yields EPIPE, not SIGPIPE.
/// Returns false with errno set on failure.
bool send_all(int fd, const void* data, std::size_t size);

/// send_all over the buffers `parts` names, in order, with as few sendmsg
/// calls as the kernel allows. Advances `parts` past what was sent.
bool send_all(int fd, std::span<iovec> parts);

}  // namespace fbdr::netio
