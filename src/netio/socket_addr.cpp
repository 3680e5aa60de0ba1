#include "netio/socket_addr.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace fbdr::netio {

namespace {

std::string errno_text(const char* op) {
  return std::string(op) + ": " + std::strerror(errno);
}

int make_socket(SocketAddr::Kind kind, std::string* error) {
  const int domain = kind == SocketAddr::Kind::Tcp ? AF_INET : AF_UNIX;
  const int fd = ::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0 && error) *error = errno_text("socket");
  return fd;
}

// Fills a sockaddr for `addr`; returns the length to pass to bind/connect,
// or 0 with `error` filled (bad host, over-long unix path).
socklen_t fill_sockaddr(const SocketAddr& addr, sockaddr_storage* storage,
                        std::string* error) {
  std::memset(storage, 0, sizeof(*storage));
  if (addr.kind == SocketAddr::Kind::Tcp) {
    auto* in = reinterpret_cast<sockaddr_in*>(storage);
    in->sin_family = AF_INET;
    in->sin_port = htons(addr.port);
    const char* host = addr.host.empty() ? "127.0.0.1" : addr.host.c_str();
    if (::inet_pton(AF_INET, host, &in->sin_addr) != 1) {
      if (error) *error = "bad IPv4 host: " + addr.host;
      return 0;
    }
    return sizeof(sockaddr_in);
  }
  auto* un = reinterpret_cast<sockaddr_un*>(storage);
  un->sun_family = AF_UNIX;
  if (addr.path.size() + 1 > sizeof(un->sun_path)) {
    if (error) *error = "unix socket path too long: " + addr.path;
    return 0;
  }
  std::memcpy(un->sun_path, addr.path.c_str(), addr.path.size() + 1);
  return sizeof(sockaddr_un);
}

}  // namespace

SocketAddr SocketAddr::tcp(std::string host, std::uint16_t port) {
  SocketAddr addr;
  addr.kind = Kind::Tcp;
  addr.host = std::move(host);
  addr.port = port;
  return addr;
}

SocketAddr SocketAddr::unix_path(std::string path) {
  SocketAddr addr;
  addr.kind = Kind::Unix;
  addr.path = std::move(path);
  return addr;
}

SocketAddr SocketAddr::parse(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    std::string path = spec.substr(5);
    if (path.empty()) throw std::invalid_argument("empty unix socket path: " + spec);
    return unix_path(std::move(path));
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::size_t colon = spec.rfind(':');
    if (colon == 3) throw std::invalid_argument("missing port: " + spec);
    const std::string host = spec.substr(4, colon - 4);
    const std::string port_text = spec.substr(colon + 1);
    if (host.empty() || port_text.empty() ||
        port_text.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument("bad tcp address: " + spec);
    }
    const unsigned long port = std::stoul(port_text);
    if (port > 65535) throw std::invalid_argument("port out of range: " + spec);
    return tcp(host, static_cast<std::uint16_t>(port));
  }
  throw std::invalid_argument("address must be tcp:host:port or unix:/path: " +
                              spec);
}

std::string SocketAddr::to_string() const {
  if (kind == Kind::Tcp) return "tcp:" + host + ":" + std::to_string(port);
  return "unix:" + path;
}

bool sockets_available(std::string* reason) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (reason) *reason = errno_text("socket(AF_INET)");
    return false;
  }
  sockaddr_in in{};
  in.sin_family = AF_INET;
  in.sin_port = 0;  // any free port
  in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok = ::bind(fd, reinterpret_cast<sockaddr*>(&in), sizeof(in)) == 0 &&
                  ::listen(fd, 1) == 0;
  if (!ok && reason) *reason = errno_text("bind/listen loopback");
  ::close(fd);
  return ok;
}

int open_listener(const SocketAddr& addr, int backlog, SocketAddr* bound,
                  std::string* error) {
  const int fd = make_socket(addr.kind, error);
  if (fd < 0) return -1;

  if (addr.kind == SocketAddr::Kind::Tcp) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  } else {
    ::unlink(addr.path.c_str());  // a crashed predecessor's leftover
  }

  sockaddr_storage storage;
  const socklen_t len = fill_sockaddr(addr, &storage, error);
  if (len == 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&storage), len) != 0 ||
      ::listen(fd, backlog) != 0) {
    if (error && error->empty()) *error = errno_text("bind/listen");
    ::close(fd);
    return -1;
  }

  if (bound) {
    *bound = addr;
    if (addr.kind == SocketAddr::Kind::Tcp) {
      sockaddr_in in{};
      socklen_t in_len = sizeof(in);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&in), &in_len) == 0) {
        bound->port = ntohs(in.sin_port);
      }
    }
  }
  return fd;
}

int open_client(const SocketAddr& addr, int timeout_ms, std::string* error) {
  const int fd = make_socket(addr.kind, error);
  if (fd < 0) return -1;

  sockaddr_storage storage;
  const socklen_t len = fill_sockaddr(addr, &storage, error);
  if (len == 0) {
    ::close(fd);
    return -1;
  }

  // Nonblocking connect + poll gives the deadline; the fd goes back to
  // blocking mode afterwards (SocketPipe does its own read deadlines).
  set_nonblocking(fd);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&storage), len) != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      if (error) *error = errno_text("connect");
      ::close(fd);
      return -1;
    }
    const int ready = poll_until(fd, POLLOUT,
                                 std::chrono::steady_clock::now() +
                                     std::chrono::milliseconds(timeout_ms));
    int so_error = 0;
    socklen_t so_len = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len);
    if (ready <= 0 || so_error != 0) {
      if (error) {
        *error = ready <= 0 ? "connect timed out after " +
                                  std::to_string(timeout_ms) + "ms to " +
                                  addr.to_string()
                            : "connect: " + std::string(std::strerror(so_error));
      }
      ::close(fd);
      return -1;
    }
  }

  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  return fd;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

int poll_until(int fd, short events,
               std::chrono::steady_clock::time_point deadline) {
  pollfd pfd{fd, events, 0};
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::max<long long>(left, 0)));
    if (ready >= 0 || errno != EINTR) return ready;
    // Interrupted past the deadline: report a timeout.
    if (std::chrono::steady_clock::now() >= deadline) return 0;
  }
}

bool send_all(int fd, const void* data, std::size_t size) {
  iovec part{const_cast<void*>(data), size};
  return send_all(fd, std::span<iovec>(&part, 1));
}

bool send_all(int fd, std::span<iovec> parts) {
  while (!parts.empty()) {
    msghdr message{};
    message.msg_iov = parts.data();
    message.msg_iovlen = std::min<std::size_t>(parts.size(), IOV_MAX);
    const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    auto sent = static_cast<std::size_t>(n);
    while (!parts.empty() && sent >= parts.front().iov_len) {
      sent -= parts.front().iov_len;
      parts = parts.subspan(1);
    }
    if (sent > 0) {
      iovec& part = parts.front();
      part.iov_base = static_cast<char*>(part.iov_base) + sent;
      part.iov_len -= sent;
    }
  }
  return true;
}

}  // namespace fbdr::netio
