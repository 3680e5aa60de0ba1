#include "netio/epoll_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "net/framed_channel.h"

namespace fbdr::netio {

EpollServer::EpollServer(resync::ReSyncEndpoint& endpoint, Options options)
    : endpoint_(&endpoint), options_(options) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::runtime_error(std::string("epoll_create1: ") +
                             std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw std::runtime_error(std::string("eventfd: ") + std::strerror(errno));
  }
  watch(wake_fd_);
}

EpollServer::~EpollServer() {
  stop();
  for (auto& [fd, conn] : connections_) {
    (void)conn;
    ::close(fd);
  }
  if (frame_listen_fd_ >= 0) ::close(frame_listen_fd_);
  if (control_listen_fd_ >= 0) ::close(control_listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

SocketAddr EpollServer::listen(const SocketAddr& addr) {
  return add_listener(addr, frame_listen_fd_);
}

SocketAddr EpollServer::listen_control(const SocketAddr& addr,
                                       ControlHandler handler) {
  control_handler_ = std::move(handler);
  return add_listener(addr, control_listen_fd_);
}

SocketAddr EpollServer::add_listener(const SocketAddr& addr, int& fd) {
  SocketAddr bound;
  std::string error;
  fd = open_listener(addr, kListenBacklog, &bound, &error);
  if (fd < 0) {
    throw std::runtime_error("listen " + addr.to_string() + ": " + error);
  }
  set_nonblocking(fd);
  watch(fd);
  return bound;
}

void EpollServer::watch(int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
}

void EpollServer::start() {
  stop_requested_.store(false);
  thread_ = std::thread([this] { run(); });
}

void EpollServer::stop() {
  request_stop();
  if (thread_.joinable()) thread_.join();
}

void EpollServer::run() {
  while (poll_once(200)) {
  }
}

void EpollServer::request_stop() {
  stop_requested_.store(true);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

bool EpollServer::poll_once(int timeout_ms) {
  if (stop_requested_.load()) return false;

  epoll_event events[64];
  const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  if (n < 0 && errno != EINTR) {
    throw std::runtime_error(std::string("epoll_wait: ") +
                             std::strerror(errno));
  }

  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    const std::uint32_t mask = events[i].events;

    if (fd == wake_fd_) {
      std::uint64_t drain;
      while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
      }
      continue;
    }
    if (fd == frame_listen_fd_) {
      accept_ready(fd, Role::FrameData);
      continue;
    }
    if (fd == control_listen_fd_) {
      accept_ready(fd, Role::Control);
      continue;
    }

    const auto it = connections_.find(fd);
    if (it == connections_.end()) continue;  // closed earlier in this batch
    Connection& conn = *it->second;
    if (mask & (EPOLLERR | EPOLLHUP)) {
      close_connection(conn);
      continue;
    }
    if (mask & EPOLLOUT) write_ready(conn);
    if (conn.fd >= 0 && (mask & EPOLLIN)) read_ready(conn);
  }

  if (options_.idle_timeout_ms > 0) reap_idle();

  for (const int fd : doomed_) connections_.erase(fd);
  doomed_.clear();

  return !stop_requested_.load();
}

void EpollServer::reap_idle() {
  const auto deadline =
      std::chrono::steady_clock::now() -
      std::chrono::milliseconds(options_.idle_timeout_ms);
  for (auto& [fd, conn] : connections_) {
    (void)fd;
    // Control connections are exempt: the topology driver parks one per
    // node for the process's lifetime.
    if (conn->role != Role::FrameData || conn->fd < 0) continue;
    if (conn->last_activity <= deadline) {
      // Closed first, so a reader that sees the reap sees the count drop.
      close_connection(*conn);
      idle_reaped_.fetch_add(1);
    }
  }
}

void EpollServer::accept_ready(int listen_fd, Role role) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN: drained

    // Accept shedding: over the cap the connection is closed on the spot.
    // Accept-then-close (rather than leaving it in the backlog) tells the
    // peer immediately and keeps the listen queue from filling against
    // well-behaved clients.
    if (role == Role::FrameData && options_.max_connections > 0 &&
        open_connections_.load() >= options_.max_connections) {
      shed_accepts_.fetch_add(1);
      ::close(fd);
      continue;
    }

    // The kernel may hand back an fd number closed earlier in this same
    // event batch; un-doom it so the end-of-batch sweep spares the new
    // connection that now owns the number.
    std::erase(doomed_, fd);

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->role = role;
    conn->last_activity = std::chrono::steady_clock::now();
    watch(fd);
    connections_[fd] = std::move(conn);
    accepted_.fetch_add(1);
    if (role == Role::FrameData) open_connections_.fetch_add(1);
  }
}

void EpollServer::read_ready(Connection& conn) {
  conn.last_activity = std::chrono::steady_clock::now();
  read_batch(conn);
  // Reply coalescing: everything this readable event produced leaves in
  // one send, so a pipelined client wakes once per batch, not per reply.
  if (conn.fd >= 0) flush(conn);
}

void EpollServer::read_batch(Connection& conn) {
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      // A half-closed peer (shutdown(SHUT_WR) after its last request) still
      // reads: the replies owed to this batch go out before the close.
      flush(conn);
      close_connection(conn);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      close_connection(conn);
      return;
    }

    if (conn.role == Role::Control) {
      conn.line_buffer.append(reinterpret_cast<const char*>(chunk),
                              static_cast<std::size_t>(n));
      std::size_t start = 0;
      std::size_t newline;
      while ((newline = conn.line_buffer.find('\n', start)) !=
             std::string::npos) {
        std::size_t end = newline;
        if (end > start && conn.line_buffer[end - 1] == '\r') --end;
        line_.assign(conn.line_buffer, start, end - start);
        start = newline + 1;
        dispatch_control(conn, line_);
        if (conn.fd < 0) return;
      }
      conn.line_buffer.erase(0, start);
    } else {
      try {
        conn.reassembler.feed(chunk, static_cast<std::size_t>(n));
      } catch (const wire::CodecError&) {
        // The stream's framing is gone; the connection is unrecoverable.
        // Closing it is the socket spelling of "the server drops the
        // frame": the client sees a transport failure and retries over a
        // fresh connection with its replay-safe cookie.
        close_garbled(conn);
        return;
      }
      while (conn.reassembler.has_frame()) {
        dispatch_frame(conn, conn.reassembler.next());
        if (conn.fd < 0) return;
      }
    }
    // Backpressure still applies mid-batch: past the limit, push out what
    // the kernel takes now and stop reading if the rest stays queued.
    if (conn.out.size() - conn.out_offset > options_.max_write_buffer) {
      flush(conn);
      if (conn.fd < 0 || conn.read_paused) return;
    }
    // A short read took everything the socket held. The loop is
    // level-triggered, so bytes that arrive later wake it again; reading
    // on would only cost a recv that returns EAGAIN.
    if (static_cast<std::size_t>(n) < sizeof(chunk)) return;
  }
}

void EpollServer::dispatch_frame(Connection& conn, wire::ByteSpan frame) {
  using Outcome = net::ServedFrame::Outcome;
  frames_in_.fetch_add(1);
  net::ServedFrame served;
  {
    // Counted under the lock: whoever sees an abandon land sees it counted.
    std::lock_guard<std::mutex> lock(endpoint_mutex_);
    // The reply is encoded straight onto the connection's out queue.
    served = net::serve_frame(*endpoint_, frame, out_queue(conn));
    if (served.outcome == Outcome::Abandoned) abandons_.fetch_add(1);
  }
  if (served.outcome == Outcome::Garbled) {
    // The socket spelling of "the server drops the frame": the client sees
    // a transport failure and retries over a fresh connection.
    close_garbled(conn);
  } else if (served.outcome == Outcome::Reply) {
    frames_out_.fetch_add(1);
  }
}

void EpollServer::dispatch_control(Connection& conn, const std::string& line) {
  control_lines_.fetch_add(1);
  if (!control_handler_) return;
  const std::string reply = control_handler_(line);
  std::vector<std::uint8_t>& out = out_queue(conn);
  out.insert(out.end(), reply.begin(), reply.end());
}

std::vector<std::uint8_t>& EpollServer::out_queue(Connection& conn) {
  // Queued only: read_ready() flushes once the whole read batch is answered.
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
  return conn.out;
}

void EpollServer::write_ready(Connection& conn) {
  conn.last_activity = std::chrono::steady_clock::now();
  flush(conn);
}

void EpollServer::flush(Connection& conn) {
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_offset,
                             conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(conn);
      return;
    }
    conn.out_offset += static_cast<std::size_t>(n);
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
  update_interest(conn);
}

void EpollServer::update_interest(Connection& conn) {
  const std::size_t queued = conn.out.size() - conn.out_offset;
  const bool want_write = queued > 0;
  // Backpressure: stop reading from a connection whose replies we cannot
  // deliver, resume once the queue drains (hysteresis at half the limit).
  bool read_paused = conn.read_paused;
  if (!read_paused && queued > options_.max_write_buffer) {
    read_paused = true;
    backpressure_pauses_.fetch_add(1);
  } else if (read_paused && queued <= options_.max_write_buffer / 2) {
    read_paused = false;
  }
  if (want_write == conn.want_write && read_paused == conn.read_paused) return;
  conn.want_write = want_write;
  conn.read_paused = read_paused;

  epoll_event ev{};
  ev.events = (read_paused ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
              (want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void EpollServer::close_garbled(Connection& conn) {
  garbled_closes_.fetch_add(1);
  // The replies to the batch's earlier frames go out first, so a pipelining
  // client's failure lands on the garbled frame, not on the whole batch.
  flush(conn);
  close_connection(conn);
}

void EpollServer::close_connection(Connection& conn) {
  if (conn.fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  closed_.fetch_add(1);
  if (conn.role == Role::FrameData) open_connections_.fetch_sub(1);
  doomed_.push_back(conn.fd);
  conn.fd = -1;
}

EpollServer::Stats EpollServer::stats() const {
  Stats s;
  s.accepted = accepted_.load();
  s.closed = closed_.load();
  s.frames_in = frames_in_.load();
  s.frames_out = frames_out_.load();
  s.garbled_closes = garbled_closes_.load();
  s.abandons = abandons_.load();
  s.backpressure_pauses = backpressure_pauses_.load();
  s.control_lines = control_lines_.load();
  s.idle_reaped = idle_reaped_.load();
  s.shed_accepts = shed_accepts_.load();
  return s;
}

std::size_t EpollServer::open_connections() const {
  return open_connections_.load();
}

}  // namespace fbdr::netio
