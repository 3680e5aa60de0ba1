#include "netio/chaos_proxy.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace fbdr::netio {

namespace {

using Clock = std::chrono::steady_clock;

/// RST instead of FIN: with SO_LINGER {1, 0}, close() discards the send
/// queue and sends a reset — the kernel-level spelling of FaultConfig's
/// `reset`.
void close_with_rst(int fd) {
  linger hard{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::close(fd);
}

/// Per-(connection, direction) RNG stream: the fault draws one connection
/// experiences are a function of (seed, connection index, direction, chunk
/// index) only, independent of how other connections interleave.
std::mt19937_64 leg_rng(std::uint64_t seed, std::uint64_t link_id,
                        bool upward) {
  const std::uint64_t golden = 0x9E3779B97F4A7C15ull;
  return std::mt19937_64(seed ^ (link_id * golden) ^ (upward ? 0 : ~0ull));
}

}  // namespace

ChaosProxy::ChaosProxy(Options options) : options_(std::move(options)) {
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
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

ChaosProxy::~ChaosProxy() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

SocketAddr ChaosProxy::listen() {
  SocketAddr bound;
  std::string error;
  listen_fd_ = open_listener(options_.listen, kListenBacklog, &bound, &error);
  if (listen_fd_ < 0) {
    throw std::runtime_error("chaos proxy listen " +
                             options_.listen.to_string() + ": " + error);
  }
  set_nonblocking(listen_fd_);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  return bound;
}

void ChaosProxy::start() {
  stop_requested_.store(false);
  thread_ = std::thread([this] {
    // A short timeout while delayed/throttled bytes await release keeps the
    // injected latency close to the configured one.
    while (poll_once(has_pending_work() ? 2 : 50)) {
    }
    for (auto& link : links_) close_link(*link, /*rst=*/false);
    links_.clear();
  });
}

void ChaosProxy::stop() {
  stop_requested_.store(true);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
  if (thread_.joinable()) thread_.join();
}

void ChaosProxy::set_faults(const LinkFaults& up, const LinkFaults& down) {
  std::lock_guard<std::mutex> lock(config_mutex_);
  up_faults_ = up;
  down_faults_ = down;
}

void ChaosProxy::apply(const net::FaultConfig& config,
                       std::uint64_t ms_per_tick) {
  LinkFaults up, down;
  up.drop = config.drop_request;
  down.drop = config.drop_response;
  up.reset = down.reset = config.reset;
  up.corrupt = down.corrupt = config.corrupt;
  up.truncate = down.truncate = config.truncate;
  if (config.delay > 0.0 && ms_per_tick > 0) {
    up.delay_ms = down.delay_ms = config.max_delay_ticks * ms_per_tick;
  }
  set_faults(up, down);
  set_partition(config.outage >= 1.0);
}

void ChaosProxy::set_partition(bool on) {
  std::lock_guard<std::mutex> lock(config_mutex_);
  partition_ = on;
}

bool ChaosProxy::partitioned() const {
  std::lock_guard<std::mutex> lock(config_mutex_);
  return partition_;
}

void ChaosProxy::drop_connections() {
  drop_requested_.store(true);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

ChaosProxy::Counters ChaosProxy::counters() const {
  Counters c;
  c.connections = connections_.load();
  c.refused_connects = refused_connects_.load();
  c.failed_upstream = failed_upstream_.load();
  c.drops = drops_.load();
  c.resets = resets_.load();
  c.corrupted = corrupted_.load();
  c.truncated = truncated_.load();
  c.blackholed = blackholed_.load();
  c.delayed = delayed_.load();
  c.chunks = chunks_.load();
  c.bytes_up = bytes_up_.load();
  c.bytes_down = bytes_down_.load();
  return c;
}

std::size_t ChaosProxy::open_links() const { return open_links_.load(); }

bool ChaosProxy::chance(std::mt19937_64& rng, double probability) {
  if (probability <= 0.0) return false;
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < probability;
}

LinkFaults ChaosProxy::faults_for(bool upward) const {
  std::lock_guard<std::mutex> lock(config_mutex_);
  return upward ? up_faults_ : down_faults_;
}

bool ChaosProxy::has_pending_work() const {
  for (const auto& link : links_) {
    if (!link->up.held.empty() || !link->down.held.empty()) return true;
  }
  return false;
}

bool ChaosProxy::poll_once(int timeout_ms) {
  if (stop_requested_.load()) return false;

  if (drop_requested_.exchange(false)) {
    for (auto& link : links_) {
      if (link->up.from >= 0) {
        resets_.fetch_add(1);
        close_link(*link, /*rst=*/true);
      }
    }
  }

  epoll_event events[64];
  int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  if (n < 0) {
    if (errno != EINTR) {
      throw std::runtime_error(std::string("chaos proxy epoll_wait: ") +
                               std::strerror(errno));
    }
    n = 0;
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
    if (fd == listen_fd_) {
      accept_ready();
      continue;
    }
    const auto it = by_fd_.find(fd);
    if (it == by_fd_.end()) continue;  // closed earlier in this batch
    Link& link = *it->second;
    const bool upward = fd == link.up.from;
    if (mask & (EPOLLERR | EPOLLHUP)) {
      close_link(link, /*rst=*/false);
      continue;
    }
    // Writability of `fd` drains the leg that queues toward it.
    if (mask & EPOLLOUT) pump_leg(link, upward ? link.down : link.up);
    if (by_fd_.count(fd) == 0) continue;  // the flush killed the link
    if (mask & EPOLLIN) read_ready(link, upward ? link.up : link.down, upward);
  }

  // Release delayed/throttled bytes, flush queues, reap dead links.
  for (std::size_t i = 0; i < links_.size();) {
    Link& link = *links_[i];
    if (link.up.from >= 0) {
      if (pump_leg(link, link.up)) pump_leg(link, link.down);
    }
    if (link.up.from < 0) {
      links_.erase(links_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }

  return !stop_requested_.load();
}

void ChaosProxy::accept_ready() {
  for (;;) {
    const int client = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client < 0) return;

    if (partitioned()) {
      // During a full partition the far side is unreachable: the fresh
      // connection dies immediately and the client maps it onto
      // TransportError + retry.
      refused_connects_.fetch_add(1);
      close_with_rst(client);
      continue;
    }

    std::string error;
    const int upstream =
        open_client(options_.upstream, options_.connect_timeout_ms, &error);
    if (upstream < 0) {
      failed_upstream_.fetch_add(1);
      close_with_rst(client);
      continue;
    }
    set_nonblocking(upstream);

    auto link = std::make_unique<Link>();
    link->id = next_link_id_++;
    link->up.from = client;
    link->up.to = upstream;
    link->up.rng = leg_rng(options_.seed, link->id, /*upward=*/true);
    link->down.from = upstream;
    link->down.to = client;
    link->down.rng = leg_rng(options_.seed, link->id, /*upward=*/false);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = client;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, client, &ev);
    ev.data.fd = upstream;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, upstream, &ev);

    by_fd_[client] = link.get();
    by_fd_[upstream] = link.get();
    links_.push_back(std::move(link));
    connections_.fetch_add(1);
    open_links_.fetch_add(1);
  }
}

void ChaosProxy::read_ready(Link& link, Leg& leg, bool upward) {
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(leg.from, chunk, sizeof(chunk), 0);
    if (n == 0) {
      // EOF: the traffic here is strictly request/response, so the simple
      // symmetric close is faithful enough.
      close_link(link, /*rst=*/false);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      close_link(link, /*rst=*/false);
      return;
    }
    chunks_.fetch_add(1);

    const LinkFaults faults = faults_for(upward);
    if (partitioned() || chance(leg.rng, faults.blackhole)) {
      blackholed_.fetch_add(1);
      continue;  // swallowed; the connection stays up, half-open
    }
    if (chance(leg.rng, faults.drop)) {
      drops_.fetch_add(1);
      close_link(link, /*rst=*/false);
      return;
    }
    if (chance(leg.rng, faults.reset)) {
      resets_.fetch_add(1);
      close_link(link, /*rst=*/true);
      return;
    }

    std::vector<std::uint8_t> bytes(chunk, chunk + n);
    bool reset_after = false;
    if (chance(leg.rng, faults.truncate)) {
      // Cut the chunk short — anywhere past the first frame header this
      // lands mid-frame — and reset: the receiver sees a torn stream.
      const std::size_t keep = std::uniform_int_distribution<std::size_t>(
          0, bytes.size() - 1)(leg.rng);
      bytes.resize(keep);
      truncated_.fetch_add(1);
      reset_after = true;
    } else if (chance(leg.rng, faults.corrupt)) {
      const std::size_t bit = std::uniform_int_distribution<std::size_t>(
          0, bytes.size() * 8 - 1)(leg.rng);
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      corrupted_.fetch_add(1);
    }

    if (!bytes.empty()) {
      (upward ? bytes_up_ : bytes_down_).fetch_add(bytes.size());
      if (faults.delay_ms > 0 || faults.throttle_bytes > 0) {
        delayed_.fetch_add(1);
      }
      HeldChunk held;
      held.release = Clock::now() + std::chrono::milliseconds(faults.delay_ms);
      held.bytes = std::move(bytes);
      leg.held.push_back(std::move(held));
      if (!pump_leg(link, leg)) return;
    }
    if (reset_after) {
      resets_.fetch_add(1);
      close_link(link, /*rst=*/true);
      return;
    }
  }
}

bool ChaosProxy::pump_leg(Link& link, Leg& leg) {
  if (leg.from < 0) return false;
  const LinkFaults faults = faults_for(leg.from == link.up.from);
  const auto now = Clock::now();
  std::size_t budget =
      faults.throttle_bytes > 0 ? faults.throttle_bytes : SIZE_MAX;

  while (!leg.held.empty() && leg.held.front().release <= now && budget > 0) {
    HeldChunk& front = leg.held.front();
    const std::size_t take = std::min(budget, front.bytes.size());
    leg.out.insert(leg.out.end(), front.bytes.begin(),
                   front.bytes.begin() + static_cast<std::ptrdiff_t>(take));
    if (take == front.bytes.size()) {
      leg.held.pop_front();
    } else {
      front.bytes.erase(
          front.bytes.begin(),
          front.bytes.begin() + static_cast<std::ptrdiff_t>(take));
    }
    if (budget != SIZE_MAX) budget -= take;
  }

  while (leg.out_offset < leg.out.size()) {
    const ssize_t n = ::send(leg.to, leg.out.data() + leg.out_offset,
                             leg.out.size() - leg.out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_link(link, /*rst=*/false);
      return false;
    }
    leg.out_offset += static_cast<std::size_t>(n);
  }
  if (leg.out_offset == leg.out.size()) {
    leg.out.clear();
    leg.out_offset = 0;
  }
  update_interest(leg);
  return true;
}

void ChaosProxy::update_interest(Leg& leg) {
  const bool want_write = leg.out_offset < leg.out.size();
  if (want_write == leg.want_write) return;
  leg.want_write = want_write;
  // Write interest lives on the *destination* fd; its own read interest
  // stays on regardless.
  epoll_event ev{};
  ev.events =
      EPOLLIN | (want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = leg.to;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, leg.to, &ev);
}

void ChaosProxy::close_link(Link& link, bool rst) {
  const auto close_fd = [&](int fd) {
    if (fd < 0) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    by_fd_.erase(fd);
    if (rst) {
      close_with_rst(fd);
    } else {
      ::close(fd);
    }
  };
  if (link.up.from < 0 && link.down.from < 0) return;
  // Count down before the close: a peer that observes the EOF must not be
  // able to read a stale open_links() afterwards.
  open_links_.fetch_sub(1);
  close_fd(link.up.from);
  close_fd(link.down.from);
  link.up.from = link.down.from = -1;
  link.up.to = link.down.to = -1;
  link.up.held.clear();
  link.down.held.clear();
}

}  // namespace fbdr::netio
