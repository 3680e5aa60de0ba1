#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "netio/frame_reassembler.h"
#include "netio/socket_addr.h"

namespace fbdr::resync {
class ReSyncEndpoint;
struct ReSyncResponse;
}

namespace fbdr::netio {

/// Nonblocking epoll event loop serving a resync::ReSyncEndpoint to any
/// number of SocketPipe clients over one listening socket.
///
/// Per connection it reassembles the byte stream into wire frames
/// (FrameReassembler), hands each to net::serve_frame — the dispatcher the
/// in-process EndpointPipe runs too — and queues the replies back out. A
/// garbled frame (bad header, checksum mismatch, undecodable request) makes
/// the connection unrecoverable, so the server closes it; the client
/// surfaces net::TransportError and retries over a fresh connection — the
/// socket spelling of "the server drops the frame".
///
/// Replies are coalesced: while the frames (or control lines) of one
/// readable event are dispatched, their replies only queue, and the queue
/// is sent once at the end of the batch — a client that pipelines N
/// requests in one write gets its N replies, in request order, in one send
/// and one wake-up. Whatever the kernel does not take is drained on
/// EPOLLOUT; when a connection's queue exceeds Options::max_write_buffer
/// the server stops reading from it (EPOLLIN paused) until the queue drains
/// to half the limit — backpressure instead of unbounded buffering against
/// a slow reader. Two more self-defence knobs harden the frame plane against
/// hostile or broken peers: Options::idle_timeout_ms reaps connections
/// that stall mid-frame (slow loris), Options::max_connections sheds
/// accepts beyond a cap; both are counted in Stats.
///
/// A second, line-based listener (listen_control) carries the process
/// topology's control plane: one text command per line in, the handler's
/// reply bytes out. Both listeners share the one loop, so a single-threaded
/// fbdr_node process never races control commands against frame dispatch.
///
/// Persist push (DESIGN.md §15): the server installs itself as the
/// endpoint's notification sink. A Persist request answered on a
/// connection binds its session to that connection, and the close of the
/// connection unbinds it. Pushes are encoded as Push frames; all the
/// pushes one pump or tick makes for one connection go out in one send.
///
/// Endpoint dispatch happens on the loop thread under endpoint_mutex();
/// tests and hosts that mutate the endpoint from another thread (pumping
/// the master, applying writes) take the same mutex via with_endpoint().
/// Pushes made on another thread are handed to the loop, which sends them.
class EpollServer {
 public:
  struct Options {
    /// Queued-unsent bytes above which a connection's reads are paused.
    std::size_t max_write_buffer = 4u << 20;
    /// Frame connections with no read/write activity for this long are
    /// closed (slow-loris reaping; a trickling or stalled peer holds no fd
    /// forever). 0 = never. SocketPipe reconnects transparently, so a
    /// legitimately idle replica just pays one reconnect on its next poll.
    /// Control connections are exempt: the topology driver holds one open
    /// per node for the process's lifetime by design.
    int idle_timeout_ms = 0;
    /// Frame connections held open at most; beyond it new accepts are shed
    /// (accepted, counted, closed immediately) so a connection storm
    /// degrades loudly instead of exhausting fds. 0 = unlimited.
    std::size_t max_connections = 0;
  };

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t garbled_closes = 0;
    std::uint64_t abandons = 0;
    std::uint64_t backpressure_pauses = 0;
    std::uint64_t control_lines = 0;
    std::uint64_t idle_reaped = 0;   // connections closed by idle_timeout_ms
    std::uint64_t shed_accepts = 0;  // accepts shed at max_connections
  };

  /// Handles one control line (without its trailing '\n'); returns the
  /// exact bytes to write back. May call request_stop().
  using ControlHandler = std::function<std::string(const std::string& line)>;

  explicit EpollServer(resync::ReSyncEndpoint& endpoint)
      : EpollServer(endpoint, Options{}) {}
  EpollServer(resync::ReSyncEndpoint& endpoint, Options options);
  ~EpollServer();

  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  /// Binds the frame listener; returns the bound address (TCP port 0
  /// resolved). Throws std::runtime_error on failure.
  SocketAddr listen(const SocketAddr& addr);

  /// Binds the line-based control listener.
  SocketAddr listen_control(const SocketAddr& addr, ControlHandler handler);

  /// Runs the loop on a background thread until stop().
  void start();

  /// Stops the background thread (idempotent; also called by ~EpollServer).
  void stop();

  /// Runs the loop inline on the calling thread until request_stop() — the
  /// single-threaded mode fbdr_node uses.
  void run();

  /// Signals the loop to exit (thread-safe, callable from handlers).
  void request_stop();

  Stats stats() const;

  /// Connections currently open on the frame listener.
  std::size_t open_connections() const;

  /// Serializes endpoint access against loop-thread dispatch.
  std::mutex& endpoint_mutex() { return endpoint_mutex_; }

  template <typename Fn>
  auto with_endpoint(Fn&& fn) {
    std::lock_guard<std::mutex> lock(endpoint_mutex_);
    return fn(*endpoint_);
  }

 private:
  enum class Role { FrameData, Control };

  struct Connection {
    int fd = -1;
    Role role = Role::FrameData;
    std::uint64_t link = 0;         // FrameData: what sessions bind to
    FrameReassembler reassembler;   // FrameData
    std::string line_buffer;        // Control
    std::vector<std::uint8_t> out;  // queued unsent bytes
    std::size_t out_offset = 0;
    bool want_write = false;
    bool read_paused = false;
    std::chrono::steady_clock::time_point last_activity;
  };

  /// One bounded iteration of the loop; returns false once a stop was
  /// requested.
  bool poll_once(int timeout_ms);
  /// Opens a listener at `addr` into `fd` and watches it.
  SocketAddr add_listener(const SocketAddr& addr, int& fd);
  /// Adds `fd` to the epoll set for reads.
  void watch(int fd);
  void accept_ready(int listen_fd, Role role);
  void read_ready(Connection& conn);
  /// Reads and dispatches until a short read, close or backpressure pause.
  void read_batch(Connection& conn);
  void write_ready(Connection& conn);
  /// Sends as much of the queued reply bytes as the kernel takes now.
  void flush(Connection& conn);
  /// Serves one frame, a span into the connection's reassembler.
  void dispatch_frame(Connection& conn, wire::ByteSpan frame);
  void dispatch_control(Connection& conn, const std::string& line);
  /// The connection's queue of unsent reply bytes, to append to.
  std::vector<std::uint8_t>& out_queue(Connection& conn);
  void update_interest(Connection& conn);
  void close_connection(Connection& conn);
  /// Counts a garbled frame, flushes the replies already queued, closes.
  void close_garbled(Connection& conn);
  void reap_idle();
  /// The sink: encodes `push` onto the outbox of `link`.
  void queue_push(std::uint64_t link, const resync::ReSyncResponse& push);
  /// Moves the outbox onto the connections' queues, one send each.
  void send_pushes();

  resync::ReSyncEndpoint* endpoint_;
  Options options_;
  std::mutex endpoint_mutex_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: request_stop() wakes a blocked epoll_wait
  int frame_listen_fd_ = -1;
  int control_listen_fd_ = -1;
  ControlHandler control_handler_;

  std::map<int, std::unique_ptr<Connection>> connections_;
  std::map<std::uint64_t, Connection*> links_;  // open frame connections

  /// Push frames per link not yet moved to a connection's queue. The sink
  /// may run on any thread holding the endpoint mutex; outbox_mutex_ guards
  /// the hand-off to the loop thread.
  std::mutex outbox_mutex_;
  std::map<std::uint64_t, wire::Bytes> outbox_;
  std::atomic<bool> outbox_ready_{false};
  std::atomic<std::thread::id> loop_thread_{};

  std::vector<int> doomed_;  // fds to close after the event batch
  std::string line_;         // the control line being dispatched

  std::thread thread_;
  std::atomic<bool> stop_requested_{false};

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> garbled_closes_{0};
  std::atomic<std::uint64_t> abandons_{0};
  std::atomic<std::uint64_t> backpressure_pauses_{0};
  std::atomic<std::uint64_t> control_lines_{0};
  std::atomic<std::uint64_t> idle_reaped_{0};
  std::atomic<std::uint64_t> shed_accepts_{0};
  std::atomic<std::size_t> open_connections_{0};
};

}  // namespace fbdr::netio
