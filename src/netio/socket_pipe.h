#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <sys/uio.h>

#include "net/framed_channel.h"
#include "netio/frame_reassembler.h"
#include "netio/socket_addr.h"

namespace fbdr::netio {

/// net::BytePipe over a real stream socket: the client end of a framed link
/// whose server is an EpollServer (or any peer speaking wire frames over
/// TCP/Unix sockets).
///
/// Failure model — everything maps onto the retry machinery that already
/// exists above the Channel seam:
///
///  - Any transport fault (connect refused, send/recv error, peer close,
///    read deadline, garbled response header) closes the connection and
///    throws net::TransportError. Nothing is retried here.
///  - net::exchange_with_retry / the replica's RetryPolicy supply the
///    backoff and re-sends; the next transfer() transparently reconnects.
///    Replay-safe cookie sequence numbers make the re-send idempotent, so
///    a reconnect mid-session heals exactly like a dropped frame on the
///    in-process FaultyPipe.
///  - elapse() is a no-op: logical backoff costs no wall clock, and the
///    server's clock moves by its own control plane, not by this link.
///
/// The pipe is intentionally single-connection and synchronous: one
/// request frame out, one response frame back — or, through transfer_all(),
/// a whole batch of frames out in one write and their responses back in
/// order under one deadline (pipelining; the server answers frames on a
/// connection strictly in order). Concurrency comes from many pipes (one
/// per replica session), multiplexed server-side by epoll.
class SocketPipe final : public net::BytePipe {
 public:
  struct Options {
    SocketAddr addr;
    int connect_timeout_ms = 2000;
    /// Deadline for one whole response (per transfer(); per batch of
    /// responses in transfer_all()).
    int io_timeout_ms = 10000;
  };

  explicit SocketPipe(Options options);
  ~SocketPipe() override;

  SocketPipe(const SocketPipe&) = delete;
  SocketPipe& operator=(const SocketPipe&) = delete;

  wire::Bytes transfer(const wire::Bytes& frame) override;
  /// Pipelined: every frame in one send, then every reply read in order.
  /// The sink sees each reply; its "may end" hint is ignored, since the
  /// frames are already written. Any failure closes the connection and
  /// throws TransportError, as transfer() does.
  void transfer_all(const std::vector<wire::Bytes>& frames,
                    const ReplySink& on_reply) override;
  void send(const wire::Bytes& frame) override;
  void elapse(std::uint64_t ticks) override;

  bool connected() const noexcept { return fd_ >= 0; }
  /// Successful (re)connects so far — 1 after the first exchange, +1 per
  /// reconnect after a transport fault.
  std::uint64_t connects() const noexcept { return connects_; }

  void close();

 private:
  void ensure_connected();
  void write_all(std::span<iovec> parts);
  void write_all(const wire::Bytes& frame);
  /// The next reply, a span into the reassembler valid until the next read.
  wire::ByteSpan read_frame(std::chrono::steady_clock::time_point deadline);
  std::chrono::steady_clock::time_point io_deadline() const;
  [[noreturn]] void fail(const std::string& what);

  Options options_;
  int fd_ = -1;
  FrameReassembler reassembler_;
  std::vector<iovec> parts_;  // the frames of a batch, for one sendmsg
  std::uint64_t connects_ = 0;
};

}  // namespace fbdr::netio
