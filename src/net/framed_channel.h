#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/stats.h"
#include "wire/codec.h"

namespace fbdr::resync {
class ReSyncEndpoint;
}

namespace fbdr::net {

/// The byte-level link under a FramedChannel: opaque frames in, opaque
/// frames out. This is the seam the later epoll/socket runtime will
/// implement; today's implementations terminate at an in-process endpoint
/// (EndpointPipe) or wrap one in a deterministic frame-level fault injector
/// (FaultyPipe). Pipes never interpret protocol semantics beyond decoding —
/// retry, replay and recovery all stay above the seam.
class BytePipe {
 public:
  virtual ~BytePipe() = default;

  /// Carries one request frame and returns the response frame. Throws
  /// TransportError when the frame (or its response) is lost, rejected or
  /// undecodable server-side.
  virtual wire::Bytes transfer(const wire::Bytes& frame) = 0;

  /// Receives the replies of a transfer_all batch in order. Returns false
  /// when the batch may end after this reply. The bytes are the pipe's and
  /// valid until the sink returns; a sink that keeps a reply copies it.
  using ReplySink = std::function<bool(wire::ByteSpan reply)>;

  /// Carries `frames` in order and hands each reply to `on_reply`. The
  /// default runs transfer() one frame at a time and sends nothing more
  /// once the sink returns false; a TransportError propagates, and the
  /// replies the sink saw before it are exactly the items that completed,
  /// so the failure belongs to the next one. A pipelining pipe (SocketPipe)
  /// writes every frame up front and so delivers every reply it reads.
  virtual void transfer_all(const std::vector<wire::Bytes>& frames,
                            const ReplySink& on_reply);

  /// One-way frame (abandon); best effort, no response.
  virtual void send(const wire::Bytes& frame) = 0;

  /// Logical time passing on the link (client backoff).
  virtual void elapse(std::uint64_t ticks) = 0;

  /// Persist push: a pipe that can carry Push frames the server sends
  /// unasked returns true, and sets aside those that arrive while it waits
  /// for a reply. See Channel::pushes and Channel::push_stream.
  virtual bool pushes() const { return false; }
  virtual std::uint64_t push_stream() const { return 0; }
  /// Appends the payloads (validated, header stripped) of the Push frames
  /// set aside and of those readable now, in arrival order, without
  /// blocking.
  virtual void take_pushes(std::vector<wire::Bytes>& /*payloads*/) {}
};

/// What serve_frame did with one inbound frame.
struct ServedFrame {
  enum class Outcome {
    Reply,      // a request was answered; its reply frame was appended
    Abandoned,  // an abandon reached the endpoint
    Dropped,    // an abandon was dropped: garbled payload or endpoint error
    Garbled,    // no frame, or neither a decodable request nor an abandon
  };
  Outcome outcome = Outcome::Garbled;
  std::string error;  // Garbled: why the frame was rejected
};

/// The server end of every framed link, in-process or socket: validates
/// `frame` and decodes it in place, checks its kind, and dispatches a
/// request to handle() or an abandon to abandon(). A request's reply frame
/// is encoded straight onto the end of `reply`. A transport that delivers
/// pushes passes the connection as `link`: a Persist request answered in
/// full (no page to follow) then binds its session to it
/// (ReSyncEndpoint::bind). Protocol rejections (stale
/// cookie, busy, operation/protocol errors) cross back as typed error
/// frames, so the client rethrows exactly what a direct link would have
/// thrown. A one-way abandon never reports back: a garbled payload or an
/// endpoint error drops it. What a Garbled frame means is the transport's
/// call.
ServedFrame serve_frame(resync::ReSyncEndpoint& endpoint, wire::ByteSpan frame,
                        wire::Bytes& reply, std::uint64_t link = 0);

/// The server end of a framed link, terminating at an in-process
/// ReSyncEndpoint through serve_frame. A garbled request is dropped by the
/// server, which the client sees as TransportError.
class EndpointPipe final : public BytePipe {
 public:
  explicit EndpointPipe(resync::ReSyncEndpoint& endpoint)
      : endpoint_(&endpoint) {}

  wire::Bytes transfer(const wire::Bytes& frame) override;
  void send(const wire::Bytes& frame) override;
  void elapse(std::uint64_t ticks) override;

  resync::ReSyncEndpoint& endpoint() noexcept { return *endpoint_; }

 private:
  resync::ReSyncEndpoint* endpoint_;
};

/// Channel implementation that routes every exchange through the wire codec
/// and a BytePipe: the protocol structs exist only at the two ends, and
/// everything between them is bytes. It is the one ledger of link bytes:
/// traffic() counts frame sizes as encoded.
class FramedChannel final : public Channel {
 public:
  explicit FramedChannel(std::shared_ptr<BytePipe> pipe)
      : pipe_(std::move(pipe)) {}

  /// Convenience: a fault-free framed link straight to an endpoint (the
  /// framed counterpart of DirectChannel).
  explicit FramedChannel(resync::ReSyncEndpoint& endpoint)
      : pipe_(std::make_shared<EndpointPipe>(endpoint)) {}

  resync::ReSyncResponse exchange(const ldap::Query& query,
                                  const resync::ReSyncControl& control) override;
  /// Encodes every request, hands the frames to the pipe in one
  /// transfer_all and decodes each reply as exchange() does. Traffic counts
  /// the items that got an outcome, so it matches the one-at-a-time run.
  void exchange_all(std::span<ExchangeItem> items) override;
  void abandon(const std::string& cookie) override;
  void elapse(std::uint64_t ticks) override;
  bool pushes() const override { return pipe_->pushes(); }
  std::uint64_t push_stream() const override { return pipe_->push_stream(); }
  /// Decodes the pipe's pushes. One that does not decode is dropped, as a
  /// lost push: its session finds the gap on the next push or round.
  void take_pushes(std::vector<resync::ReSyncResponse>& pushes) override;

  /// Exact frame-level traffic: bytes are encoded frame sizes (headers
  /// included), pdus/entries/dns/referrals counted from decoded responses.
  const TrafficStats& traffic() const noexcept { return traffic_; }
  void reset_traffic() { traffic_.reset(); }

  BytePipe& pipe() noexcept { return *pipe_; }

 private:
  /// Decodes one reply frame in place: the response, or the typed protocol
  /// error thrown; a garbled frame throws TransportError.
  resync::ReSyncResponse decode_reply(wire::ByteSpan reply);

  std::shared_ptr<BytePipe> pipe_;
  TrafficStats traffic_;
  // Request frames are encoded into these and sent from them; they keep
  // their capacity, so a steady-state exchange allocates nothing to send.
  wire::Bytes request_;
  std::vector<wire::Bytes> batch_;
  std::vector<wire::Bytes> push_payloads_;
};

}  // namespace fbdr::net
