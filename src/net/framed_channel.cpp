#include "net/framed_channel.h"

#include "ldap/error.h"
#include "resync/endpoint.h"

namespace fbdr::net {

ServedFrame serve_frame(resync::ReSyncEndpoint& endpoint, wire::ByteSpan frame,
                        wire::Bytes& reply) {
  using Outcome = ServedFrame::Outcome;
  wire::ByteSpan payload;
  wire::FrameKind kind;
  wire::RequestFrame request;
  try {
    payload = wire::Codec::payload_of(frame);
    kind = wire::Codec::kind_of(payload);
    if (kind == wire::FrameKind::Request) {
      request = wire::Codec::decode_request(payload);
    } else if (kind != wire::FrameKind::Abandon) {
      throw wire::CodecError("frame is neither a request nor an abandon");
    }
  } catch (const wire::CodecError& e) {
    return {Outcome::Garbled, e.what()};
  }

  if (kind == wire::FrameKind::Abandon) {
    // One-way, best effort: nothing that goes wrong here reaches the sender.
    try {
      endpoint.abandon(wire::Codec::decode_abandon(payload));
      return {Outcome::Abandoned, {}};
    } catch (const std::exception&) {
      return {Outcome::Dropped, {}};
    }
  }

  // Note the catch order: the specific protocol errors (stale cookie, busy)
  // must ship as their own kinds so the client-side rethrow is type-exact.
  wire::ErrorFrame error;
  try {
    wire::Codec::frame_response(
        reply, endpoint.handle(request.query, request.control));
    return {Outcome::Reply, {}};
  } catch (const ldap::StaleCookieError& e) {
    error = {wire::ErrorFrame::Kind::StaleCookie, 0, e.what()};
  } catch (const ldap::BusyError& e) {
    error = {wire::ErrorFrame::Kind::Busy, 0, e.what()};
  } catch (const ldap::ProtocolError& e) {
    error = {wire::ErrorFrame::Kind::Protocol, 0, e.what()};
  } catch (const ldap::OperationError& e) {
    // The bare message: the client's rethrow adds the code prefix again.
    error = {wire::ErrorFrame::Kind::Operation,
             static_cast<std::int32_t>(e.code()), std::string(e.message())};
  }
  wire::Codec::frame_error(reply, error);
  return {Outcome::Reply, {}};
}

wire::Bytes EndpointPipe::transfer(const wire::Bytes& frame) {
  wire::Bytes reply;
  const ServedFrame served = serve_frame(*endpoint_, frame, reply);
  // The server cannot parse the frame, so it drops it; the client sees
  // the exchange fail at the transport level and retries.
  if (served.outcome != ServedFrame::Outcome::Reply) {
    throw TransportError("garbled request frame: " + served.error);
  }
  return reply;
}

void EndpointPipe::send(const wire::Bytes& frame) {
  wire::Bytes no_reply;  // an abandon is never answered
  serve_frame(*endpoint_, frame, no_reply);
}

void EndpointPipe::elapse(std::uint64_t ticks) { endpoint_->tick(ticks); }

void BytePipe::transfer_all(const std::vector<wire::Bytes>& frames,
                            const ReplySink& on_reply) {
  for (const wire::Bytes& frame : frames) {
    const wire::Bytes reply = transfer(frame);
    if (!on_reply(reply)) return;
  }
}

resync::ReSyncResponse FramedChannel::decode_reply(wire::ByteSpan reply) {
  traffic_.count_frame(reply.size());
  resync::ReSyncResponse response;
  wire::ErrorFrame error;
  bool is_error = false;
  try {
    const wire::ByteSpan payload = wire::Codec::payload_of(reply);
    switch (wire::Codec::kind_of(payload)) {
      case wire::FrameKind::Response:
        response = wire::Codec::decode_response(payload);
        break;
      case wire::FrameKind::Error:
        error = wire::Codec::decode_error(payload);
        is_error = true;
        break;
      default:
        throw wire::CodecError("frame in response position is not a response");
    }
  } catch (const wire::CodecError& e) {
    throw TransportError(std::string("garbled response frame: ") + e.what());
  }
  if (is_error) wire::Codec::throw_error(error);

  resync::count_pdus(traffic_, response.pdus);
  if (response.referred()) traffic_.note_referral();
  return response;
}

resync::ReSyncResponse FramedChannel::exchange(
    const ldap::Query& query, const resync::ReSyncControl& control) {
  request_.clear();
  wire::Codec::frame_request(request_, query, control);
  traffic_.count_round_trip();
  traffic_.count_frame(request_.size());
  return decode_reply(pipe_->transfer(request_));  // TransportError flows
}

void FramedChannel::exchange_all(std::span<ExchangeItem> items) {
  batch_.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    batch_[i].clear();  // keeps its capacity from the last batch
    wire::Codec::frame_request(batch_[i], *items[i].query, items[i].control);
  }
  std::size_t done = 0;  // items with an outcome
  const auto count_request = [&] {
    traffic_.count_round_trip();
    traffic_.count_frame(batch_[done].size());
  };
  try {
    pipe_->transfer_all(batch_, [&](wire::ByteSpan reply) {
      count_request();
      ExchangeItem& item = items[done++];
      try {
        item.response = decode_reply(reply);
      } catch (...) {
        item.error = std::current_exception();
        return false;
      }
      return !item.response->more;
    });
  } catch (const TransportError&) {
    if (done < items.size()) {
      count_request();
      items[done].error = std::current_exception();
    }
  }
}

void FramedChannel::abandon(const std::string& cookie) {
  request_.clear();
  wire::Codec::frame_abandon(request_, cookie);
  traffic_.count_frame(request_.size());
  try {
    pipe_->send(request_);
  } catch (const TransportError&) {
    // Best effort: a lost abandon only delays session expiry.
  }
}

void FramedChannel::elapse(std::uint64_t ticks) { pipe_->elapse(ticks); }

}  // namespace fbdr::net
