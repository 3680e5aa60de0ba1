#include "net/framed_channel.h"

#include "ldap/error.h"
#include "resync/endpoint.h"

namespace fbdr::net {

ServedFrame serve_frame(resync::ReSyncEndpoint& endpoint,
                        const wire::Bytes& frame) {
  using Outcome = ServedFrame::Outcome;
  wire::Bytes payload;
  wire::FrameKind kind;
  wire::RequestFrame request;
  try {
    payload = wire::Codec::deframe(frame);
    kind = wire::Codec::kind_of(payload);
    if (kind == wire::FrameKind::Request) {
      request = wire::Codec::decode_request(payload);
    } else if (kind != wire::FrameKind::Abandon) {
      throw wire::CodecError("frame is neither a request nor an abandon");
    }
  } catch (const wire::CodecError& e) {
    return {Outcome::Garbled, {}, e.what()};
  }

  if (kind == wire::FrameKind::Abandon) {
    // One-way, best effort: nothing that goes wrong here reaches the sender.
    try {
      endpoint.abandon(wire::Codec::decode_abandon(payload));
      return {Outcome::Abandoned, {}, {}};
    } catch (const std::exception&) {
      return {Outcome::Dropped, {}, {}};
    }
  }

  // Note the catch order: the specific protocol errors (stale cookie, busy)
  // must ship as their own kinds so the client-side rethrow is type-exact.
  wire::ErrorFrame error;
  try {
    return {Outcome::Reply,
            wire::Codec::frame(wire::Codec::encode_response(
                endpoint.handle(request.query, request.control))),
            {}};
  } catch (const ldap::StaleCookieError& e) {
    error = {wire::ErrorFrame::Kind::StaleCookie, 0, e.what()};
  } catch (const ldap::BusyError& e) {
    error = {wire::ErrorFrame::Kind::Busy, 0, e.what()};
  } catch (const ldap::ProtocolError& e) {
    error = {wire::ErrorFrame::Kind::Protocol, 0, e.what()};
  } catch (const ldap::OperationError& e) {
    error = {wire::ErrorFrame::Kind::Operation,
             static_cast<std::int32_t>(e.code()), e.what()};
  }
  return {Outcome::Reply, wire::Codec::frame(wire::Codec::encode_error(error)),
          {}};
}

wire::Bytes EndpointPipe::transfer(const wire::Bytes& frame) {
  ServedFrame served = serve_frame(*endpoint_, frame);
  // The server cannot parse the frame, so it drops it; the client sees
  // the exchange fail at the transport level and retries.
  if (served.outcome != ServedFrame::Outcome::Reply) {
    throw TransportError("garbled request frame: " + served.error);
  }
  return std::move(served.reply);
}

void EndpointPipe::send(const wire::Bytes& frame) {
  serve_frame(*endpoint_, frame);  // one-way: no outcome reaches the sender
}

void EndpointPipe::elapse(std::uint64_t ticks) { endpoint_->tick(ticks); }

void BytePipe::transfer_all(const std::vector<wire::Bytes>& frames,
                            const ReplySink& on_reply) {
  for (const wire::Bytes& frame : frames) {
    if (!on_reply(transfer(frame))) return;
  }
}

resync::ReSyncResponse FramedChannel::decode_reply(const wire::Bytes& reply) {
  traffic_.count_frame(reply.size());
  resync::ReSyncResponse response;
  wire::ErrorFrame error;
  bool is_error = false;
  try {
    const wire::Bytes payload = wire::Codec::deframe(reply);
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
  const wire::Bytes request =
      wire::Codec::frame(wire::Codec::encode_request(query, control));
  traffic_.count_round_trip();
  traffic_.count_frame(request.size());
  return decode_reply(pipe_->transfer(request));  // TransportError flows
}

void FramedChannel::exchange_all(std::span<ExchangeItem> items) {
  std::vector<wire::Bytes> frames;
  frames.reserve(items.size());
  for (const ExchangeItem& item : items) {
    frames.push_back(
        wire::Codec::frame(wire::Codec::encode_request(*item.query, item.control)));
  }
  std::size_t done = 0;  // items with an outcome
  const auto count_request = [&] {
    traffic_.count_round_trip();
    traffic_.count_frame(frames[done].size());
  };
  try {
    pipe_->transfer_all(frames, [&](wire::Bytes reply) {
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
  const wire::Bytes frame =
      wire::Codec::frame(wire::Codec::encode_abandon(cookie));
  traffic_.count_frame(frame.size());
  try {
    pipe_->send(frame);
  } catch (const TransportError&) {
    // Best effort: a lost abandon only delays session expiry.
  }
}

void FramedChannel::elapse(std::uint64_t ticks) { pipe_->elapse(ticks); }

}  // namespace fbdr::net
