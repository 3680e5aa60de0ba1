#include "net/framed_channel.h"

#include "ldap/error.h"
#include "resync/endpoint.h"

namespace fbdr::net {

namespace {

wire::Bytes encode_error_frame(wire::ErrorFrame::Kind kind,
                               const std::string& message,
                               std::int32_t result_code = 0) {
  wire::ErrorFrame error;
  error.kind = kind;
  error.result_code = result_code;
  error.message = message;
  return wire::Codec::frame(wire::Codec::encode_error(error));
}

}  // namespace

wire::Bytes EndpointPipe::transfer(const wire::Bytes& frame) {
  wire::RequestFrame request;
  try {
    const wire::Bytes payload = wire::Codec::deframe(frame);
    if (wire::Codec::kind_of(payload) != wire::FrameKind::Request) {
      throw wire::CodecError("frame in request position is not a request");
    }
    request = wire::Codec::decode_request(payload);
  } catch (const wire::CodecError& e) {
    // The server cannot parse the frame, so it drops it; the client sees
    // the exchange fail at the transport level and retries.
    throw TransportError(std::string("garbled request frame: ") + e.what());
  }
  // Note the catch order: the specific protocol errors (stale cookie, busy)
  // must ship as their own kinds so the client-side rethrow is type-exact.
  try {
    return wire::Codec::frame(
        wire::Codec::encode_response(endpoint_->handle(request.query,
                                                       request.control)));
  } catch (const ldap::StaleCookieError& e) {
    return encode_error_frame(wire::ErrorFrame::Kind::StaleCookie, e.what());
  } catch (const ldap::BusyError& e) {
    return encode_error_frame(wire::ErrorFrame::Kind::Busy, e.what());
  } catch (const ldap::ProtocolError& e) {
    return encode_error_frame(wire::ErrorFrame::Kind::Protocol, e.what());
  } catch (const ldap::OperationError& e) {
    return encode_error_frame(wire::ErrorFrame::Kind::Operation, e.what(),
                              static_cast<std::int32_t>(e.code()));
  }
}

void EndpointPipe::send(const wire::Bytes& frame) {
  try {
    const wire::Bytes payload = wire::Codec::deframe(frame);
    if (wire::Codec::kind_of(payload) != wire::FrameKind::Abandon) return;
    endpoint_->abandon(wire::Codec::decode_abandon(payload));
  } catch (const wire::CodecError&) {
    // One-way garbage is silently dropped; abandon is best effort anyway.
  }
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
