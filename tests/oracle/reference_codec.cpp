#include "reference_codec.h"

namespace fbdr::wire {

namespace {

/// The payload of the one frame `put` appends.
template <typename Put>
Bytes payload_only(Put&& put) {
  Bytes frame;
  put(frame);
  return ReferenceCodec::deframe(frame);
}

void store_u32(std::uint8_t* at, std::uint32_t v) {
  at[0] = static_cast<std::uint8_t>(v >> 24);
  at[1] = static_cast<std::uint8_t>(v >> 16);
  at[2] = static_cast<std::uint8_t>(v >> 8);
  at[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

Bytes ReferenceCodec::encode_request(const ldap::Query& query,
                                     const resync::ReSyncControl& control) {
  return payload_only(
      [&](Bytes& out) { Codec::frame_request(out, query, control); });
}

Bytes ReferenceCodec::encode_response(const resync::ReSyncResponse& response) {
  return payload_only([&](Bytes& out) { Codec::frame_response(out, response); });
}

Bytes ReferenceCodec::encode_abandon(const std::string& cookie) {
  return payload_only([&](Bytes& out) { Codec::frame_abandon(out, cookie); });
}

Bytes ReferenceCodec::encode_error(const ErrorFrame& error) {
  return payload_only([&](Bytes& out) { Codec::frame_error(out, error); });
}

Bytes ReferenceCodec::encode_push(const resync::ReSyncResponse& push) {
  return payload_only([&](Bytes& out) { Codec::frame_push(out, push); });
}

Bytes ReferenceCodec::frame(ByteSpan payload) {
  if (payload.size() > Codec::kMaxPayloadBytes) {
    throw CodecError("payload exceeds frame size limit");
  }
  Bytes out(Codec::kFrameHeaderBytes + payload.size());
  out[0] = static_cast<std::uint8_t>(Codec::kMagic >> 8);
  out[1] = static_cast<std::uint8_t>(Codec::kMagic);
  out[2] = Codec::kCodecVersion;
  out[3] = 0;
  store_u32(out.data() + 4, static_cast<std::uint32_t>(payload.size()));
  const std::uint64_t sum = Codec::checksum(payload.data(), payload.size());
  store_u32(out.data() + 8, static_cast<std::uint32_t>(sum >> 32));
  store_u32(out.data() + 12, static_cast<std::uint32_t>(sum));
  std::copy(payload.begin(), payload.end(),
            out.begin() + static_cast<std::ptrdiff_t>(Codec::kFrameHeaderBytes));
  return out;
}

Bytes ReferenceCodec::deframe(ByteSpan frame) {
  const ByteSpan payload = Codec::payload_of(frame);
  return Bytes(payload.begin(), payload.end());
}

}  // namespace fbdr::wire
