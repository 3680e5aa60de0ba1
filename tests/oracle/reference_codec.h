#pragma once

#include <string>

#include "wire/codec.h"

namespace fbdr::wire {

/// The copying reference codec the wire suites check the production codec
/// against: payload-only encoders (a frame without its header, in a fresh
/// buffer), and framing that copies a payload into a new frame or out of
/// one. Each is built on what src/ ships (the frame encoders, payload_of
/// and the checksum), except frame(), which writes the header layout of
/// DESIGN.md §14 independently.
struct ReferenceCodec {
  static Bytes encode_request(const ldap::Query& query,
                              const resync::ReSyncControl& control);
  static Bytes encode_response(const resync::ReSyncResponse& response);
  static Bytes encode_abandon(const std::string& cookie);
  static Bytes encode_error(const ErrorFrame& error);
  static Bytes encode_push(const resync::ReSyncResponse& push);

  /// Header + a copy of `payload`. Throws CodecError past the size limit.
  static Bytes frame(ByteSpan payload);
  /// Codec::payload_of, copied out.
  static Bytes deframe(ByteSpan frame);
};

}  // namespace fbdr::wire
