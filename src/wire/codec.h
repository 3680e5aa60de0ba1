#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ldap/query.h"
#include "resync/protocol.h"

namespace fbdr::wire {

/// A frame or payload could not be decoded: truncated input, a checksum
/// mismatch, a length field pointing past the buffer, an out-of-range enum.
/// Every decoder entry point throws exactly this (never crashes, never
/// allocates unbounded memory): the transport layer maps it to
/// net::TransportError, so a garbled frame heals through the same
/// retry/replay-cookie machinery as a dropped one.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

using Bytes = std::vector<std::uint8_t>;

/// Frame or payload bytes owned by someone else: a send buffer, a reply, or
/// a connection's reassembly buffer (DESIGN.md §14 says how long each
/// stays valid). Every decoder reads from one, so a frame is decoded in the
/// buffer it arrived in.
using ByteSpan = std::span<const std::uint8_t>;

/// First byte of every payload: what the remaining TLV fields describe.
enum class FrameKind : std::uint8_t {
  Request = 1,   // ReSyncControl (+ query on initial and SyncEnd requests)
  Response = 2,  // ReSyncResponse
  Abandon = 3,   // one-way cookie abandon
  Error = 4,     // typed protocol rejection crossing the wire
  Push = 5,      // server-initiated persist notification (cookie, origin
                 // time, PDUs); sent only on a connection that opened a
                 // Persist session
};

/// A decoded request: the two arguments of ReSyncEndpoint::handle. A Poll
/// or Persist continuation names its session by cookie alone and decodes
/// with a null query filter; a continuation that does carry a query (an
/// older encoder) decodes it as sent.
struct RequestFrame {
  ldap::Query query;
  resync::ReSyncControl control;
};

/// A protocol-level rejection encoded onto the wire. The endpoint side of a
/// framed link catches the ldap error taxonomy, ships it as one of these,
/// and the client side rethrows the same type — so framed and direct links
/// expose identical exception behaviour at the Channel seam.
struct ErrorFrame {
  enum class Kind : std::uint8_t {
    Protocol = 1,
    StaleCookie = 2,
    Busy = 3,
    Operation = 4,
  };

  Kind kind = Kind::Protocol;
  std::int32_t result_code = 0;  // ldap::ResultCode, Operation only
  std::string message;
};

/// The length-prefixed TLV codec for the ReSync protocol (DESIGN.md §14).
///
/// Payloads are a FrameKind byte followed by TLV fields: tag (u8), length
/// (u32 big-endian), value. Decoders iterate the fields of each extent and
/// skip unknown tags, so optional protocol features map to absent tags
/// (today's "version gating by field absence" for reconciliation) and new
/// fields can be added without breaking old decoders. Integers are
/// big-endian fixed-width; strings are u32 length + bytes.
///
/// A frame is u16 magic + u8 codec version + u8 reserved (zero) + u32
/// payload length + u64 FNV-1a checksum + payload. The magic and version
/// are what keep a frame honest once it crosses a real process boundary: a
/// stray connection speaking another protocol (or a peer running an
/// incompatible codec) is rejected by header validation before a single
/// payload byte is read, and the checksum turns byte-level corruption into
/// a deterministic CodecError instead of silently decoding flipped bits
/// into wrong content.
class Codec {
 public:
  /// First two bytes of every frame on the wire.
  static constexpr std::uint16_t kMagic = 0xFBD1;
  /// Bumped on incompatible changes to the frame layout or TLV encoding.
  /// (TLV additions are compatible — unknown tags are skipped — so this
  /// only moves when the header or an existing field changes shape.)
  static constexpr std::uint8_t kCodecVersion = 1;
  static constexpr std::size_t kFrameHeaderBytes = 16;
  /// Upper bound on a sane payload; lengths beyond it are rejected before
  /// any allocation happens.
  static constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 30;
  /// Filter AST nesting bound: deeper decodes are rejected (a crafted
  /// payload must not be able to exhaust the stack).
  static constexpr int kMaxFilterDepth = 64;

  // --- frame encode: each appends one whole frame (header + payload) to
  // `out`. The payload is sized first, so `out` grows once, and the header's
  // length and checksum are written over the encoded bytes in place. A
  // buffer reused across frames therefore stops allocating. ---
  /// Writes the query only for initial and SyncEnd requests (DESIGN.md §14).
  static void frame_request(Bytes& out, const ldap::Query& query,
                            const resync::ReSyncControl& control);
  static void frame_response(Bytes& out,
                             const resync::ReSyncResponse& response);
  static void frame_abandon(Bytes& out, const std::string& cookie);
  static void frame_error(Bytes& out, const ErrorFrame& error);
  /// A persist push: only the push's cookie, origin time and PDUs travel.
  static void frame_push(Bytes& out, const resync::ReSyncResponse& push);

  // --- payload decode (throws CodecError); reads the span in place ---
  static FrameKind kind_of(ByteSpan payload);
  static RequestFrame decode_request(ByteSpan payload);
  static resync::ReSyncResponse decode_response(ByteSpan payload);
  static std::string decode_abandon(ByteSpan payload);
  static ErrorFrame decode_error(ByteSpan payload);
  /// A Push payload as a response holding cookie, origin time and PDUs.
  static resync::ReSyncResponse decode_push(ByteSpan payload);

  // --- framing ---
  /// Validates a whole frame — header, length, checksum — and returns its
  /// payload: a span into `frame`, nothing copied. Throws CodecError.
  static ByteSpan payload_of(ByteSpan frame);

  /// Validates the fixed-size header of a (possibly still incomplete) frame
  /// — magic, codec version, payload length bound — and returns the payload
  /// length it declares. `header` must point at kFrameHeaderBytes bytes.
  /// This is the shared first line of defence of payload_of() and the socket
  /// transports' stream reassembly: everything that can be rejected before
  /// buffering a payload is rejected here, with a typed CodecError.
  static std::size_t validate_header(const std::uint8_t* header);

  /// FNV-1a 64 over a byte span (the frame checksum).
  static std::uint64_t checksum(const std::uint8_t* data, std::size_t size);

  /// Rethrows a decoded ErrorFrame as its original typed ldap exception.
  [[noreturn]] static void throw_error(const ErrorFrame& error);
};

}  // namespace fbdr::wire
