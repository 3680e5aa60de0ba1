#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wire/codec.h"

namespace fbdr::netio {

/// Turns an arbitrary-chunked byte stream back into whole wire frames.
///
/// TCP and Unix stream sockets deliver bytes, not messages: a single read
/// can hold half a header, three frames and the start of a fourth. The
/// reassembler buffers fed bytes, validates each frame header the moment 16
/// bytes of it exist (wire::Codec::validate_header — magic, version, length
/// bound), and hands out complete header+payload frames in arrival order.
///
/// Frames are handed out in place: next() returns a span into the
/// reassembler's own buffer, valid until the next feed() or reset() (the
/// buffer-ownership rule of DESIGN.md §14). A caller decodes each frame
/// before it feeds more bytes.
///
/// A hostile or corrupt header makes feed() throw wire::CodecError with the
/// buffered bytes intact; past that point the stream has no recoverable
/// framing, so callers must drop the connection (SocketPipe and EpollServer
/// both do). Frames completed before the bad header remain retrievable.
class FrameReassembler {
 public:
  /// Appends stream bytes and finds every frame they complete. Throws
  /// wire::CodecError when the stream's next header is invalid.
  void feed(const std::uint8_t* data, std::size_t size);

  bool has_frame() const noexcept { return head_ < complete_; }

  /// Pops the oldest complete frame (header + payload, ready for
  /// wire::Codec::payload_of), valid until the next feed() or reset().
  /// Precondition: has_frame().
  wire::ByteSpan next();

  /// next(), copied out.
  wire::Bytes next_frame();

  /// Bytes buffered toward a not-yet-complete frame.
  std::size_t pending_bytes() const noexcept {
    return buffer_.size() - complete_;
  }

  void reset();

 private:
  // [head_, complete_) holds the whole frames not yet popped, back to back;
  // [complete_, end) the start of the next one.
  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;
  std::size_t complete_ = 0;
};

}  // namespace fbdr::netio
