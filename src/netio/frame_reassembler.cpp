#include "netio/frame_reassembler.h"

namespace fbdr::netio {

void FrameReassembler::feed(const std::uint8_t* data, std::size_t size) {
  // The frames popped so far go now: the spans next() returned end here.
  if (head_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    complete_ -= head_;
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);

  while (buffer_.size() - complete_ >= wire::Codec::kFrameHeaderBytes) {
    // Throws on bad magic/version/length; buffer_ stays intact so the
    // caller can inspect, but the stream itself is beyond recovery.
    const std::size_t frame_size =
        wire::Codec::kFrameHeaderBytes +
        wire::Codec::validate_header(buffer_.data() + complete_);
    if (buffer_.size() - complete_ < frame_size) return;
    complete_ += frame_size;
  }
}

wire::ByteSpan FrameReassembler::next() {
  const std::size_t frame_size =
      wire::Codec::kFrameHeaderBytes +
      wire::Codec::validate_header(buffer_.data() + head_);
  const wire::ByteSpan frame(buffer_.data() + head_, frame_size);
  head_ += frame_size;
  return frame;
}

wire::Bytes FrameReassembler::next_frame() {
  const wire::ByteSpan frame = next();
  return wire::Bytes(frame.begin(), frame.end());
}

void FrameReassembler::reset() {
  buffer_.clear();
  head_ = 0;
  complete_ = 0;
}

}  // namespace fbdr::netio
