#include "netio/socket_pipe.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace fbdr::netio {

SocketPipe::SocketPipe(Options options) : options_(std::move(options)) {}

SocketPipe::~SocketPipe() { close(); }

void SocketPipe::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reassembler_.reset();
}

void SocketPipe::fail(const std::string& what) {
  close();
  throw net::TransportError(what + " (" + options_.addr.to_string() + ")");
}

void SocketPipe::ensure_connected() {
  if (fd_ >= 0) return;
  std::string error;
  const int fd = open_client(options_.addr, options_.connect_timeout_ms, &error);
  if (fd < 0) fail("connect failed: " + error);
  fd_ = fd;
  reassembler_.reset();
  ++connects_;
}

void SocketPipe::write_all(std::span<iovec> parts) {
  if (!send_all(fd_, parts)) {
    fail(std::string("send failed: ") + std::strerror(errno));
  }
}

void SocketPipe::write_all(const wire::Bytes& frame) {
  iovec part{const_cast<std::uint8_t*>(frame.data()), frame.size()};
  write_all(std::span<iovec>(&part, 1));
}

std::chrono::steady_clock::time_point SocketPipe::io_deadline() const {
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(options_.io_timeout_ms);
}

wire::ByteSpan SocketPipe::read_frame(
    std::chrono::steady_clock::time_point deadline) {
  std::uint8_t chunk[4096];
  while (!reassembler_.has_frame()) {
    const int ready = poll_until(fd_, POLLIN, deadline);
    if (ready == 0) fail("response timed out");
    if (ready < 0) fail(std::string("poll failed: ") + std::strerror(errno));

    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) fail("connection closed by peer");
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(std::string("recv failed: ") + std::strerror(errno));
    }
    try {
      reassembler_.feed(chunk, static_cast<std::size_t>(n));
    } catch (const wire::CodecError& e) {
      // The response stream lost its framing — unrecoverable connection.
      fail(std::string("garbled response stream: ") + e.what());
    }
  }
  return reassembler_.next();
}

wire::Bytes SocketPipe::transfer(const wire::Bytes& frame) {
  ensure_connected();
  write_all(frame);
  const wire::ByteSpan reply = read_frame(io_deadline());
  return wire::Bytes(reply.begin(), reply.end());
}

void SocketPipe::transfer_all(const std::vector<wire::Bytes>& frames,
                              const ReplySink& on_reply) {
  if (frames.empty()) return;
  ensure_connected();
  // One sendmsg over the frames where they lie, no concatenated copy.
  parts_.clear();
  for (const wire::Bytes& frame : frames) {
    parts_.push_back({const_cast<std::uint8_t*>(frame.data()), frame.size()});
  }
  write_all(parts_);
  const auto deadline = io_deadline();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    // Decoded by the sink before the next read can move the buffer.
    on_reply(read_frame(deadline));
  }
}

void SocketPipe::send(const wire::Bytes& frame) {
  // One-way, best effort: failures (including failure to connect) are
  // swallowed exactly like EndpointPipe swallows a garbled abandon.
  try {
    ensure_connected();
    write_all(frame);
  } catch (const net::TransportError&) {
  }
}

void SocketPipe::elapse(std::uint64_t /*ticks*/) {}

}  // namespace fbdr::netio
