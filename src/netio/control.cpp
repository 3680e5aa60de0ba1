#include "netio/control.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "ldap/text.h"

namespace fbdr::netio {

ControlClient::ControlClient(const SocketAddr& addr, int timeout_ms)
    : timeout_ms_(timeout_ms), addr_(addr) {
  std::string error;
  fd_ = open_client(addr, timeout_ms, &error);
  if (fd_ < 0) {
    throw std::runtime_error("control connect " + addr.to_string() + ": " +
                             error);
  }
}

ControlClient::~ControlClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string_view ControlClient::read_line(
    std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n', read_pos_);
    if (newline != std::string::npos) {
      const std::string_view line(buffer_.data() + read_pos_,
                                  newline - read_pos_);
      read_pos_ = newline + 1;
      return line;
    }
    if (poll_until(fd_, POLLIN, deadline) <= 0) {
      throw std::runtime_error("control reply timed out (" +
                               addr_.to_string() + ")");
    }
    char chunk[4096];
    ssize_t n;
    do {
      n = ::recv(fd_, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) {
      throw std::runtime_error("control connection closed (" +
                               addr_.to_string() + ")");
    }
    // The lines read so far go before the buffer grows.
    buffer_.erase(0, read_pos_);
    read_pos_ = 0;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::vector<std::string> ControlClient::read_reply(const std::string& line,
                                                   std::string* error) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms_);
  const std::string_view status = read_line(deadline);
  if (status.starts_with("err ")) {
    *error = "control command '" + line + "' failed: " +
             std::string(status.substr(4));
    return {};
  }
  // "ok <count>": the count is one or more digits that fit, and nothing else.
  const std::optional<std::uint64_t> count =
      status.starts_with("ok ") ? ldap::text::parse_u64(status.substr(3))
                                : std::nullopt;
  if (!count) {
    throw std::runtime_error("malformed control reply: " + std::string(status));
  }
  std::vector<std::string> payload;
  payload.reserve(*count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    payload.emplace_back(read_line(deadline));
  }
  return payload;
}

std::vector<std::string> ControlClient::request(const std::string& line) {
  return std::move(request_all({line}).front());
}

std::vector<std::vector<std::string>> ControlClient::request_all(
    const std::vector<std::string>& lines) {
  send(lines);
  return finish();
}

void ControlClient::send(const std::vector<std::string>& lines) {
  if (fd_ < 0) {
    throw std::runtime_error("control connection closed (" +
                             addr_.to_string() + ")");
  }
  std::string out;
  std::size_t size = 0;
  for (const std::string& line : lines) size += line.size() + 1;
  out.reserve(size);
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  if (!send_all(fd_, out.data(), out.size())) {
    const int send_errno = errno;
    fail();
    throw std::runtime_error(std::string("control send: ") +
                             std::strerror(send_errno));
  }
  unanswered_.insert(unanswered_.end(), lines.begin(), lines.end());
}

std::vector<std::vector<std::string>> ControlClient::finish() {
  std::vector<std::vector<std::string>> payloads;
  payloads.reserve(unanswered_.size());
  std::string first_error;
  try {
    for (const std::string& line : unanswered_) {
      std::string error;
      payloads.push_back(read_reply(line, &error));
      if (first_error.empty()) first_error = std::move(error);
    }
  } catch (...) {
    fail();
    throw;
  }
  unanswered_.clear();
  if (!first_error.empty()) throw std::runtime_error(first_error);
  return payloads;
}

void ControlClient::fail() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
  read_pos_ = 0;
  unanswered_.clear();
}

std::map<std::string, std::string> ControlClient::health() {
  std::map<std::string, std::string> map;
  for (const std::string& line : request("health")) {
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    map[line.substr(0, space)] = line.substr(space + 1);
  }
  return map;
}

}  // namespace fbdr::netio
