#include "netio/control.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

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

std::string ControlClient::read_line() {
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    // EINTR-safe wait with the deadline recomputed per retry: SIGCHLD from
    // supervised children lands on this thread routinely.
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(timeout_ms_);
    pollfd pfd{fd_, POLLIN, 0};
    int ready;
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            give_up - std::chrono::steady_clock::now())
                            .count();
      ready = ::poll(&pfd, 1, static_cast<int>(std::max<long long>(left, 0)));
      if (ready >= 0 || errno != EINTR) break;
      if (std::chrono::steady_clock::now() >= give_up) {
        ready = 0;
        break;
      }
    }
    if (ready <= 0) {
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
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::vector<std::string> ControlClient::read_reply(const std::string& line,
                                                   std::string* error) {
  const std::string status = read_line();
  if (status.rfind("err ", 0) == 0) {
    *error = "control command '" + line + "' failed: " + status.substr(4);
    return {};
  }
  if (status.rfind("ok ", 0) != 0) {
    throw std::runtime_error("malformed control reply: " + status);
  }
  const unsigned long count = std::stoul(status.substr(3));
  std::vector<std::string> payload;
  payload.reserve(count);
  for (unsigned long i = 0; i < count; ++i) payload.push_back(read_line());
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
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int send_errno = errno;
      fail();
      throw std::runtime_error(std::string("control send: ") +
                               std::strerror(send_errno));
    }
    sent += static_cast<std::size_t>(n);
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
