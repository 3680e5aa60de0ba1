#include "netio/node_host.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "ldap/text.h"
#include "net/framed_channel.h"
#include "netio/socket_pipe.h"
#include "server/change.h"

namespace fbdr::netio {

namespace {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> parts;
  for (;;) {
    const std::size_t pos = text.find(delim);
    parts.emplace_back(text.substr(0, pos));
    if (pos == std::string_view::npos) return parts;
    text.remove_prefix(pos + 1);
  }
}

// The whitespace `std::istream >>` skips (the program runs in the "C"
// locale).
bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

std::string_view skip_space(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size() && is_space(text[i])) ++i;
  return text.substr(i);
}

/// Takes the first whitespace-delimited word off `text` and leaves `text` at
/// what follows, leading whitespace skipped: the word and the rest of
/// `in >> word; std::getline(in >> std::ws, rest)` on one line.
std::string_view next_word(std::string_view& text) {
  text = skip_space(text);
  std::size_t end = 0;
  while (end < text.size() && !is_space(text[end])) ++end;
  const std::string_view word = text.substr(0, end);
  text = skip_space(text.substr(end));
  return word;
}

/// The count of "tick <n>": one all-digit decimal word that fits in 64
/// bits, or no word at all (`missing`). Anything else is nullopt.
std::optional<std::uint64_t> parse_count(std::string_view text,
                                         std::uint64_t missing) {
  const std::string_view word = next_word(text);
  if (word.empty()) return missing;
  return text.empty() ? ldap::text::parse_u64(word) : std::nullopt;
}

/// An "ok" reply built in one reserved string: the payload lines go in as
/// they come, and the "ok <n>" status line goes in front of them at the end.
class OkReply {
 public:
  explicit OkReply(std::size_t reserve) {
    text_.reserve(kStatusBytes + reserve);
  }

  void line(std::string_view text) {
    text_ += text;
    text_ += '\n';
    ++lines_;
  }

  /// "<key> <value>"
  template <typename Int>
  void line(std::string_view key, Int value) {
    text_ += key;
    text_ += ' ';
    append_number(value);
    text_ += '\n';
    ++lines_;
  }

  std::string take() {
    const std::size_t payload = text_.size();
    text_ += "ok ";
    append_number(lines_);
    text_ += '\n';
    std::rotate(text_.begin(),
                text_.begin() + static_cast<std::ptrdiff_t>(payload),
                text_.end());
    return std::move(text_);
  }

 private:
  static constexpr std::size_t kStatusBytes = 24;  // "ok " + 20 digits + '\n'

  template <typename Int>
  void append_number(Int value) {
    char digits[24];
    const auto [end, error] =
        std::to_chars(digits, digits + sizeof(digits), value);
    text_.append(digits, end);
  }

  std::string text_;
  std::size_t lines_ = 0;
};

std::string ok() { return "ok 0\n"; }

std::string ok(const std::vector<std::string>& payload) {
  std::size_t size = 0;
  for (const std::string& line : payload) size += line.size() + 1;
  OkReply reply(size);
  for (const std::string& line : payload) reply.line(line);
  return reply.take();
}

std::string err(const std::string& message) { return "err " + message + "\n"; }

/// "<a>=<v1>,<v2>;<a2>=..." into attribute/value pairs.
std::vector<std::pair<std::string, std::vector<std::string>>> parse_attrs(
    std::string_view text) {
  std::vector<std::pair<std::string, std::vector<std::string>>> attrs;
  if (text.empty()) return attrs;
  for (const std::string& part : split(text, ';')) {
    if (part.empty()) continue;
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("attribute without '=': " + part);
    }
    attrs.emplace_back(part.substr(0, eq),
                       split(std::string_view(part).substr(eq + 1), ','));
  }
  return attrs;
}

}  // namespace

ldap::Query parse_query_spec(std::string_view spec) {
  const std::vector<std::string> parts = split(spec, '|');
  if (parts.size() != 3) {
    throw std::invalid_argument("query spec must be base|scope|filter: " +
                                std::string(spec));
  }
  ldap::Scope scope;
  if (parts[1] == "base") {
    scope = ldap::Scope::Base;
  } else if (parts[1] == "one") {
    scope = ldap::Scope::OneLevel;
  } else if (parts[1] == "sub") {
    scope = ldap::Scope::Subtree;
  } else {
    throw std::invalid_argument("scope must be base|one|sub: " + parts[1]);
  }
  return ldap::Query::parse(parts[0], scope, parts[2]);
}

NodeHost::NodeHost(Options options) : options_(std::move(options)) {
  EpollServer::Options server_options;
  server_options.idle_timeout_ms = options_.idle_timeout_ms;
  server_options.max_connections = options_.max_connections;
  if (options_.role == Role::Root) {
    store_ = std::make_unique<server::DirectoryServer>("ldap://" +
                                                       options_.name);
    store_->add_context({ldap::Dn::parse(options_.suffix), {}});
    // Seed the suffix base entry so applies under it resolve, matching how
    // every in-process fixture bootstraps its master.
    auto base = std::make_shared<ldap::Entry>(ldap::Dn::parse(options_.suffix));
    base->set_values("objectclass", {"organization"});
    store_->load(std::move(base));
    master_ = std::make_unique<resync::ReSyncMaster>(*store_);
    master_->set_session_time_limit(options_.session_time_limit);
    server_ = std::make_unique<EpollServer>(*master_, server_options);
  } else {
    topology::RelayNode::Config config;
    config.name = options_.name;
    config.suffix = ldap::Dn::parse(options_.suffix);
    config.retry = options_.retry;
    config.session_time_limit = options_.session_time_limit;
    config.framed = true;  // the upstream hop really is framed bytes now
    relay_ = std::make_unique<topology::RelayNode>(std::move(config));

    SocketPipe::Options pipe;
    pipe.addr = options_.parent;
    pipe.io_timeout_ms = options_.io_timeout_ms;
    pipe.connect_timeout_ms = options_.connect_timeout_ms;
    auto channel = std::make_shared<net::FramedChannel>(
        std::make_shared<SocketPipe>(std::move(pipe)));
    relay_->connect(std::move(channel), options_.parent_url);
    server_ = std::make_unique<EpollServer>(*relay_, server_options);
  }
}

resync::ReSyncEndpoint& NodeHost::endpoint() {
  if (master_) return *master_;
  return *relay_;
}

void NodeHost::run() {
  listen();
  server_->run();
}

void NodeHost::listen() {
  server_->listen(options_.listen);
  server_->listen_control(options_.control,
                          [this](const std::string& line) {
                            return handle_control(line);
                          });
  if (options_.ready_fd >= 0) {
    const char ready = 'r';
    ssize_t wrote = -1;
    do {
      wrote = ::write(options_.ready_fd, &ready, 1);
    } while (wrote < 0 && errno == EINTR);
    ::close(options_.ready_fd);
    options_.ready_fd = -1;
  }
}

std::string NodeHost::handle_control(const std::string& line) {
  try {
    std::string_view rest = line;
    const std::string_view command = next_word(rest);

    if (command == "ping") return ok();

    if (command == "quit") {
      server_->request_stop();
      return ok();
    }

    if (command == "tick") {
      const std::optional<std::uint64_t> ticks = parse_count(rest, 1);
      if (!ticks) return err("tick: bad count: " + std::string(rest));
      std::lock_guard<std::mutex> lock(server_->endpoint_mutex());
      endpoint().tick(*ticks);
      return ok();
    }

    if (command == "install") {
      if (!relay_) return err("install: not a relay");
      std::lock_guard<std::mutex> lock(server_->endpoint_mutex());
      relay_->add_filter(parse_query_spec(rest));
      return ok();
    }

    if (command == "installall") {
      if (!relay_) return err("installall: not a relay");
      std::lock_guard<std::mutex> lock(server_->endpoint_mutex());
      return ok({relay_->install_all() ? "1" : "0"});
    }

    if (command == "sync") {
      if (!relay_) return err("sync: not a relay");
      std::lock_guard<std::mutex> lock(server_->endpoint_mutex());
      relay_->sync();
      return ok();
    }

    if (command == "pump") {
      if (!master_) return err("pump: not the root");
      std::lock_guard<std::mutex> lock(server_->endpoint_mutex());
      master_->pump();
      return ok();
    }

    if (command == "apply") return do_apply(rest);

    if (command == "keys") return do_keys(rest);

    if (command == "health") return do_health();

    return err("unknown command: " + std::string(command));
  } catch (const std::exception& e) {
    return err(e.what());
  }
}

std::string NodeHost::do_apply(std::string_view rest) {
  if (!store_) return err("apply: not the root");
  const std::string op(next_word(rest));
  const std::string_view spec = rest;

  std::lock_guard<std::mutex> lock(server_->endpoint_mutex());
  if (op == "del") {
    store_->remove(ldap::Dn::parse(spec));
    return ok();
  }
  const std::size_t bar = spec.find('|');
  if (bar == std::string_view::npos) {
    return err("apply " + op + ": missing '|'");
  }
  const ldap::Dn dn = ldap::Dn::parse(spec.substr(0, bar));
  const auto attrs = parse_attrs(spec.substr(bar + 1));

  if (op == "add") {
    auto entry = std::make_shared<ldap::Entry>(dn);
    for (const auto& [attr, values] : attrs) entry->set_values(attr, values);
    store_->add(std::move(entry));
    return ok();
  }
  if (op == "mod") {
    std::vector<server::Modification> mods;
    for (const auto& [attr, values] : attrs) {
      mods.push_back({server::Modification::Op::Replace, attr, values});
    }
    store_->modify(dn, std::move(mods));
    return ok();
  }
  return err("apply: op must be add|del|mod");
}

std::string NodeHost::do_keys(std::string_view spec) {
  const ldap::Query query = parse_query_spec(spec);
  std::vector<std::string> keys;
  {
    std::lock_guard<std::mutex> lock(server_->endpoint_mutex());
    const server::DirectoryServer& content =
        store_ ? *store_ : relay_->mirror();
    for (const ldap::EntryPtr& entry : content.evaluate(query)) {
      keys.push_back(entry->dn().norm_key());
    }
  }
  std::sort(keys.begin(), keys.end());
  return ok(keys);
}

std::string NodeHost::do_health() {
  std::lock_guard<std::mutex> lock(server_->endpoint_mutex());
  OkReply reply(512);
  if (master_) {
    reply.line("role root");
    reply.line("sessions", master_->session_count());
    reply.line("now", master_->now());
  } else {
    const topology::RelayNode::Status status = relay_->status();
    reply.line("role relay");
    reply.line("epoch", status.epoch);
    reply.line("recoveries", status.upstream.recoveries);
    reply.line("degraded", status.upstream.degraded ? 1 : 0);
    reply.line("failed_streak", status.failed_streak);
    reply.line("root_time", status.root_time);
    reply.line("full_reloads", status.upstream.full_reloads);
    reply.line("reconciles", status.upstream.reconciles);
    reply.line("sessions", status.downstream_sessions);
  }
  // Journal depth: the root's store, or the relay's mirror.
  const server::ChangeJournal& journal =
      store_ ? store_->journal() : relay_->mirror().journal();
  reply.line("journal_records", journal.size());
  reply.line("journal_trimmed_up_to", journal.trimmed_up_to());
  const EpollServer::Stats stats = server_->stats();
  reply.line("frames_in", stats.frames_in);
  reply.line("frames_out", stats.frames_out);
  reply.line("connections", server_->open_connections());
  reply.line("garbled_closes", stats.garbled_closes);
  reply.line("backpressure", stats.backpressure_pauses);
  reply.line("idle_reaped", stats.idle_reaped);
  reply.line("shed_accepts", stats.shed_accepts);
  return reply.take();
}

}  // namespace fbdr::netio
