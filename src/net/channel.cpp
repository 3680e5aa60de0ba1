#include "net/channel.h"

#include <algorithm>

#include "resync/endpoint.h"

namespace fbdr::net {

resync::ReSyncResponse DirectChannel::exchange(const ldap::Query& query,
                                               const resync::ReSyncControl& control) {
  return endpoint_->handle(query, control);
}

void Channel::exchange_all(std::span<ExchangeItem> items) {
  for (ExchangeItem& item : items) {
    try {
      item.response = exchange(*item.query, item.control);
    } catch (...) {
      item.error = std::current_exception();
      return;
    }
    if (item.response->more) return;
  }
}

void DirectChannel::abandon(const std::string& cookie) {
  endpoint_->abandon(cookie);
}

void DirectChannel::elapse(std::uint64_t ticks) { endpoint_->tick(ticks); }

namespace {

/// splitmix64 finalizer — a cheap, well-mixed deterministic hash.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::uint64_t RetryPolicy::backoff(std::size_t attempt) const {
  double ticks = static_cast<double>(base_backoff_ticks);
  for (std::size_t i = 0; i < attempt; ++i) ticks *= multiplier;
  const double capped = std::min(ticks, static_cast<double>(max_backoff_ticks));
  std::uint64_t wait = static_cast<std::uint64_t>(capped);
  if (jitter_seed != 0 && base_backoff_ticks > 0) {
    // Deterministic jitter in [0, base): same (seed, attempt) -> same wait.
    wait += mix(jitter_seed + 0x9e3779b97f4a7c15ull * (attempt + 1)) %
            base_backoff_ticks;
  }
  return std::max<std::uint64_t>(wait, 1);
}

namespace {

/// The retry loop from attempt `first` on; attempts before it already
/// failed with TransportError, and the last of them was not backed off yet.
resync::ReSyncResponse retry_from(Channel& channel, const ldap::Query& query,
                                  const resync::ReSyncControl& control,
                                  const RetryPolicy& policy,
                                  std::uint64_t* retries, std::size_t first) {
  const std::size_t attempts = std::max<std::size_t>(policy.max_attempts, 1);
  for (std::size_t attempt = first;; ++attempt) {
    if (attempt > 0) {
      channel.elapse(policy.backoff(attempt - 1));
      if (retries != nullptr) ++*retries;
    }
    try {
      return channel.exchange(query, control);
    } catch (const TransportError&) {
      if (attempt + 1 >= attempts) throw;
    }
  }
}

}  // namespace

resync::ReSyncResponse exchange_with_retry(Channel& channel,
                                           const ldap::Query& query,
                                           const resync::ReSyncControl& control,
                                           const RetryPolicy& policy,
                                           std::uint64_t* retries) {
  return retry_from(channel, query, control, policy, retries, 0);
}

resync::ReSyncResponse finish_with_retry(Channel& channel, ExchangeItem& item,
                                         const RetryPolicy& policy,
                                         std::uint64_t* retries) {
  if (item.response.has_value()) return std::move(*item.response);
  if (item.error == nullptr) {
    return retry_from(channel, *item.query, item.control, policy, retries, 0);
  }
  try {
    std::rethrow_exception(item.error);
  } catch (const TransportError&) {
    if (policy.max_attempts <= 1) throw;
  }
  return retry_from(channel, *item.query, item.control, policy, retries, 1);
}

}  // namespace fbdr::net
