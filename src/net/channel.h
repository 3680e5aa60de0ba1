#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "ldap/query.h"
#include "resync/protocol.h"

namespace fbdr::resync {
class ReSyncEndpoint;
}

namespace fbdr::net {

/// A request or response was lost in transit (dropped, connection reset,
/// master unreachable). Unlike ldap::ProtocolError this says nothing about
/// session state — the exchange may or may not have been processed — so the
/// correct client reaction is to retry the same request under its
/// RetryPolicy, relying on the replay-safe cookie sequence numbers for
/// idempotence.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what) : std::runtime_error(what) {}
};

/// One request of a pipelined batch (Channel::exchange_all) and, once the
/// batch returns, its outcome: the reply, or the error the one-at-a-time
/// exchange would have thrown (a protocol rejection or TransportError). An
/// item with neither was not sent.
struct ExchangeItem {
  ExchangeItem(const ldap::Query& q, resync::ReSyncControl c)
      : query(&q), control(std::move(c)) {}

  const ldap::Query* query;
  resync::ReSyncControl control;
  std::optional<resync::ReSyncResponse> response;
  std::exception_ptr error;
};

/// The transport seam between a ReSync replica and its upstream endpoint —
/// the enterprise master or a relay replica re-serving its content — one
/// request/response exchange of the protocol. DirectChannel preserves the
/// historical infallible in-process call; a FramedChannel over a FaultyPipe
/// (fault_injector.h) injects deterministic loss, duplication, reordering,
/// delay, byte damage and master restarts so the recovery paths of §5.2
/// can be exercised.
class Channel {
 public:
  virtual ~Channel() = default;

  /// Performs one exchange. Throws TransportError on (simulated) link
  /// failure and ldap::ProtocolError family on protocol-level rejection.
  virtual resync::ReSyncResponse exchange(const ldap::Query& query,
                                          const resync::ReSyncControl& control) = 0;

  /// Performs the exchanges of `items` in order and records each outcome in
  /// its item instead of throwing. The default runs exchange() one item at
  /// a time and stops after the first item that is not a final clean reply
  /// — an error, or a page with more to follow — because the caller follows
  /// that item up before it would have sent the next; later items come back
  /// not sent. A pipelining channel (FramedChannel over a SocketPipe) may
  /// already have sent them and then reports their outcomes too. Outcomes
  /// never skip: once an item is not sent, no later item is.
  virtual void exchange_all(std::span<ExchangeItem> items);

  /// Client-initiated abandon of a persistent search (best effort).
  virtual void abandon(const std::string& cookie) = 0;

  /// Logical time spent waiting on the link (retry backoff). Forwarded to
  /// the master clock so session admin limits keep running while a client
  /// backs off.
  virtual void elapse(std::uint64_t ticks) = 0;
};

/// The in-process channel: requests reach the endpoint unconditionally, in
/// order, exactly once — today's behavior, now behind the seam.
class DirectChannel final : public Channel {
 public:
  explicit DirectChannel(resync::ReSyncEndpoint& endpoint)
      : endpoint_(&endpoint) {}

  resync::ReSyncResponse exchange(const ldap::Query& query,
                                  const resync::ReSyncControl& control) override;
  void abandon(const std::string& cookie) override;
  void elapse(std::uint64_t ticks) override;

 private:
  resync::ReSyncEndpoint* endpoint_;
};

/// Client-side retry discipline for transport failures: up to max_attempts
/// tries, exponential backoff in logical ticks with deterministic jitter.
struct RetryPolicy {
  std::size_t max_attempts = 1;  // 1 = no retries
  std::uint64_t base_backoff_ticks = 1;
  double multiplier = 2.0;
  std::uint64_t max_backoff_ticks = 64;
  std::uint64_t jitter_seed = 0;  // 0 disables jitter

  /// Backoff before retry number `attempt` (0-based), jitter included.
  std::uint64_t backoff(std::size_t attempt) const;
};

/// Runs one exchange under the retry policy: TransportErrors consume
/// attempts (with backoff elapsed on the channel between tries); protocol
/// errors propagate immediately. `retries`, when given, accumulates the
/// number of re-sent requests.
resync::ReSyncResponse exchange_with_retry(Channel& channel,
                                           const ldap::Query& query,
                                           const resync::ReSyncControl& control,
                                           const RetryPolicy& policy,
                                           std::uint64_t* retries = nullptr);

/// Finishes one item of an exchange_all batch under the retry policy, as if
/// it had gone through exchange_with_retry: a reply is returned and a
/// protocol error rethrown. A TransportError in the batch counts as the
/// first attempt, so the remaining attempts back off and re-send exactly as
/// exchange_with_retry would have; an item that was not sent runs the whole
/// policy.
resync::ReSyncResponse finish_with_retry(Channel& channel, ExchangeItem& item,
                                         const RetryPolicy& policy,
                                         std::uint64_t* retries = nullptr);

}  // namespace fbdr::net
