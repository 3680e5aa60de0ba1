#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "ldap/query.h"
#include "resync/protocol.h"

namespace fbdr::resync {

/// Receives the persist pushes of an endpoint (DESIGN.md §15): `link` is the
/// connection the pushed session is bound to, `push` carries the session's
/// new cookie, the origin time and the PDUs. A push without PDUs is a
/// heartbeat: it moves the origin time and leaves the cookie as it is.
using NotificationSink =
    std::function<void(std::uint64_t link, const ReSyncResponse& push)>;

/// Anything a replica can run a ReSync update session against: the
/// enterprise master (ReSyncMaster over a DirectoryServer) or a relay
/// replica re-serving its locally replicated content downstream
/// (topology::RelayNode). net::Channel implementations carry exchanges to
/// an endpoint without knowing which of the two answers, which is what
/// lets sessions be stacked into multi-hop distribution trees.
class ReSyncEndpoint {
 public:
  virtual ~ReSyncEndpoint() = default;

  /// Handles one resync search request (§5.2 modes poll/persist/sync_end).
  virtual ReSyncResponse handle(const ldap::Query& query,
                                const ReSyncControl& control) = 0;

  /// Client-initiated abandon of a persistent search.
  virtual void abandon(const std::string& cookie) = 0;

  /// Advances the endpoint's logical clock (session admin limits keep
  /// running while clients back off on the link).
  virtual void tick(std::uint64_t delta = 1) = 0;

  /// Models a crash/restart losing all in-memory session state. On a relay
  /// this also bumps the cookie epoch so descendants fall back to full
  /// reloads instead of resuming against a torn store.
  virtual void reset() = 0;

  /// Address of this endpoint ("ldap://master", "relay://site-3"), used as
  /// the referral target when a downstream query is not admitted.
  virtual const std::string& url() const = 0;

  /// Persist push (§5.2 (iii)), for a transport that can carry frames the
  /// client did not ask for. The transport installs the sink, binds each
  /// persist session it served to the connection (`link`, never 0) that
  /// will carry its pushes, and unbinds the connection when it closes. Only
  /// bound sessions are pushed to; an endpoint that cannot push ignores all
  /// three, and its persist sessions behave as poll sessions.
  virtual void set_notification_sink(NotificationSink /*sink*/) {}
  virtual void bind(const std::string& /*cookie*/, std::uint64_t /*link*/) {}
  virtual void unbind(std::uint64_t /*link*/) {}
};

}  // namespace fbdr::resync
