#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace fbdr::ldap {

/// LDAP result codes used by the simulated directory (subset of RFC 2251
/// section 4.1.10 relevant to this reproduction).
enum class ResultCode {
  Success = 0,
  OperationsError = 1,
  TimeLimitExceeded = 3,
  NoSuchAttribute = 16,
  NoSuchObject = 32,
  InvalidDnSyntax = 34,
  InsufficientAccessRights = 50,
  NamingViolation = 64,
  NotAllowedOnNonLeaf = 66,
  EntryAlreadyExists = 68,
  Referral = 10,
  UnwillingToPerform = 53,
  Other = 80,
};

/// Human readable name of a result code (for diagnostics and LDIF dumps).
std::string to_string(ResultCode code);

/// Error thrown while parsing DNs, filters or LDIF text.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Error thrown by directory operations; carries an LDAP result code.
class OperationError : public std::runtime_error {
 public:
  OperationError(ResultCode code, const std::string& what)
      : std::runtime_error(to_string(code) + ": " + what),
        code_(code),
        prefix_(to_string(code).size() + 2) {}

  ResultCode code() const noexcept { return code_; }

  /// The message as given, without the "<code>: " prefix what() carries:
  /// what crosses a framed link, where the receiver adds the prefix again.
  std::string_view message() const noexcept {
    return std::string_view(what()).substr(prefix_);
  }

 private:
  ResultCode code_;
  std::size_t prefix_;
};

/// Error thrown by the replication / synchronization protocol layers.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

/// A resync cookie the master no longer recognizes: the session idled past
/// the admin limit, was ended, or the master restarted and lost its session
/// state. This — and only this — protocol error is recoverable by a
/// full-reload restart of the update session.
class StaleCookieError : public ProtocolError {
 public:
  explicit StaleCookieError(const std::string& what) : ProtocolError(what) {}
};

/// The server refused to admit a new update session because it is at its
/// configured session capacity (LDAP busy, RFC 2251 §4.1.10). Transient by
/// definition: the client should retry the initial request with backoff
/// rather than treat the replica as failed.
class BusyError : public ProtocolError {
 public:
  explicit BusyError(const std::string& what) : ProtocolError(what) {}
};

}  // namespace fbdr::ldap
