#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace fbdr::net {

/// Traffic accounting for the simulated client/server and master/replica
/// links. The paper's evaluation reports update traffic in *number of
/// entries* (Figs. 6-7) and protocol costs in round trips (§2.3). Every
/// ledger (master, framed channel, subtree service, distributed client)
/// counts PDUs through the same tallies; only a FramedChannel fills `bytes`
/// and `frames`, with the encoded frame sizes that crossed it. A direct
/// link moves no bytes and reports none.
struct TrafficStats {
  std::uint64_t round_trips = 0;    // request/response exchanges
  std::uint64_t pdus = 0;           // protocol data units (entries, refs, DNs)
  std::uint64_t entries = 0;        // full entries transferred
  std::uint64_t dns_only = 0;       // delete/retain PDUs carrying only a DN
  std::uint64_t referrals = 0;      // referral PDUs
  std::uint64_t bytes = 0;          // encoded frame bytes (framed links)
  std::uint64_t frames = 0;         // encoded frames carried (framed links)

  void count_round_trip() { ++round_trips; }

  /// One encoded frame of `frame_bytes` bytes crossed the link (header
  /// included).
  void count_frame(std::size_t frame_bytes) {
    ++frames;
    bytes += frame_bytes;
  }

  void note_entry() {
    ++pdus;
    ++entries;
  }

  void note_dn() {
    ++pdus;
    ++dns_only;
  }

  void note_referral() {
    ++pdus;
    ++referrals;
  }

  TrafficStats& operator+=(const TrafficStats& other) {
    round_trips += other.round_trips;
    pdus += other.pdus;
    entries += other.entries;
    dns_only += other.dns_only;
    referrals += other.referrals;
    bytes += other.bytes;
    frames += other.frames;
    return *this;
  }

  void reset() { *this = {}; }

  std::string to_string() const;
};

/// Health of one replicated filter's update session, as seen by the replica
/// site. A filter degrades when its session is down past the retry budget;
/// it keeps serving containment hits from (possibly stale) local content
/// until the recovery on reconnect (digest walk or full reload) heals it.
struct FilterHealth {
  bool degraded = false;
  std::uint64_t ticks_behind = 0;   // master clock now - last successful sync
  std::uint64_t retries = 0;        // transport retries spent on this filter
  std::uint64_t recoveries = 0;     // session recoveries (reload + reconcile)
  std::uint64_t failed_syncs = 0;   // sync rounds lost to transport faults
  std::uint64_t busy_rejections = 0;  // initial requests bounced at capacity
  std::uint64_t degraded_polls = 0;   // eq.(3) complete enumerations received
  std::uint64_t paged_polls = 0;      // continuation pages fetched
  std::uint64_t full_reloads = 0;     // recoveries that reshipped everything
  std::uint64_t reconciles = 0;       // recoveries healed by a digest walk
  std::uint64_t reconcile_fallbacks = 0;  // walks refused: full_reloads subset
  std::uint64_t reconcile_entries_shipped = 0;  // diff PDUs those walks cost

  /// Folds another filter in: counters add, `degraded` ORs, `ticks_behind`
  /// keeps the maximum.
  FilterHealth& operator+=(const FilterHealth& other);
};

/// Per-filter health of a replica site, the robustness counterpart of
/// TrafficStats: staleness and degradation instead of bytes and PDUs.
struct HealthStats {
  std::map<std::string, FilterHealth> filters;  // keyed by query key

  std::size_t degraded_count() const;
  bool any_degraded() const { return degraded_count() > 0; }
  /// Every filter folded into one (FilterHealth::operator+=).
  FilterHealth total() const;

  std::string to_string() const;
};

/// Deterministic logical clock used wherever the protocols need "time"
/// (session timeouts, update windows). One tick is one simulated event.
class LogicalClock {
 public:
  std::uint64_t now() const noexcept { return now_; }
  std::uint64_t tick() { return ++now_; }
  void advance(std::uint64_t delta) { now_ += delta; }

 private:
  std::uint64_t now_ = 0;
};

}  // namespace fbdr::net
