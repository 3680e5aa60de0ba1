#pragma once

#include <cstdint>
#include <deque>
#include <random>

#include "net/framed_channel.h"

namespace fbdr::net {

/// Per-exchange fault probabilities of a FaultyPipe (and, mapped onto
/// socket legs, of netio::ChaosProxy). All randomness is drawn from one
/// seeded generator, so a (seed, schedule) pair replays the exact same
/// fault sequence.
struct FaultConfig {
  std::uint64_t seed = 1;
  double drop_request = 0.0;   // lost before reaching the master
  double drop_response = 0.0;  // processed at the master, response lost
  double duplicate = 0.0;      // a copy stays in flight and arrives later
  double reorder = 0.0;        // chance an in-flight copy arrives before this
  double reset = 0.0;          // connection reset after processing
  double delay = 0.0;          // link delay (master clock advances)
  std::uint64_t max_delay_ticks = 4;
  /// Memory-pressure outage: with this probability an exchange opens an
  /// outage window of up to max_outage_ticks local ticks (elapse() and each
  /// exchange advance local time) during which every exchange fails with
  /// TransportError — the endpoint shedding load wholesale, as distinct from
  /// per-message loss. Models the overload regime the ResourceGovernor's
  /// budgets exist to survive.
  double outage = 0.0;
  std::uint64_t max_outage_ticks = 4;
  /// Byte-level faults: a random bit of the encoded frame is flipped / the
  /// frame is chopped at a random offset. The codec's frame checksum and
  /// length prefix turn both into CodecError → TransportError, so they heal
  /// through the same retry/replay machinery as a dropped message. Each
  /// probability is drawn independently for the request and the response
  /// frame.
  double corrupt = 0.0;
  double truncate = 0.0;
};

/// What the injector actually did — for asserting that a chaos schedule
/// exercised the paths it was meant to.
struct FaultCounters {
  std::uint64_t exchanges = 0;
  std::uint64_t dropped_requests = 0;
  std::uint64_t dropped_responses = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t replayed = 0;  // in-flight copies delivered to the master
  std::uint64_t delayed = 0;
  std::uint64_t resets = 0;
  std::uint64_t rejected_while_down = 0;
  std::uint64_t outages = 0;  // exchanges refused inside outage windows
  std::uint64_t corrupted = 0;  // frames with a flipped bit
  std::uint64_t truncated = 0;  // frames chopped short

  std::uint64_t faults() const {
    return dropped_requests + dropped_responses + duplicated + replayed +
           delayed + resets + rejected_while_down + outages + corrupted +
           truncated;
  }
};

/// The in-process fault injector: a lossy, duplicating, reordering,
/// delaying, corrupting and truncating byte link to a ReSync endpoint (the
/// enterprise master or a relay), plus a crash/restart hook that wipes the
/// endpoint's session state to model the "master restarted" case of §5.2.
/// Every faulty in-process link is a FramedChannel over one of these, so
/// the protocol structs cross it as encoded frames. Deterministic under a
/// fixed seed.
///
/// Duplication is modelled the way it bites an RPC protocol: the encoded
/// request frame is stored and re-delivered to the endpoint *later*
/// (possibly reordered ahead of a newer request), byte-identically — a
/// packet living on in the network — where only the replay-safe cookie
/// sequence numbers prevent it from consuming session history twice.
/// A damaged frame fails the codec's checksum/length validation at the
/// receiving end, surfacing as CodecError → TransportError, and heals
/// through the ordinary retry and replay-cookie machinery.
class FaultyPipe final : public BytePipe {
 public:
  FaultyPipe(resync::ReSyncEndpoint& endpoint, FaultConfig config);

  wire::Bytes transfer(const wire::Bytes& frame) override;
  void send(const wire::Bytes& frame) override;
  void elapse(std::uint64_t ticks) override;

  /// Endpoint crash: session state is wiped (ReSyncEndpoint::reset — on a
  /// relay this also bumps its cookie epoch), in-flight frames are lost,
  /// and every transfer fails with TransportError until restart_master().
  void crash_master();
  void restart_master();
  bool master_down() const noexcept { return down_; }

  /// Replaces the fault probabilities (e.g. zeroed for a quiescence phase);
  /// the random stream continues, so the schedule stays deterministic.
  void set_config(const FaultConfig& config) { config_ = config; }

  /// Delivers every still-queued duplicate to the endpoint (responses
  /// discarded) — drains the link before checking convergence.
  void flush_replays();

  const FaultCounters& counters() const noexcept { return counters_; }

 private:
  bool chance(double probability);
  void deliver_one_replay();
  /// Applies corrupt/truncate draws to a copy of `frame`; counts what it did.
  wire::Bytes damage(wire::Bytes frame);

  EndpointPipe inner_;
  resync::ReSyncEndpoint* endpoint_;
  FaultConfig config_;
  std::mt19937_64 rng_;
  std::deque<wire::Bytes> in_flight_;  // duplicated request frames
  FaultCounters counters_;
  bool down_ = false;
  std::uint64_t local_now_ = 0;
  std::uint64_t outage_until_ = 0;
};

}  // namespace fbdr::net
