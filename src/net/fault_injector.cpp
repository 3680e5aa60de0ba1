#include "net/fault_injector.h"

#include <algorithm>

#include "resync/endpoint.h"

namespace fbdr::net {

FaultyPipe::FaultyPipe(resync::ReSyncEndpoint& endpoint, FaultConfig config)
    : inner_(endpoint),
      endpoint_(&endpoint),
      config_(config),
      rng_(config.seed) {}

bool FaultyPipe::chance(double probability) {
  if (probability <= 0.0) {
    return false;
  }
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < probability;
}

void FaultyPipe::deliver_one_replay() {
  wire::Bytes frame = std::move(in_flight_.front());
  in_flight_.pop_front();
  ++counters_.replayed;
  try {
    // The response to a stray duplicate goes nowhere; the endpoint's replay
    // cache (or its out-of-sequence rejection, shipped back as an error
    // frame the void swallows) keeps the session unharmed.
    inner_.transfer(frame);
  } catch (const TransportError&) {
  }
}

wire::Bytes FaultyPipe::damage(wire::Bytes frame) {
  if (chance(config_.corrupt) && !frame.empty()) {
    ++counters_.corrupted;
    const std::size_t bit = rng_() % (frame.size() * 8);
    frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  if (chance(config_.truncate) && !frame.empty()) {
    ++counters_.truncated;
    frame.resize(rng_() % frame.size());  // strictly shorter
  }
  return frame;
}

wire::Bytes FaultyPipe::transfer(const wire::Bytes& frame) {
  ++counters_.exchanges;
  ++local_now_;
  if (down_) {
    ++counters_.rejected_while_down;
    throw TransportError("master is down");
  }
  if (local_now_ < outage_until_) {
    ++counters_.outages;
    throw TransportError("memory pressure: endpoint shedding load");
  }
  if (chance(config_.outage)) {
    const std::uint64_t span =
        std::max<std::uint64_t>(config_.max_outage_ticks, 1);
    outage_until_ = local_now_ + 1 + rng_() % span;
    ++counters_.outages;
    throw TransportError("memory pressure: endpoint shedding load");
  }
  if (!in_flight_.empty() && chance(config_.reorder)) {
    deliver_one_replay();
  }
  if (chance(config_.delay)) {
    ++counters_.delayed;
    const std::uint64_t span = std::max<std::uint64_t>(config_.max_delay_ticks, 1);
    endpoint_->tick(1 + rng_() % span);
  }
  if (chance(config_.drop_request)) {
    ++counters_.dropped_requests;
    throw TransportError("request frame lost");
  }
  if (chance(config_.duplicate)) {
    ++counters_.duplicated;
    in_flight_.push_back(frame);  // the clean copy lives on in the network
  }
  // Byte damage en route to the endpoint: the codec's checksum/length
  // validation rejects it there, which reaches us as TransportError.
  wire::Bytes response = inner_.transfer(damage(frame));
  if (chance(config_.reset)) {
    ++counters_.resets;
    throw TransportError("connection reset");
  }
  if (chance(config_.drop_response)) {
    ++counters_.dropped_responses;
    throw TransportError("response frame lost");
  }
  // Byte damage on the way back: the client-side decode rejects it.
  return damage(std::move(response));
}

void FaultyPipe::send(const wire::Bytes& frame) {
  if (down_) return;  // best effort: nothing to deliver to
  inner_.send(frame);
}

void FaultyPipe::elapse(std::uint64_t ticks) {
  local_now_ += ticks;  // backing off can outlast an outage window
  inner_.elapse(ticks);
}

void FaultyPipe::crash_master() {
  down_ = true;
  in_flight_.clear();  // frames addressed to the dead master are gone
  endpoint_->reset();
}

void FaultyPipe::restart_master() { down_ = false; }

void FaultyPipe::flush_replays() {
  while (!in_flight_.empty() && !down_) {
    deliver_one_replay();
  }
}

}  // namespace fbdr::net
