#include "net/stats.h"

#include <algorithm>

namespace fbdr::net {

std::string TrafficStats::to_string() const {
  return "round_trips=" + std::to_string(round_trips) +
         " pdus=" + std::to_string(pdus) + " entries=" + std::to_string(entries) +
         " dns_only=" + std::to_string(dns_only) +
         " referrals=" + std::to_string(referrals) +
         " bytes=" + std::to_string(bytes) +
         " frames=" + std::to_string(frames);
}

FilterHealth& FilterHealth::operator+=(const FilterHealth& other) {
  degraded = degraded || other.degraded;
  ticks_behind = std::max(ticks_behind, other.ticks_behind);
  retries += other.retries;
  recoveries += other.recoveries;
  failed_syncs += other.failed_syncs;
  busy_rejections += other.busy_rejections;
  degraded_polls += other.degraded_polls;
  paged_polls += other.paged_polls;
  full_reloads += other.full_reloads;
  reconciles += other.reconciles;
  reconcile_fallbacks += other.reconcile_fallbacks;
  reconcile_entries_shipped += other.reconcile_entries_shipped;
  return *this;
}

std::size_t HealthStats::degraded_count() const {
  std::size_t count = 0;
  for (const auto& [key, health] : filters) {
    if (health.degraded) ++count;
  }
  return count;
}

FilterHealth HealthStats::total() const {
  FilterHealth sum;
  for (const auto& [key, health] : filters) sum += health;
  return sum;
}

std::string HealthStats::to_string() const {
  const FilterHealth sum = total();
  std::string out = "filters=" + std::to_string(filters.size()) +
                    " degraded=" + std::to_string(degraded_count()) +
                    " max_ticks_behind=" + std::to_string(sum.ticks_behind) +
                    " retries=" + std::to_string(sum.retries) +
                    " recoveries=" + std::to_string(sum.recoveries) +
                    " busy=" + std::to_string(sum.busy_rejections) +
                    " degraded_polls=" + std::to_string(sum.degraded_polls) +
                    " paged_polls=" + std::to_string(sum.paged_polls) +
                    " full_reloads=" + std::to_string(sum.full_reloads) +
                    " reconciles=" + std::to_string(sum.reconciles) +
                    " reconcile_shipped=" +
                    std::to_string(sum.reconcile_entries_shipped);
  for (const auto& [key, health] : filters) {
    if (!health.degraded) continue;
    out += "\n  degraded: " + key +
           " ticks_behind=" + std::to_string(health.ticks_behind);
  }
  return out;
}

}  // namespace fbdr::net
