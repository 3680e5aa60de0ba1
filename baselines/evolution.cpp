#include "evolution.h"

#include <algorithm>

namespace fbdr::select {

using ldap::Query;

EvolutionSelector::EvolutionSelector(Config config, Generalizer generalizer,
                                     FilterSelector::SizeEstimator estimator)
    : config_(config),
      generalizer_(std::move(generalizer)),
      estimator_(std::move(estimator)) {}

std::optional<FilterSelector::Revolution> EvolutionSelector::observe(
    const Query& query) {
  ++since_revolution_;
  if (const auto candidate = generalizer_.generalize(query)) {
    const std::string key = candidate->key();
    auto [it, inserted] = candidates_.try_emplace(key);
    if (inserted) {
      it->second.query = *candidate;
      it->second.size = std::max<std::size_t>(1, estimator_(*candidate));
    }
    it->second.benefit += 1.0;  // evolution: per-query benefit update
  }

  if (since_revolution_ < config_.min_interval) return std::nullopt;
  double stored_benefit = 0.0;
  double candidate_benefit = 0.0;
  for (const auto& [key, candidate] : candidates_) {
    (candidate.stored ? stored_benefit : candidate_benefit) += candidate.benefit;
  }
  if (candidate_benefit > config_.revolution_threshold * stored_benefit) {
    return revolve();
  }
  return std::nullopt;
}

FilterSelector::Revolution EvolutionSelector::revolve() {
  since_revolution_ = 0;
  ++revolutions_;

  std::vector<Candidate*> ranked;
  ranked.reserve(candidates_.size());
  for (auto& [key, candidate] : candidates_) {
    if (candidate.benefit > 0.0) ranked.push_back(&candidate);
  }
  std::sort(ranked.begin(), ranked.end(), [](const Candidate* a, const Candidate* b) {
    const double ra = a->benefit / static_cast<double>(a->size);
    const double rb = b->benefit / static_cast<double>(b->size);
    if (ra != rb) return ra > rb;
    return a->query.key() < b->query.key();
  });

  FilterSelector::Revolution revolution;
  std::size_t entries = 0;
  std::size_t filters = 0;
  std::vector<Candidate*> selected;
  for (Candidate* candidate : ranked) {
    if (filters + 1 > config_.budget_filters) break;
    if (entries + candidate->size > config_.budget_entries) continue;
    entries += candidate->size;
    ++filters;
    selected.push_back(candidate);
  }

  for (Candidate* candidate : selected) {
    revolution.install.push_back(candidate->query);
    if (!candidate->stored) {
      revolution.fetched.push_back(candidate->query);
      revolution.fetched_entries += candidate->size;
    }
  }
  for (auto& [key, candidate] : candidates_) {
    const bool keep =
        std::find(selected.begin(), selected.end(), &candidate) != selected.end();
    if (candidate.stored && !keep) revolution.dropped.push_back(candidate.query);
    candidate.stored = keep;
    candidate.benefit *= config_.decay;  // aging instead of a hard reset
  }
  return revolution;
}

std::vector<Query> EvolutionSelector::stored() const {
  std::vector<Query> out;
  for (const auto& [key, candidate] : candidates_) {
    if (candidate.stored) out.push_back(candidate.query);
  }
  return out;
}

}  // namespace fbdr::select
