#pragma once

#include <cstddef>
#include <random>
#include <vector>

namespace fbdr::workload {

/// Zipf-distributed sampler over ranks 0..n-1: P(rank k) proportional to
/// 1/(k+1)^s. Used to model the skewed access popularity of directory
/// entities ("the entries in a country are not accessed uniformly", §7.2).
/// Precomputes the CDF; sampling is O(log n).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  std::size_t sample(std::mt19937& rng) const;

  std::size_t size() const noexcept { return cdf_.size(); }

  /// Probability mass of rank k (diagnostics).
  double pmf(std::size_t k) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace fbdr::workload
