#include "workload/zipf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fbdr::workload {

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument("ZipfSampler over empty domain");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& value : cdf_) value /= total;
}

std::size_t ZipfSampler::sample(std::mt19937& rng) const {
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const double u = uniform(rng);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<std::size_t>(std::distance(cdf_.begin(), it));
}

double ZipfSampler::pmf(std::size_t k) const {
  if (k >= cdf_.size()) return 0.0;
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

}  // namespace fbdr::workload
