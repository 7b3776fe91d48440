#ifndef ABR_ORACLES_ZIPF_REF_H_
#define ABR_ORACLES_ZIPF_REF_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace abr {

/// The pre-alias-method Zipf sampler: a precomputed CDF with an
/// O(log n) binary search per draw. Kept verbatim as the distribution
/// oracle for the O(1) alias-table ZipfSampler (util/zipf.h) — the
/// differential test checks the fast sampler against this one's exact
/// per-rank probabilities on shared seeds.
class ZipfSamplerRef {
 public:
  ZipfSamplerRef(std::int64_t n, double theta)
      : n_(n), theta_(theta), cdf_(static_cast<std::size_t>(n)) {
    assert(n > 0);
    assert(theta >= 0.0);
    double sum = 0.0;
    for (std::int64_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), theta);
      cdf_[static_cast<std::size_t>(k)] = sum;
    }
    const double inv = 1.0 / sum;
    for (auto& c : cdf_) c *= inv;
    cdf_.back() = 1.0;  // guard against rounding
  }

  /// Draws one rank in [0, n): inverse-CDF via binary search.
  std::int64_t Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<std::int64_t>(it - cdf_.begin());
  }

  std::int64_t n() const { return n_; }
  double theta() const { return theta_; }

  double Pmf(std::int64_t rank) const {
    assert(rank >= 0 && rank < n_);
    const std::size_t k = static_cast<std::size_t>(rank);
    return rank == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
  }

  double Cdf(std::int64_t rank) const {
    assert(rank >= 0 && rank < n_);
    return cdf_[static_cast<std::size_t>(rank)];
  }

 private:
  std::int64_t n_;
  double theta_;
  std::vector<double> cdf_;  // cdf_[k] = P(rank <= k)
};

}  // namespace abr

#endif  // ABR_ORACLES_ZIPF_REF_H_
