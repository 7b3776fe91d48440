#ifndef ABR_UTIL_ZIPF_H_
#define ABR_UTIL_ZIPF_H_

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace abr {

/// Samples ranks from a (generalized) Zipf distribution over {0, ..., n-1}:
/// P(rank = k) proportional to 1 / (k + 1)^theta.
///
/// Disk block reference streams are highly skewed (paper Section 2, Figures
/// 5 and 7); Zipf-like rank/frequency curves are the standard synthetic
/// model for that skew. Sampling uses Vose's alias method: two table reads
/// and one comparison per draw — O(1) regardless of n, where the previous
/// inverse-CDF sampler (kept as a test oracle under tests/oracles) paid an
/// O(log n) binary search per request. The workload generator draws one rank per generated
/// request, so this sits on the end-to-end hot path.
class ZipfSampler {
 public:
  /// Builds a sampler over n ranks with exponent theta >= 0.
  /// theta == 0 degenerates to the uniform distribution.
  ZipfSampler(std::int64_t n, double theta);

  /// Draws one rank in [0, n).
  std::int64_t Sample(Rng& rng) const {
    const std::size_t slot =
        static_cast<std::size_t>(rng.NextBounded(static_cast<std::uint64_t>(n_)));
    return rng.NextDouble() < accept_[slot]
               ? static_cast<std::int64_t>(slot)
               : static_cast<std::int64_t>(alias_[slot]);
  }

  /// Number of ranks.
  std::int64_t n() const { return n_; }

  /// Skew exponent.
  double theta() const { return theta_; }

  /// Probability mass of the given rank.
  double Pmf(std::int64_t rank) const;

  /// Cumulative probability of ranks [0, rank].
  double Cdf(std::int64_t rank) const;

 private:
  std::int64_t n_;
  double theta_;
  std::vector<double> cdf_;            // cdf_[k] = P(rank <= k); Pmf/Cdf
  std::vector<double> accept_;         // alias acceptance threshold per slot
  std::vector<std::uint32_t> alias_;   // alias target per slot
};

}  // namespace abr

#endif  // ABR_UTIL_ZIPF_H_
