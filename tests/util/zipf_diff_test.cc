// Differential test of the alias-method ZipfSampler against the retained
// inverse-CDF reference implementation (zipf_ref.h): the two must agree
// exactly on the distribution itself (Pmf/Cdf) and statistically on the
// sampled stream — a chi-squared goodness-of-fit of alias-method draws
// against the reference's exact probabilities.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/zipf.h"
#include "oracles/zipf_ref.h"

namespace abr {
namespace {

struct DiffCase {
  std::int64_t n;
  double theta;
  std::uint64_t seed;
};

class ZipfDiffTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(ZipfDiffTest, PmfAndCdfIdenticalToReference) {
  const DiffCase c = GetParam();
  ZipfSampler alias(c.n, c.theta);
  ZipfSamplerRef ref(c.n, c.theta);
  ASSERT_EQ(alias.n(), ref.n());
  for (std::int64_t k = 0; k < c.n; ++k) {
    // The pmf/cdf math is untouched by the alias rewrite: exact equality.
    ASSERT_DOUBLE_EQ(alias.Pmf(k), ref.Pmf(k)) << "rank " << k;
    ASSERT_DOUBLE_EQ(alias.Cdf(k), ref.Cdf(k)) << "rank " << k;
  }
}

TEST_P(ZipfDiffTest, ChiSquaredAgainstReferenceDistribution) {
  const DiffCase c = GetParam();
  ZipfSampler alias(c.n, c.theta);
  ZipfSamplerRef ref(c.n, c.theta);

  // Pool the tail so every cell has a healthy expected count: cells are
  // individual head ranks while expected >= 25, then one pooled tail.
  const std::int64_t draws = 200000;
  std::vector<std::int64_t> head;
  double head_mass = 0;
  for (std::int64_t k = 0; k < c.n; ++k) {
    if (ref.Pmf(k) * static_cast<double>(draws) < 25.0) break;
    head.push_back(k);
    head_mass += ref.Pmf(k);
  }
  ASSERT_GE(head.size(), 3u) << "case too small for a chi-squared test";

  std::vector<std::int64_t> counts(head.size() + 1, 0);
  Rng rng(c.seed);
  for (std::int64_t i = 0; i < draws; ++i) {
    const std::int64_t s = alias.Sample(rng);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, c.n);
    counts[s < static_cast<std::int64_t>(head.size())
               ? static_cast<std::size_t>(s)
               : head.size()] += 1;
  }

  double chi2 = 0;
  for (std::size_t i = 0; i <= head.size(); ++i) {
    const double expected =
        static_cast<double>(draws) *
        (i < head.size() ? ref.Pmf(static_cast<std::int64_t>(i))
                         : 1.0 - head_mass);
    if (expected <= 0) {
      ASSERT_EQ(counts[i], 0);
      continue;
    }
    const double d = static_cast<double>(counts[i]) - expected;
    chi2 += d * d / expected;
  }

  // dof = cells - 1. The 99.9th percentile of chi-squared is roughly
  // dof + 4 * sqrt(2 * dof) + 11 for the dof range used here; a fixed
  // seeded stream makes this deterministic, the margin guards against a
  // genuinely wrong alias table, which inflates chi2 by orders of
  // magnitude.
  const double dof = static_cast<double>(head.size());
  const double limit = dof + 4.0 * std::sqrt(2.0 * dof) + 11.0;
  EXPECT_LT(chi2, limit) << "dof=" << dof;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ZipfDiffTest,
    ::testing::Values(DiffCase{100, 0.8, 101}, DiffCase{100, 1.2, 102},
                      DiffCase{1000, 1.0, 103}, DiffCase{1000, 1.8, 104},
                      DiffCase{5000, 0.6, 105}, DiffCase{64, 0.0, 106}));

}  // namespace
}  // namespace abr
