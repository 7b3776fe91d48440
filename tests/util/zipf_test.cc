#include "util/zipf.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace abr {
namespace {

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler z(100, 1.0);
  double sum = 0;
  for (std::int64_t k = 0; k < z.n(); ++k) sum += z.Pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, PmfMonotoneNonIncreasing) {
  ZipfSampler z(50, 1.2);
  for (std::int64_t k = 1; k < z.n(); ++k) {
    EXPECT_GE(z.Pmf(k - 1), z.Pmf(k));
  }
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  ZipfSampler z(10, 0.0);
  for (std::int64_t k = 0; k < z.n(); ++k) {
    EXPECT_NEAR(z.Pmf(k), 0.1, 1e-9);
  }
}

TEST(ZipfTest, CdfIsOneAtEnd) {
  ZipfSampler z(17, 0.9);
  EXPECT_DOUBLE_EQ(z.Cdf(z.n() - 1), 1.0);
}

TEST(ZipfTest, SingleItem) {
  ZipfSampler z(1, 2.0);
  Rng rng(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(z.Sample(rng), 0);
  EXPECT_DOUBLE_EQ(z.Pmf(0), 1.0);
}

TEST(ZipfTest, KnownRatioTheta1) {
  // With theta = 1, P(0)/P(1) = 2.
  ZipfSampler z(1000, 1.0);
  EXPECT_NEAR(z.Pmf(0) / z.Pmf(1), 2.0, 1e-9);
}

TEST(ZipfTest, SamplesRespectRankOrdering) {
  ZipfSampler z(20, 1.1);
  Rng rng(41);
  std::vector<int> counts(20, 0);
  for (int i = 0; i < 50000; ++i) ++counts[z.Sample(rng)];
  // Rank 0 strictly more popular than rank 5, which beats rank 15.
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[5], counts[15]);
}

TEST(ZipfTest, SampleFrequenciesMatchPmf) {
  ZipfSampler z(8, 0.8);
  Rng rng(43);
  std::vector<int> counts(8, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(rng)];
  for (std::int64_t k = 0; k < 8; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), z.Pmf(k), 0.01);
  }
}

class ZipfThetaTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfThetaTest, HeadMassGrowsWithTheta) {
  const double theta = GetParam();
  ZipfSampler z(1000, theta);
  // Top-10 mass must be a valid probability and grow with skew; sanity
  // bound: uniform gives exactly 0.01.
  const double top10 = z.Cdf(9);
  EXPECT_GE(top10, 0.01 - 1e-12);
  EXPECT_LE(top10, 1.0);
  if (theta > 0.0) {
    EXPECT_GT(top10, 0.01);
  }
}

TEST_P(ZipfThetaTest, SamplesInRange) {
  ZipfSampler z(123, GetParam());
  Rng rng(47);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t s = z.Sample(rng);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 123);
  }
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfThetaTest,
                         ::testing::Values(0.0, 0.5, 0.8, 1.0, 1.2, 1.5,
                                           2.0));

}  // namespace
}  // namespace abr
