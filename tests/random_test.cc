#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace arecel {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next()) ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(uint64_t{10});
    ASSERT_LT(v, 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-5}, int64_t{5});
    ASSERT_GE(v, -5);
    ASSERT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(uint64_t{7}));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(6);
  const int n = 50000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(7);
  const int n = 50000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, SkewedUnitZeroShapeIsUniform) {
  Rng rng(8);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.SkewedUnit(0.0);
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, SkewedUnitConcentratesNearZero) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.SkewedUnit(2.0);
  EXPECT_LT(sum / 20000.0, 0.25);  // mean well below uniform's 0.5.
}

TEST(RngTest, SkewedUnitStaysInUnitInterval) {
  Rng rng(10);
  for (double s : {0.0, 0.5, 1.0, 2.0}) {
    for (int i = 0; i < 1000; ++i) {
      const double v = rng.SkewedUnit(s);
      ASSERT_GE(v, 0.0);
      ASSERT_LT(v, 1.0);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(11);
  const std::vector<int> s = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<int> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 30u);
  for (int v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(12);
  const std::vector<int> s = rng.SampleWithoutReplacement(10, 10);
  std::set<int> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 10u);
}

TEST(RngTest, ZipfUniformWhenExponentZero) {
  Rng rng(13);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.Zipf(5, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(ZipfSamplerTest, MatchesZipfWeights) {
  Rng rng(14);
  ZipfSampler zipf(4, 1.0);
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  // Weights 1, 1/2, 1/3, 1/4 normalized by 25/12.
  const double h = 1.0 + 0.5 + 1.0 / 3 + 0.25;
  for (int k = 0; k < 4; ++k) {
    const double expected = (1.0 / (k + 1)) / h;
    EXPECT_NEAR(counts[k] / static_cast<double>(n), expected, 0.02);
  }
}

TEST(ZipfSamplerTest, InvertCdfMonotone) {
  ZipfSampler zipf(100, 1.2);
  uint64_t prev = 0;
  for (double u = 0.001; u < 1.0; u += 0.001) {
    const uint64_t r = zipf.InvertCdf(u);
    EXPECT_GE(r, prev);
    prev = r;
  }
}

// InvertCdf returns the first rank whose cumulative weight reaches u (the
// last rank when none before it does), at and beside every CDF entry.
TEST(ZipfSamplerTest, InvertCdfIsTheFirstRankReachingU) {
  Rng rng(17);
  for (const uint64_t n : {1, 2, 3, 5, 8, 92, 2000}) {
    for (const double s : {0.3, 1.5}) {
      // The sampler's CDF, built the same way.
      std::vector<double> cdf(n);
      double acc = 0.0;
      for (uint64_t k = 0; k < n; ++k) {
        acc += std::pow(static_cast<double>(k + 1), -s);
        cdf[k] = acc;
      }
      for (double& c : cdf) c /= acc;
      cdf[n - 1] = 1.0;
      std::vector<double> us = {0.0, 1.0, 1.5};
      for (const double c : cdf) {
        us.push_back(c);
        us.push_back(std::nextafter(c, 0.0));
        us.push_back(std::nextafter(c, 2.0));
      }
      for (int i = 0; i < 1000; ++i) us.push_back(rng.Uniform());
      const ZipfSampler zipf(n, s);
      for (const double u : us) {
        uint64_t expected = 0;
        while (expected + 1 < n && cdf[expected] < u) ++expected;
        ASSERT_EQ(zipf.InvertCdf(u), expected) << "n=" << n << " s=" << s
                                               << " u=" << u;
      }
    }
  }
}

TEST(RngTest, ShufflePermutation) {
  Rng rng(15);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.Shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(16);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

}  // namespace
}  // namespace arecel
