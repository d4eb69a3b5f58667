#include "frapp/random/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

namespace frapp {
namespace random {
namespace {

TEST(Pcg64Test, DeterministicForSameSeed) {
  Pcg64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Pcg64Test, DifferentSeedsDiffer) {
  Pcg64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Pcg64Test, DifferentStreamsDiffer) {
  Pcg64 a(1, 1), b(1, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Pcg64Test, NextDoubleInUnitInterval) {
  Pcg64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Pcg64Test, NextDoubleMeanAndVariance) {
  Pcg64 rng(8);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextDouble();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Pcg64Test, NextDoubleRangeRespectsBounds) {
  Pcg64 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Pcg64Test, NextBoundedIsUniformish) {
  Pcg64 rng(10);
  const uint64_t bound = 10;
  const int n = 100000;
  std::vector<int> counts(bound, 0);
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(bound)];
  // Chi-square against uniform: 9 dof, reject far above 27.9 (p=0.001).
  double chi2 = 0.0;
  const double expected = static_cast<double>(n) / bound;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 35.0);
}

TEST(Pcg64Test, NextBoundedCoversSmallRanges) {
  Pcg64 rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.NextBounded(3));
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(Pcg64Test, BernoulliRates) {
  Pcg64 rng(12);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
}

TEST(Pcg64Test, StridedViewEqualsEveryStrideThDraw) {
  const Pcg64 base(15, 29);
  std::vector<uint64_t> draws;
  Pcg64 serial = base;
  for (int i = 0; i < 4000; ++i) draws.push_back(serial.Next());
  for (uint64_t stride : {1, 2, 7, 23, 64}) {
    for (uint64_t offset : {0, 1, 5, 22, 100}) {
      SCOPED_TRACE("stride " + std::to_string(stride) + " offset " +
                   std::to_string(offset));
      StridedPcg64 lane = base.Strided(offset, stride);
      for (uint64_t d = offset; d < draws.size(); d += stride) {
        ASSERT_EQ(lane.Next(), draws[d]) << "draw " << d;
      }
    }
  }
  // Taking a view does not advance the generator.
  Pcg64 after = base;
  EXPECT_EQ(after.Next(), draws[0]);
}

TEST(Pcg64Test, BernoulliThresholdEqualsNextBernoulli) {
  // MASK's flip probability at gamma = 19 over 6 attributes (CENSUS).
  const double mask_flip = 1.0 / (1.0 + std::pow(19.0, 1.0 / 12.0));
  const double probabilities[] = {0x1.0p-53,
                                  1.5 * 0x1.0p-53,
                                  1e-9,
                                  1e-3,
                                  std::nextafter(0.5, 0.0),
                                  0.5,
                                  std::nextafter(0.5, 1.0),
                                  mask_flip,
                                  std::nextafter(1.0, 0.0)};
  for (const double p : probabilities) {
    SCOPED_TRACE(p);
    const uint64_t threshold = Pcg64::BernoulliThreshold(p);
    Pcg64 a(16), b(16);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(a.NextBernoulli(p), (b.Next() >> 11) < threshold) << i;
    }
  }
  // On the decision boundary itself: p equal to a draw's NextDouble value,
  // and the doubles either side of it.
  Pcg64 rng(17);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t u = rng.Next() >> 11;
    const double value = static_cast<double>(u) * 0x1.0p-53;
    for (const double p : {value, std::nextafter(value, 0.0),
                           std::nextafter(value, 1.0)}) {
      if (!(p > 0.0) || p >= 1.0) continue;
      ASSERT_EQ(value < p, u < Pcg64::BernoulliThreshold(p)) << p;
    }
  }
}

TEST(Pcg64Test, SplitProducesIndependentStream) {
  Pcg64 parent(13);
  Pcg64 child = parent.Split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.Next() == child.Next()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Pcg64Test, SatisfiesUniformRandomBitGenerator) {
  static_assert(Pcg64::min() == 0);
  static_assert(Pcg64::max() == ~0ull);
  Pcg64 rng(14);
  EXPECT_NE(rng(), rng());
}

}  // namespace
}  // namespace random
}  // namespace frapp
