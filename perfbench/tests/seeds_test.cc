#include <set>

#include <gtest/gtest.h>

#include "workloads_common.h"

namespace perfbench {
namespace {

TEST(PerturbSeedsTest, SameSeedSameSeeds) {
  EXPECT_EQ(PerturbSeeds(1), PerturbSeeds(1));
  EXPECT_NE(PerturbSeeds(1), PerturbSeeds(2));
}

TEST(PerturbSeedsTest, DistinctAndApartFromTheAccuracySeeds) {
  const std::vector<uint64_t> seeds = PerturbSeeds(3);
  ASSERT_EQ(seeds.size(), kPerturbSeeds);
  std::set<uint64_t> all(seeds.begin(), seeds.end());
  EXPECT_EQ(all.size(), kPerturbSeeds);
  for (size_t i = 0; i < kAccuracySeeds; ++i) {
    EXPECT_EQ(all.count(DeriveSeed(3, 100 + i)), 0u) << i;
  }
}

}  // namespace
}  // namespace perfbench
