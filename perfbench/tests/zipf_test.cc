#include "zipf.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

std::vector<size_t> Draw(uint64_t order_seed, uint64_t draw_seed, size_t n) {
  ZipfGenerator generator(kServeKeys, 1.0, order_seed, draw_seed);
  std::vector<size_t> keys;
  for (size_t i = 0; i < n; ++i) keys.push_back(generator.Next());
  return keys;
}

TEST(ZipfGeneratorTest, SameSeedSameSequence) {
  EXPECT_EQ(Draw(7, 0, 5000), Draw(7, 0, 5000));
  EXPECT_NE(Draw(7, 0, 5000), Draw(8, 0, 5000));
  EXPECT_NE(Draw(7, 0, 5000), Draw(7, 1, 5000));
}

TEST(ZipfGeneratorTest, DrawsStayInRangeAndFavourTheTopRank) {
  std::vector<size_t> counts(kServeKeys);
  for (size_t key : Draw(3, 0, 100000)) {
    ASSERT_LT(key, kServeKeys);
    ++counts[key];
  }
  // Rank 0 draws about 1 / H(360) ~ 15% of queries under exponent 1.
  const size_t top = *std::max_element(counts.begin(), counts.end());
  EXPECT_GT(top, 12000u);
  EXPECT_LT(top, 19000u);
}

TEST(ZipfGeneratorTest, DrawSeedsShareThePopularityOrder) {
  std::vector<size_t> a(kServeKeys), b(kServeKeys);
  for (size_t key : Draw(3, 0, 50000)) ++a[key];
  for (size_t key : Draw(3, 1, 50000)) ++b[key];
  EXPECT_EQ(std::max_element(a.begin(), a.end()) - a.begin(),
            std::max_element(b.begin(), b.end()) - b.begin());
}

TEST(ServeKeySpaceTest, ExceedsTheResultCache) {
  std::set<size_t> results;
  std::set<std::vector<size_t>> queries;
  for (size_t key = 0; key < kServeKeys; ++key) {
    const ServeQuery query = DecodeServeKey(key);
    ASSERT_LT(query.mechanism, kServeMechanisms);
    ASSERT_LT(query.supmin, kServeSupmins);
    ASSERT_LT(query.kind, kServeKinds);
    results.insert(query.result());
    queries.insert({query.mechanism, query.supmin, query.kind});
  }
  EXPECT_EQ(queries.size(), kServeKeys);
  EXPECT_EQ(results.size(), kServeResults);
  EXPECT_GT(results.size(), kServeCacheEntries);
}

TEST(ServeKeySpaceTest, SupminsAreDistinctAndAboveTwoPercent) {
  std::set<double> supmins;
  for (size_t i = 0; i < kServeSupmins; ++i) {
    EXPECT_GE(ServeSupmin(i), 0.02);
    supmins.insert(ServeSupmin(i));
  }
  EXPECT_EQ(supmins.size(), kServeSupmins);
}

}  // namespace
}  // namespace perfbench
