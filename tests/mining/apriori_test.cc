#include "frapp/mining/apriori.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "frapp/data/census.h"
#include "frapp/mining/support_counter.h"
#include "frapp/random/rng.h"

namespace frapp {
namespace mining {
namespace {

data::CategoricalSchema TinySchema() {
  StatusOr<data::CategoricalSchema> s = data::CategoricalSchema::Create(
      {{"a", {"0", "1"}}, {"b", {"0", "1"}}, {"c", {"0", "1", "2"}}});
  return *std::move(s);
}

data::CategoricalTable RandomTable(size_t n, uint64_t seed) {
  data::CategoricalSchema schema = TinySchema();
  StatusOr<data::CategoricalTable> t = data::CategoricalTable::Create(schema);
  random::Pcg64 rng(seed);
  std::vector<uint8_t> row(schema.num_attributes());
  for (size_t i = 0; i < n; ++i) {
    // Skewed distribution so some itemsets are frequent and others rare.
    row[0] = rng.NextBernoulli(0.8) ? 0 : 1;
    row[1] = rng.NextBernoulli(0.6) ? 0 : 1;
    row[2] = static_cast<uint8_t>(rng.NextBernoulli(0.7) ? 0 : 1 + rng.NextBounded(2));
    EXPECT_TRUE(t->AppendRow(row).ok());
  }
  return *std::move(t);
}

// Brute-force miner: enumerate every itemset and count directly.
std::vector<FrequentItemset> BruteForce(const data::CategoricalTable& table,
                                        double min_support) {
  const data::CategoricalSchema& schema = table.schema();
  std::vector<FrequentItemset> out;
  // Enumerate per-attribute choices: category id or "absent".
  std::vector<size_t> choice(schema.num_attributes(), 0);
  const auto total = [&]() {
    size_t t = 1;
    for (size_t j = 0; j < schema.num_attributes(); ++j) {
      t *= schema.Cardinality(j) + 1;
    }
    return t;
  }();
  for (size_t code = 0; code < total; ++code) {
    size_t rest = code;
    std::vector<Item> items;
    for (size_t j = 0; j < schema.num_attributes(); ++j) {
      const size_t options = schema.Cardinality(j) + 1;
      const size_t pick = rest % options;
      rest /= options;
      if (pick > 0) {
        items.push_back(Item{static_cast<uint16_t>(j),
                             static_cast<uint16_t>(pick - 1)});
      }
    }
    if (items.empty()) continue;
    Itemset itemset = *Itemset::Create(items);
    const double support = SupportFraction(table, itemset);
    if (support >= min_support) out.push_back({itemset, support});
  }
  return out;
}

TEST(AprioriTest, MatchesBruteForceOnRandomData) {
  data::CategoricalTable table = RandomTable(2000, 99);
  AprioriOptions options;
  options.min_support = 0.05;
  StatusOr<AprioriResult> result = MineExact(table, options);
  ASSERT_TRUE(result.ok());

  std::vector<FrequentItemset> expected = BruteForce(table, options.min_support);
  EXPECT_EQ(result->TotalFrequent(), expected.size());
  // Every brute-force itemset must be found with identical support.
  std::unordered_map<Itemset, double, Itemset::Hash> found;
  for (const auto& level : result->by_length) {
    for (const auto& f : level) found[f.itemset] = f.support;
  }
  for (const auto& e : expected) {
    auto it = found.find(e.itemset);
    ASSERT_NE(it, found.end()) << "missing itemset";
    EXPECT_DOUBLE_EQ(it->second, e.support);
  }
}

TEST(AprioriTest, ThresholdIsInclusive) {
  // 1 of 4 rows -> support 0.25 >= 0.25 must count as frequent.
  data::CategoricalSchema schema = TinySchema();
  StatusOr<data::CategoricalTable> t = data::CategoricalTable::Create(schema);
  ASSERT_TRUE(t->AppendRow({0, 0, 0}).ok());
  ASSERT_TRUE(t->AppendRow({0, 0, 1}).ok());
  ASSERT_TRUE(t->AppendRow({0, 1, 2}).ok());
  ASSERT_TRUE(t->AppendRow({1, 1, 2}).ok());
  AprioriOptions options;
  options.min_support = 0.25;
  StatusOr<AprioriResult> result = MineExact(*t, options);
  ASSERT_TRUE(result.ok());
  bool found = false;
  for (const auto& f : result->OfLength(1)) {
    found |= f.itemset == *Itemset::Create({{0, 1}});
  }
  EXPECT_TRUE(found);
}

TEST(AprioriTest, MaxLengthCapsPasses) {
  data::CategoricalTable table = RandomTable(500, 7);
  AprioriOptions options;
  options.min_support = 0.01;
  options.max_length = 2;
  StatusOr<AprioriResult> result = MineExact(table, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->MaxLength(), 2u);
  EXPECT_FALSE(result->OfLength(2).empty());
}

TEST(AprioriTest, RejectsBadThreshold) {
  data::CategoricalTable table = RandomTable(10, 3);
  ExactSupportEstimator estimator(table);
  AprioriOptions options;
  options.min_support = 0.0;
  EXPECT_FALSE(MineFrequentItemsets(table.schema(), estimator, options).ok());
  options.min_support = 1.5;
  EXPECT_FALSE(MineFrequentItemsets(table.schema(), estimator, options).ok());
}

TEST(AprioriTest, ResultAccessors) {
  data::CategoricalTable table = RandomTable(1000, 11);
  AprioriOptions options;
  options.min_support = 0.05;
  StatusOr<AprioriResult> result = MineExact(table, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->OfLength(0).empty());
  EXPECT_TRUE(result->OfLength(99).empty());
  size_t sum = 0;
  for (size_t k = 1; k <= result->MaxLength(); ++k) sum += result->OfLength(k).size();
  EXPECT_EQ(sum, result->TotalFrequent());
  EXPECT_FALSE(result->candidates_per_pass.empty());
  // Pass 1 candidates = total categories.
  EXPECT_EQ(result->candidates_per_pass[0], 7u);
}

// An estimator that returns a fixed value for everything.
class ConstantEstimator : public SupportEstimator {
 public:
  explicit ConstantEstimator(double value) : value_(value) {}
  StatusOr<double> EstimateSupport(const Itemset&) override { return value_; }

 private:
  double value_;
};

TEST(AprioriTest, NegativeEstimatesMeanNothingIsFrequent) {
  ConstantEstimator estimator(-0.5);
  AprioriOptions options;
  options.min_support = 0.02;
  StatusOr<AprioriResult> result =
      MineFrequentItemsets(TinySchema(), estimator, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalFrequent(), 0u);
  EXPECT_EQ(result->MaxLength(), 0u);
}

TEST(AprioriTest, AllFrequentEstimatorMinesEveryAttributeCombination) {
  ConstantEstimator estimator(0.9);
  AprioriOptions options;
  options.min_support = 0.02;
  StatusOr<AprioriResult> result =
      MineFrequentItemsets(TinySchema(), estimator, options);
  ASSERT_TRUE(result.ok());
  // Lengths 1..3 with all category combinations: 7, (2*2 + 2*3 + 2*3) = 16,
  // 2*2*3 = 12.
  EXPECT_EQ(result->OfLength(1).size(), 7u);
  EXPECT_EQ(result->OfLength(2).size(), 16u);
  EXPECT_EQ(result->OfLength(3).size(), 12u);
}

TEST(AprioriTest, CandidateGenerationPrunesInfrequentSubsets) {
  // On real data the candidate count never exceeds the join of frequent sets.
  StatusOr<data::CategoricalTable> census = data::census::MakeDataset(5000, 5);
  ASSERT_TRUE(census.ok());
  AprioriOptions options;
  options.min_support = 0.02;
  StatusOr<AprioriResult> result = MineExact(*census, options);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->candidates_per_pass.size(), 2u);
  // Every frequent k-itemset must have all its (k-1)-subsets frequent.
  for (size_t k = 2; k <= result->MaxLength(); ++k) {
    std::unordered_set<Itemset, Itemset::Hash> prev;
    for (const auto& f : result->OfLength(k - 1)) prev.insert(f.itemset);
    for (const auto& f : result->OfLength(k)) {
      const auto& items = f.itemset.items();
      for (size_t skip = 0; skip < items.size(); ++skip) {
        std::vector<Item> subset;
        for (size_t i = 0; i < items.size(); ++i) {
          if (i != skip) subset.push_back(items[i]);
        }
        EXPECT_TRUE(prev.count(*Itemset::Create(subset)) > 0);
      }
    }
  }
}

// Brute-force join + prune: every pair (a before b in list order) of
// frequent k-itemsets sharing their first k-1 items over distinct last
// attributes, kept when every k-subset of the union is frequent. No early
// exit, no skipped probes, no binary search.
std::vector<Itemset> JoinPruneOracle(
    const std::vector<FrequentItemset>& frequent) {
  std::set<Itemset> lookup;
  for (const FrequentItemset& f : frequent) lookup.insert(f.itemset);
  std::vector<Itemset> out;
  for (size_t a = 0; a < frequent.size(); ++a) {
    for (size_t b = a + 1; b < frequent.size(); ++b) {
      const std::vector<Item>& ia = frequent[a].itemset.items();
      const std::vector<Item>& ib = frequent[b].itemset.items();
      if (!std::equal(ia.begin(), ia.end() - 1, ib.begin())) continue;
      if (ia.back().attribute == ib.back().attribute) continue;
      std::vector<Item> joined = ia;
      joined.push_back(ib.back());
      const Itemset candidate = *Itemset::Create(joined);
      bool all_frequent = true;
      for (size_t skip = 0; skip < candidate.size(); ++skip) {
        std::vector<Item> subset;
        for (size_t i = 0; i < candidate.size(); ++i) {
          if (i != skip) subset.push_back(candidate.item(i));
        }
        all_frequent = all_frequent && lookup.count(*Itemset::Create(subset)) > 0;
      }
      if (all_frequent) out.push_back(candidate);
    }
  }
  return out;
}

TEST(AprioriTest, CandidateGenerationMatchesJoinPruneOracleOnRandomLattices) {
  random::Pcg64 rng(99);
  for (int trial = 0; trial < 80; ++trial) {
    // 3-6 attributes of 2-4 categories; a random share of the k-itemsets,
    // k = 1..4, stands in for the frequent level.
    const size_t m = 3 + rng.NextBounded(4);
    std::vector<size_t> cards(m);
    for (size_t& card : cards) card = 2 + rng.NextBounded(3);
    const size_t k = 1 + rng.NextBounded(std::min<size_t>(4, m));
    const double keep = 0.4 + 0.55 * rng.NextDouble();
    size_t codes = 1;
    for (size_t card : cards) codes *= card + 1;
    std::vector<FrequentItemset> frequent;
    for (size_t code = 0; code < codes; ++code) {
      size_t rest = code;
      std::vector<Item> items;
      for (size_t j = 0; j < m; ++j) {
        const size_t pick = rest % (cards[j] + 1);
        rest /= cards[j] + 1;
        if (pick > 0) {
          items.push_back(Item{static_cast<uint16_t>(j),
                               static_cast<uint16_t>(pick - 1)});
        }
      }
      if (items.size() == k && rng.NextDouble() < keep) {
        frequent.push_back({*Itemset::Create(items), 0.5});
      }
    }
    std::sort(frequent.begin(), frequent.end(),
              [](const FrequentItemset& a, const FrequentItemset& b) {
                return a.itemset < b.itemset;
              });
    SCOPED_TRACE("trial " + std::to_string(trial) + " k " + std::to_string(k));
    EXPECT_EQ(GenerateCandidates(frequent), JoinPruneOracle(frequent));
  }
}

}  // namespace
}  // namespace mining
}  // namespace frapp
