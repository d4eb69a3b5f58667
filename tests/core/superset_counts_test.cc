// SupersetCounter, the one count step of MASK and C&P:
//
//  1. FOLDS: superset counts of a candidate's one-hot bits, read as the
//     supports of its sub-itemsets from VerticalIndex planes, give exact
//     pattern counts (Mobius fold) and hit histograms (popcount fold) equal
//     to a scalar row scan.
//  2. PARTITIONS: the counts are integer sums over any row partition, so
//     every shard and thread count answers identically.
//  3. MEMO: a mine asks its count source for every itemset at most once,
//     and pass k for exactly that pass's candidates (for C&P, those of
//     length <= K), one intersection each.

#include "frapp/core/superset_counts.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "frapp/core/mechanism.h"
#include "frapp/data/census.h"
#include "frapp/data/sharded_table.h"
#include "frapp/mining/count_source.h"
#include "frapp/mining/sharded_vertical_index.h"
#include "frapp/random/rng.h"
#include "one_hot_planes.h"

namespace frapp {
namespace core {
namespace {

data::BooleanTable RandomBooleanTable(size_t num_bits, size_t n,
                                      uint64_t seed) {
  data::BooleanTable table = *data::BooleanTable::CreateEmpty(num_bits);
  random::Pcg64 rng(seed);
  for (size_t i = 0; i < n; ++i) table.AppendRow(rng.Next());
  return table;
}

std::vector<int64_t> ScalarPatternCounts(const data::BooleanTable& table,
                                         const std::vector<size_t>& positions) {
  std::vector<int64_t> counts(size_t{1} << positions.size(), 0);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    size_t idx = 0;
    for (size_t b = 0; b < positions.size(); ++b) {
      idx |= static_cast<size_t>((table.RowBits(i) >> positions[b]) & 1u) << b;
    }
    ++counts[idx];
  }
  return counts;
}

/// The itemset of bit positions `positions` over BitSchema (ascending).
mining::Itemset BitItemset(std::vector<size_t> positions) {
  std::sort(positions.begin(), positions.end());
  std::vector<mining::Item> items;
  for (size_t p : positions) items.push_back({static_cast<uint16_t>(p), 0});
  return *mining::Itemset::Create(std::move(items));
}

/// `table`'s planes split on `ranges`, one shard per range.
std::shared_ptr<mining::LocalSupportCountSource> BitSource(
    const data::BooleanTable& table, const std::vector<data::RowRange>& ranges,
    size_t num_threads = 1) {
  std::vector<size_t> offsets(table.num_bits());
  for (size_t b = 0; b < offsets.size(); ++b) offsets[b] = b;
  std::vector<mining::VerticalIndex> shards;
  for (const data::RowRange& range : ranges) {
    shards.push_back(OneHotPlanes(table, range, offsets));
  }
  return std::make_shared<mining::LocalSupportCountSource>(
      mining::ShardedVerticalIndex::FromShards(std::move(shards)),
      num_threads);
}

std::shared_ptr<mining::LocalSupportCountSource> BitSource(
    const data::BooleanTable& table) {
  return BitSource(table, {{0, table.num_rows()}});
}

/// Exact pattern counts of `itemset` through a fresh counter over `source`.
std::vector<int64_t> PatternCounts(
    const data::CategoricalSchema& schema,
    std::shared_ptr<mining::SupportCountSource> source,
    const mining::Itemset& itemset) {
  SupersetCounter counter(schema, std::move(source));
  StatusOr<std::vector<std::vector<int64_t>>> counts = counter.Count({itemset});
  EXPECT_TRUE(counts.ok()) << counts.status().ToString();
  if (!counts.ok()) return {};
  std::vector<int64_t> patterns = (*counts)[0];
  SupersetCounter::MobiusExactCounts(patterns);
  return patterns;
}

TEST(SupersetCounterTest, PatternCountsMatchScalarOnRandomTables) {
  random::Pcg64 rng(11);
  const data::CategoricalSchema schema = BitSchema(23);
  for (size_t n : {0u, 1u, 64u, 65u, 500u}) {
    const data::BooleanTable table = RandomBooleanTable(23, n, 100 + n);
    for (int trial = 0; trial < 10; ++trial) {
      const size_t k = 1 + rng.NextBounded(5);
      std::vector<size_t> positions;
      for (size_t b = 0; b < k; ++b) {
        size_t pos;
        do {
          pos = rng.NextBounded(23);
        } while (std::find(positions.begin(), positions.end(), pos) !=
                 positions.end());
        positions.push_back(pos);
      }
      std::sort(positions.begin(), positions.end());
      EXPECT_EQ(PatternCounts(schema, BitSource(table), BitItemset(positions)),
                ScalarPatternCounts(table, positions))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(SupersetCounterTest, HitHistogramMatchesScalar) {
  const data::BooleanTable table = RandomBooleanTable(20, 333, 12);
  const std::vector<size_t> positions = {2, 7, 13};
  uint64_t mask = 0;
  for (size_t p : positions) mask |= 1ull << p;
  std::vector<int64_t> expected(positions.size() + 1, 0);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    ++expected[static_cast<size_t>(
        __builtin_popcountll(table.RowBits(i) & mask))];
  }
  const std::vector<int64_t> patterns =
      PatternCounts(BitSchema(20), BitSource(table), BitItemset(positions));
  EXPECT_EQ(SupersetCounter::HistogramFromPatternCounts(patterns,
                                                        positions.size()),
            expected);
}

// The boolean plane index is VerticalIndex over one-hot bits: one shard
// (BooleanVerticalIndexTest) or FromShards over row ranges
// (ShardedBooleanVerticalIndexTest), counted through SupersetCounter.

TEST(BooleanVerticalIndexTest, PatternCountsSumToRowCount) {
  const data::BooleanTable table = RandomBooleanTable(10, 77, 13);
  const std::vector<int64_t> counts =
      PatternCounts(BitSchema(10), BitSource(table), BitItemset({0, 4, 9}));
  int64_t total = 0;
  for (int64_t c : counts) {
    EXPECT_GE(c, 0);
    total += c;
  }
  EXPECT_EQ(total, 77);
}

TEST(ShardedBooleanVerticalIndexTest, PatternCountsMatchMonolithicOverGrid) {
  // Any row partition at any thread count answers every query exactly like
  // one shard, and one shard like a scalar row scan.
  const data::BooleanTable table = RandomBooleanTable(23, 20011, 5);
  const data::CategoricalSchema schema = BitSchema(23);
  const std::vector<std::vector<size_t>> queries = {
      {0}, {3, 7}, {1, 4, 9}, {0, 5, 11, 17}, {2, 6, 10, 15, 22}};
  for (const std::vector<size_t>& positions : queries) {
    const std::vector<int64_t> monolithic =
        PatternCounts(schema, BitSource(table), BitItemset(positions));
    EXPECT_EQ(monolithic, ScalarPatternCounts(table, positions));
    for (size_t shards : {2u, 3u, 7u}) {
      for (size_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(testing::Message() << "k=" << positions.size()
                                        << " shards=" << shards
                                        << " threads=" << threads);
        const auto source = BitSource(
            table, data::ShardedTable::Plan(table.num_rows(), shards, 1),
            threads);
        EXPECT_EQ(source->num_rows(), table.num_rows());
        EXPECT_EQ(source->index().num_shards(), shards);
        const std::vector<int64_t> sharded =
            PatternCounts(schema, source, BitItemset(positions));
        EXPECT_EQ(sharded, monolithic);
        EXPECT_EQ(
            SupersetCounter::HistogramFromPatternCounts(sharded,
                                                        positions.size()),
            SupersetCounter::HistogramFromPatternCounts(monolithic,
                                                        positions.size()));
      }
    }
  }
}

TEST(ShardedBooleanVerticalIndexTest, PatternCountsSumToRowCount) {
  const data::BooleanTable table = RandomBooleanTable(12, 4097, 11);
  const std::vector<int64_t> counts = PatternCounts(
      BitSchema(12), BitSource(table, data::ShardedTable::Plan(4097, 3, 1)),
      BitItemset({1, 5, 8, 11}));
  int64_t total = 0;
  for (int64_t c : counts) {
    EXPECT_GE(c, 0);
    total += c;
  }
  EXPECT_EQ(total, static_cast<int64_t>(table.num_rows()));
}

TEST(ShardedBooleanVerticalIndexTest, LongPatternsBeyondIndexedCutoff) {
  // Lengths past five stay exact on shards: the estimators have no
  // row-scan fallback.
  const data::BooleanTable table = RandomBooleanTable(10, 1000, 3);
  const data::CategoricalSchema schema = BitSchema(10);
  for (const std::vector<size_t>& positions :
       std::vector<std::vector<size_t>>{{0, 1, 2, 4, 5, 7},
                                        {0, 1, 2, 4, 5, 7, 9},
                                        {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}) {
    EXPECT_EQ(PatternCounts(schema,
                            BitSource(table, data::ShardedTable::Plan(1000, 4, 1),
                                      2),
                            BitItemset(positions)),
              ScalarPatternCounts(table, positions))
        << "k=" << positions.size();
  }
}

TEST(ShardedBooleanVerticalIndexTest, FromShardsConcatenatesRowCounts) {
  const data::BooleanTable table = RandomBooleanTable(8, 300, 9);
  const auto source = BitSource(table, {{0, 100}, {100, 170}, {170, 300}});
  EXPECT_EQ(source->num_rows(), 300u);
  EXPECT_EQ(source->index().num_shards(), 3u);
  const data::CategoricalSchema schema = BitSchema(8);
  EXPECT_EQ(PatternCounts(schema, source, BitItemset({2, 3, 6})),
            PatternCounts(schema, BitSource(table), BitItemset({2, 3, 6})));
}

TEST(SupersetCounterTest, SupersetCountsAreSubItemsetSupports) {
  // Entry S is the support of the sub-itemset S, entry 0 every row; one
  // Mobius fold turns the vector into the exact pattern counts.
  const data::BooleanTable table = RandomBooleanTable(12, 5000, 11);
  const auto source = BitSource(table, data::ShardedTable::Plan(5000, 3, 1), 2);
  const mining::Itemset itemset = BitItemset({1, 4, 8, 11});
  SupersetCounter counter(BitSchema(12), source);
  std::vector<int64_t> superset = (*counter.Count({itemset}))[0];
  ASSERT_EQ(superset.size(), 16u);
  EXPECT_EQ(superset[0], 5000);
  for (size_t s = 1; s < superset.size(); ++s) {
    std::vector<mining::Item> items;
    for (size_t b = 0; b < 4; ++b) {
      if ((s >> b) & 1) items.push_back(itemset.item(b));
    }
    EXPECT_EQ(superset[s],
              static_cast<int64_t>(source->index().CountSupports(
                  {*mining::Itemset::Create(items)})[0]))
        << "subset " << s;
  }
  SupersetCounter::MobiusExactCounts(superset);
  EXPECT_EQ(superset, ScalarPatternCounts(table, {1, 4, 8, 11}));
}

TEST(SupersetCounterTest, SupersetCountsSumAcrossPartitions) {
  // Integer additivity over any row partition: the distributed and store
  // merges' correctness argument, checked directly.
  const data::BooleanTable table = RandomBooleanTable(10, 4096, 13);
  const data::CategoricalSchema schema = BitSchema(10);
  const mining::Itemset itemset = BitItemset({0, 2, 5, 7, 9});
  SupersetCounter whole(schema, BitSource(table));
  SupersetCounter left(schema, BitSource(table, {{0, 1500}}));
  SupersetCounter right(schema, BitSource(table, {{1500, 4096}}));
  const std::vector<int64_t> total = (*whole.Count({itemset}))[0];
  const std::vector<int64_t> a = (*left.Count({itemset}))[0];
  const std::vector<int64_t> b = (*right.Count({itemset}))[0];
  for (size_t s = 0; s < total.size(); ++s) {
    EXPECT_EQ(total[s], a[s] + b[s]) << "subset " << s;
  }
}

TEST(SupersetCounterTest, EstimatorsCheckInputsAndAnswerZeroOnEmptySources) {
  const data::CategoricalSchema schema = data::census::Schema();
  auto mask = *MaskMechanism::Create(schema, 19.0);
  auto cut_paste = *CutPasteMechanism::Create(schema, 3, 0.494);
  const auto empty = std::make_shared<mining::LocalSupportCountSource>(
      mining::ShardedVerticalIndex::FromShards({}));
  const mining::Itemset outside =
      mining::Itemset::FromSortedUnchecked({{0, 200}});
  const mining::Itemset too_long = mining::Itemset::FromSortedUnchecked(
      std::vector<mining::Item>(SupersetCounter::kMaxLength + 1, {0, 0}));
  for (Mechanism* mechanism : {static_cast<Mechanism*>(mask.get()),
                               static_cast<Mechanism*>(cut_paste.get())}) {
    SCOPED_TRACE(mechanism->name());
    auto estimator = *mechanism->MakeCountSourceEstimator(empty);
    EXPECT_EQ(*estimator->EstimateSupport(*mining::Itemset::Create({{0, 1}})),
              0.0);
    EXPECT_EQ(*estimator->EstimateSupport(outside), 0.0);
    EXPECT_EQ(estimator->EstimateSupport(mining::Itemset()).status().code(),
              StatusCode::kInvalidArgument);
  }
  // MASK caps every length at 2^20 patterns; C&P answers lengths past K
  // with 0 before counting anything.
  auto mask_estimator = *mask->MakeCountSourceEstimator(empty);
  EXPECT_EQ(mask_estimator->EstimateSupport(too_long).status().code(),
            StatusCode::kInvalidArgument);
  auto cp_estimator = *cut_paste->MakeCountSourceEstimator(empty);
  EXPECT_EQ(*cp_estimator->EstimateSupport(too_long), 0.0);

  // An item outside the schema is OutOfRange once there are rows to count.
  const data::CategoricalTable table = *data::census::MakeDataset(100, 3);
  for (Mechanism* mechanism : {static_cast<Mechanism*>(mask.get()),
                               static_cast<Mechanism*>(cut_paste.get())}) {
    SCOPED_TRACE(mechanism->name());
    ShardIndexes indexes;
    ASSERT_TRUE(PerturbIntoIndex(*mechanism, data::ShardView::Whole(table), 7,
                                 1, indexes)
                    .ok());
    auto estimator = *mechanism->MakeCountSourceEstimator(
        std::make_shared<mining::LocalSupportCountSource>(
            mining::ShardedVerticalIndex::FromShards(
                std::move(indexes.shards))));
    EXPECT_EQ(estimator->EstimateSupport(outside).status().code(),
              StatusCode::kOutOfRange);
    EXPECT_TRUE(estimator->EstimateSupport(*mining::Itemset::Create({{0, 1}}))
                    .ok());
  }
}

/// Count source decorator that logs every request.
class RecordingCountSource : public mining::SupportCountSource {
 public:
  explicit RecordingCountSource(
      std::shared_ptr<mining::SupportCountSource> inner)
      : inner_(std::move(inner)) {}

  size_t num_rows() const override { return inner_->num_rows(); }

  StatusOr<std::vector<uint64_t>> CountSupports(
      const std::vector<mining::Itemset>& itemsets) override {
    requests.push_back(itemsets);
    return inner_->CountSupports(itemsets);
  }

  std::vector<std::vector<mining::Itemset>> requests;

 private:
  std::shared_ptr<mining::SupportCountSource> inner_;
};

/// Estimator decorator that logs each pass's candidates and which source
/// requests the pass made.
class RecordingEstimator : public mining::SupportEstimator {
 public:
  RecordingEstimator(std::unique_ptr<mining::SupportEstimator> inner,
                     const RecordingCountSource& source)
      : inner_(std::move(inner)), source_(source) {}

  StatusOr<double> EstimateSupport(const mining::Itemset& itemset) override {
    return inner_->EstimateSupport(itemset);
  }

  StatusOr<std::vector<double>> EstimateSupports(
      const std::vector<mining::Itemset>& itemsets) override {
    const size_t before = source_.requests.size();
    StatusOr<std::vector<double>> supports = inner_->EstimateSupports(itemsets);
    passes.push_back({itemsets, before, source_.requests.size()});
    return supports;
  }

  struct Pass {
    std::vector<mining::Itemset> candidates;
    size_t first_request;
    size_t end_request;
  };
  std::vector<Pass> passes;

 private:
  std::unique_ptr<mining::SupportEstimator> inner_;
  const RecordingCountSource& source_;
};

TEST(SupersetCounterTest, MineAsksEachItemsetOnceAndOnlyThePassCandidates) {
  const data::CategoricalTable table = *data::census::MakeDataset(16384, 5);
  auto mask = *MaskMechanism::Create(table.schema(), 19.0);
  auto cut_paste = *CutPasteMechanism::Create(table.schema(), 3, 0.494);
  mining::AprioriOptions options;
  options.min_support = 0.02;
  for (Mechanism* mechanism : {static_cast<Mechanism*>(mask.get()),
                               static_cast<Mechanism*>(cut_paste.get())}) {
    SCOPED_TRACE(mechanism->name());
    const size_t max_counted = mechanism == cut_paste.get()
                                   ? cut_paste->scheme().cutoff_k()
                                   : SupersetCounter::kMaxLength;
    ShardIndexes indexes;
    ASSERT_TRUE(PerturbIntoIndex(*mechanism, data::ShardView::Whole(table), 7,
                                 2, indexes)
                    .ok());
    const auto source = std::make_shared<RecordingCountSource>(
        std::make_shared<mining::LocalSupportCountSource>(
            mining::ShardedVerticalIndex::FromShards(
                std::move(indexes.shards))));
    RecordingEstimator estimator(*mechanism->MakeCountSourceEstimator(source),
                                 *source);
    const StatusOr<mining::AprioriResult> mined =
        mining::MineFrequentItemsets(table.schema(), estimator, options);
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    ASSERT_GE(estimator.passes.size(), 3u);

    std::set<mining::Itemset> seen;
    for (size_t k = 0; k < estimator.passes.size(); ++k) {
      const RecordingEstimator::Pass& pass = estimator.passes[k];
      std::set<mining::Itemset> counted;
      for (const mining::Itemset& candidate : pass.candidates) {
        if (candidate.size() <= max_counted) counted.insert(candidate);
      }
      // At most one source call per pass, none when nothing is counted.
      ASSERT_EQ(pass.end_request - pass.first_request,
                counted.empty() ? 0u : 1u)
          << "pass " << k + 1;
      if (counted.empty()) continue;
      const std::vector<mining::Itemset>& asked =
          source->requests[pass.first_request];
      for (const mining::Itemset& itemset : asked) {
        EXPECT_TRUE(seen.insert(itemset).second)
            << "pass " << k + 1 << " asked again for "
            << itemset.ToString(table.schema());
      }
      EXPECT_EQ(std::set<mining::Itemset>(asked.begin(), asked.end()), counted)
          << "pass " << k + 1;
      EXPECT_EQ(asked.size(), counted.size()) << "pass " << k + 1;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace frapp
