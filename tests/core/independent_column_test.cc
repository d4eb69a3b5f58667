#include "frapp/core/independent_column_scheme.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "frapp/core/privacy.h"
#include "frapp/data/census.h"
#include "frapp/linalg/condition.h"
#include "frapp/linalg/kronecker.h"

namespace frapp {
namespace core {
namespace {

data::CategoricalSchema TinySchema() {
  StatusOr<data::CategoricalSchema> s = data::CategoricalSchema::Create(
      {{"a", {"0", "1"}}, {"b", {"0", "1", "2"}}});
  return *std::move(s);
}

TEST(IndependentColumnTest, PerAttributeGammaSplitsBudget) {
  StatusOr<IndependentColumnScheme> s =
      IndependentColumnScheme::Create(TinySchema(), 19.0);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s->per_attribute_gamma(), std::sqrt(19.0), 1e-12);
}

TEST(IndependentColumnTest, AttributeMatricesAreStochasticWithGammaRatio) {
  StatusOr<IndependentColumnScheme> s =
      IndependentColumnScheme::Create(TinySchema(), 19.0);
  ASSERT_TRUE(s.ok());
  for (size_t j = 0; j < 2; ++j) {
    linalg::Matrix a = s->AttributeMatrix(j);
    EXPECT_TRUE(a.IsColumnStochastic(1e-12));
    EXPECT_NEAR(MatrixAmplification(a), s->per_attribute_gamma(), 1e-12);
  }
}

TEST(IndependentColumnTest, RecordLevelAmplificationIsGamma) {
  // The Kronecker product of the per-attribute matrices is the record-level
  // transition matrix; its amplification is the product of per-attribute
  // gammas = gamma.
  StatusOr<IndependentColumnScheme> s =
      IndependentColumnScheme::Create(TinySchema(), 19.0);
  ASSERT_TRUE(s.ok());
  linalg::Matrix record =
      linalg::KroneckerProduct({s->AttributeMatrix(0), s->AttributeMatrix(1)});
  EXPECT_TRUE(record.IsColumnStochastic(1e-9));
  EXPECT_NEAR(MatrixAmplification(record), 19.0, 1e-9);
}

TEST(IndependentColumnTest, ConditionNumberProductFormulaMatchesDense) {
  StatusOr<IndependentColumnScheme> s =
      IndependentColumnScheme::Create(TinySchema(), 19.0);
  ASSERT_TRUE(s.ok());
  linalg::Matrix record =
      linalg::KroneckerProduct({s->AttributeMatrix(0), s->AttributeMatrix(1)});
  StatusOr<double> dense = linalg::SymmetricConditionNumber(record);
  ASSERT_TRUE(dense.ok());
  EXPECT_NEAR(s->ConditionNumberForAttributes({0, 1}), *dense, 1e-8);
}

TEST(IndependentColumnTest, ConditionNumberWorseThanJointGammaDiagonal) {
  // The motivating comparison: splitting the gamma budget across columns is
  // much worse conditioned than the joint gamma-diagonal matrix for longer
  // itemsets (CENSUS-scale check).
  StatusOr<data::CategoricalSchema> census = data::CategoricalSchema::Create(
      {{"a", {"0", "1", "2", "3"}},
       {"b", {"0", "1", "2", "3", "4"}},
       {"c", {"0", "1", "2", "3", "4"}},
       {"d", {"0", "1", "2", "3", "4"}},
       {"e", {"0", "1"}},
       {"f", {"0", "1"}}});
  ASSERT_TRUE(census.ok());
  StatusOr<IndependentColumnScheme> s =
      IndependentColumnScheme::Create(*census, 19.0);
  ASSERT_TRUE(s.ok());
  const double joint = (19.0 + 2000.0 - 1.0) / 18.0;  // ~112
  EXPECT_GT(s->ConditionNumberForAttributes({0, 1, 2, 3}), joint);
  EXPECT_GT(s->ConditionNumberForAttributes({0, 1, 2, 3, 4, 5}), 10.0 * joint);
}

TEST(IndependentColumnTest, PerturbMarginalMatchesMatrix) {
  data::CategoricalSchema schema = TinySchema();
  StatusOr<IndependentColumnScheme> s =
      IndependentColumnScheme::Create(schema, 19.0);
  ASSERT_TRUE(s.ok());
  StatusOr<data::CategoricalTable> t = data::CategoricalTable::Create(schema);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100000; ++i) ASSERT_TRUE(t->AppendRow({1, 2}).ok());
  random::Pcg64 rng(37);
  StatusOr<data::CategoricalTable> out = s->Perturb(*t, rng);
  ASSERT_TRUE(out.ok());

  // Column 1 (cardinality 3): P(keep) = gamma_j x_j.
  const double gj = s->per_attribute_gamma();
  const double xj = 1.0 / (gj + 2.0);
  linalg::Vector m = out->Marginal(1);
  EXPECT_NEAR(m[2], gj * xj, 0.01);
  EXPECT_NEAR(m[0], xj, 0.01);
  EXPECT_NEAR(m[1], xj, 0.01);
}

TEST(IndependentColumnEstimatorTest, ExactOnNoiselessSubsetHistogram) {
  // Estimator solves the Kronecker system; on unperturbed data whose
  // histogram is exactly A (x) A times x, it must recover x.
  data::CategoricalSchema schema = TinySchema();
  StatusOr<IndependentColumnScheme> s =
      IndependentColumnScheme::Create(schema, 19.0);
  ASSERT_TRUE(s.ok());

  StatusOr<data::CategoricalTable> t = data::CategoricalTable::Create(schema);
  ASSERT_TRUE(t.ok());
  random::Pcg64 data_rng(38);
  const size_t n = 200000;
  size_t count_12 = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t a = data_rng.NextBernoulli(0.6) ? 1 : 0;
    const uint8_t b = static_cast<uint8_t>(data_rng.NextBounded(3));
    count_12 += (a == 1 && b == 2) ? 1 : 0;
    ASSERT_TRUE(t->AppendRow({a, b}).ok());
  }
  random::Pcg64 rng(39);
  StatusOr<data::CategoricalTable> perturbed = s->Perturb(*t, rng);
  ASSERT_TRUE(perturbed.ok());

  IndependentColumnSupportEstimator estimator(
      *s, std::make_shared<mining::LocalSupportCountSource>(
              mining::ShardedVerticalIndex::Build(*perturbed, 1)));
  StatusOr<double> est =
      estimator.EstimateSupport(*mining::Itemset::Create({{0, 1}, {1, 2}}));
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(*est, static_cast<double>(count_12) / n, 0.03);
}

TEST(IndependentColumnTest, Validation) {
  EXPECT_FALSE(IndependentColumnScheme::Create(TinySchema(), 1.0).ok());
}

TEST(IndependentColumnTest, ShardSeededConcatenatesToMonolithic) {
  StatusOr<data::CategoricalTable> table = data::census::MakeDataset(20000, 19);
  ASSERT_TRUE(table.ok());
  StatusOr<IndependentColumnScheme> s =
      IndependentColumnScheme::Create(table->schema(), 19.0);
  ASSERT_TRUE(s.ok());

  const data::CategoricalTable whole =
      *s->PerturbSeeded(*table, 31, /*num_threads=*/2);
  for (size_t num_shards : {3ul, 7ul}) {
    SCOPED_TRACE(testing::Message() << "shards=" << num_shards);
    size_t row = 0;
    for (const data::RowRange& range :
         data::ShardedTable::Plan(table->num_rows(), num_shards)) {
      const data::CategoricalTable shard = *s->PerturbShardSeeded(
          data::ShardView{&*table, range, range.begin}, 31);
      ASSERT_EQ(shard.num_rows(), range.size());
      for (size_t i = 0; i < shard.num_rows(); ++i, ++row) {
        for (size_t j = 0; j < table->num_attributes(); ++j) {
          ASSERT_EQ(shard.Value(i, j), whole.Value(row, j))
              << "row " << row << " attr " << j;
        }
      }
    }
    EXPECT_EQ(row, table->num_rows());
  }

  // Misaligned global positions are rejected.
  EXPECT_FALSE(
      s->PerturbShardSeeded(
           data::ShardView{&*table, data::RowRange{0, 100}, /*global_begin=*/100},
           31)
          .ok());
}

}  // namespace
}  // namespace core
}  // namespace frapp
