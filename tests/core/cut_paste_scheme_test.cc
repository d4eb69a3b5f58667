#include "frapp/core/cut_paste_scheme.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "frapp/data/census.h"

namespace frapp {
namespace core {
namespace {

// Paper Section 7 C&P parameters for gamma = 19.
constexpr size_t kPaperK = 3;
constexpr double kPaperRho = 0.494;

CutPasteScheme CensusScheme() {
  StatusOr<CutPasteScheme> s = CutPasteScheme::Create(kPaperK, kPaperRho, 6, 23);
  return *std::move(s);
}

TEST(CutPasteSchemeTest, Validation) {
  EXPECT_FALSE(CutPasteScheme::Create(3, 0.0, 6, 23).ok());
  EXPECT_FALSE(CutPasteScheme::Create(3, 1.0, 6, 23).ok());
  EXPECT_FALSE(CutPasteScheme::Create(3, 0.5, 0, 23).ok());
  EXPECT_FALSE(CutPasteScheme::Create(3, 0.5, 24, 23).ok());
  EXPECT_FALSE(CutPasteScheme::Create(3, 0.5, 6, 65).ok());
}

TEST(CutPasteSchemeTest, CutSizeDistributionSumsToOne) {
  CutPasteScheme s = CensusScheme();
  double total = 0.0;
  for (size_t z = 0; z <= 6; ++z) total += s.CutSizeProbability(z);
  EXPECT_NEAR(total, 1.0, 1e-12);
  // K = 3 < m = 6: uniform over 0..3.
  for (size_t z = 0; z <= 3; ++z) {
    EXPECT_NEAR(s.CutSizeProbability(z), 0.25, 1e-12);
  }
  EXPECT_DOUBLE_EQ(s.CutSizeProbability(4), 0.0);
}

TEST(CutPasteSchemeTest, CutSizeClampsWhenCutoffExceedsRecordSize) {
  // K = 5 > m = 3: draws 3, 4, 5 all clamp to z = 3.
  StatusOr<CutPasteScheme> s = CutPasteScheme::Create(5, 0.4, 3, 10);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s->CutSizeProbability(0), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(s->CutSizeProbability(3), 3.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(s->CutSizeProbability(4), 0.0);
  double total = 0.0;
  for (size_t z = 0; z <= 3; ++z) total += s->CutSizeProbability(z);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(CutPasteSchemeTest, PartialSupportMatrixColumnsSumToOne) {
  CutPasteScheme s = CensusScheme();
  for (size_t k = 1; k <= 6; ++k) {
    StatusOr<linalg::Matrix> q = s.PartialSupportMatrix(k);
    ASSERT_TRUE(q.ok());
    EXPECT_TRUE(q->IsColumnStochastic(1e-9)) << "k=" << k;
  }
}

TEST(CutPasteSchemeTest, PartialSupportMatrixMatchesSimulation) {
  // Empirical transition frequencies of the operator must match Q.
  CutPasteScheme s = CensusScheme();
  const size_t k = 3;
  StatusOr<linalg::Matrix> q = s.PartialSupportMatrix(k);
  ASSERT_TRUE(q.ok());

  // Build one record with q0 itemset items among its 6 ones; itemset bits
  // are 0, 1, 2.
  const uint64_t itemset_mask = 0b111;
  for (size_t q0 = 0; q0 <= k; ++q0) {
    // Record: q0 bits from {0,1,2} plus (6 - q0) bits from {10, ...}.
    uint64_t record = 0;
    for (size_t b = 0; b < q0; ++b) record |= 1ull << b;
    for (size_t b = 0; b < 6 - q0; ++b) record |= 1ull << (10 + b);

    StatusOr<data::BooleanTable> t = data::BooleanTable::CreateEmpty(23);
    ASSERT_TRUE(t.ok());
    const size_t rows = 60000;
    for (size_t i = 0; i < rows; ++i) t->AppendRow(record);
    random::Pcg64 rng(29 + q0);
    StatusOr<data::BooleanTable> out = s.Perturb(*t, rng);
    ASSERT_TRUE(out.ok());

    std::vector<double> freq(k + 1, 0.0);
    for (size_t i = 0; i < rows; ++i) {
      freq[static_cast<size_t>(__builtin_popcountll(out->RowBits(i) & itemset_mask))] +=
          1.0 / rows;
    }
    for (size_t qp = 0; qp <= k; ++qp) {
      EXPECT_NEAR(freq[qp], (*q)(qp, q0), 0.01) << "q0=" << q0 << " q'=" << qp;
    }
  }
}

TEST(CutPasteSchemeTest, PerturbedRecordsStayInUniverse) {
  CutPasteScheme s = CensusScheme();
  StatusOr<data::BooleanTable> t = data::BooleanTable::CreateEmpty(23);
  ASSERT_TRUE(t.ok());
  random::Pcg64 data_rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t bits = 0;
    while (__builtin_popcountll(bits) < 6) {
      bits |= 1ull << data_rng.NextBounded(23);
    }
    t->AppendRow(bits);
  }
  random::Pcg64 rng(2);
  StatusOr<data::BooleanTable> out = s.Perturb(*t, rng);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 1000u);
  for (size_t i = 0; i < out->num_rows(); ++i) {
    EXPECT_EQ(out->RowBits(i) & ~t->ValidMask(), 0ull);
  }
}

TEST(CutPasteSchemeTest, PaperParametersSatisfyGamma19) {
  // The paper reports K = 3, rho = 0.494 as privacy-feasible for gamma = 19
  // on both datasets.
  CutPasteScheme census = CensusScheme();
  EXPECT_LE(census.RecordAmplification(), 19.0);

  StatusOr<CutPasteScheme> health = CutPasteScheme::Create(kPaperK, kPaperRho, 7, 27);
  ASSERT_TRUE(health.ok());
  EXPECT_LE(health->RecordAmplification(), 19.0);
}

TEST(CutPasteSchemeTest, AmplificationClosedFormForFullOverlapRange) {
  // When the overlap q spans 0..m (possible whenever m <= l_v <= M_b - m),
  // the worst row ratio is h(m)/h(0) = [sum_z P_z rho^{-z}] / P_0, which for
  // the uniform cut-size distribution is sum_{z<=K} rho^{-z}.
  CutPasteScheme s = CensusScheme();
  double expected = 0.0;
  for (size_t z = 0; z <= kPaperK; ++z) {
    expected += std::pow(1.0 / kPaperRho, static_cast<double>(z));
  }
  EXPECT_NEAR(s.RecordAmplification(), expected, 1e-9);
  EXPECT_NEAR(expected, 15.4, 0.1);  // comfortably within gamma = 19
}

TEST(CutPasteSchemeTest, CalibrateRhoFindsFeasibleBoundary) {
  StatusOr<double> rho = CutPasteScheme::CalibrateRho(3, 6, 23, 19.0);
  ASSERT_TRUE(rho.ok());
  // Boundary condition: sum_{z=0}^{3} (1/rho)^z = 19 -> rho ~ 0.4514.
  EXPECT_NEAR(*rho, 0.4514, 0.001);
  StatusOr<CutPasteScheme> at = CutPasteScheme::Create(3, *rho, 6, 23);
  ASSERT_TRUE(at.ok());
  EXPECT_LE(at->RecordAmplification(), 19.0 * (1.0 + 1e-6));
  // Slightly smaller rho must be infeasible (it is the boundary).
  StatusOr<CutPasteScheme> below = CutPasteScheme::Create(3, *rho - 1e-3, 6, 23);
  ASSERT_TRUE(below.ok());
  EXPECT_GT(below->RecordAmplification(), 19.0);
  // The paper's 0.494 sits inside the feasible region found here.
  EXPECT_LT(*rho, kPaperRho);
}

TEST(CutPasteSchemeTest, ConditionNumberExplodesWithLength) {
  // Figure 4's C&P pathology: condition number grows rapidly with k and
  // dwarfs the gamma-diagonal's constant ~112 (CENSUS).
  CutPasteScheme s = CensusScheme();
  StatusOr<double> c2 = s.ConditionNumberForLength(2);
  StatusOr<double> c4 = s.ConditionNumberForLength(4);
  StatusOr<double> c6 = s.ConditionNumberForLength(6);
  ASSERT_TRUE(c2.ok() && c4.ok() && c6.ok());
  EXPECT_GT(*c4, *c2 * 10.0);
  EXPECT_GT(*c6, *c4 * 10.0);
  EXPECT_GT(*c6, 1e5);
}

TEST(CutPasteSchemeTest, EstimateExactOnNoiselessPartialSupports) {
  // Hand the estimator a perturbed table whose partial-support counts equal
  // Q times a known original distribution; it must recover x[k] exactly.
  StatusOr<CutPasteScheme> s = CutPasteScheme::Create(2, 0.5, 3, 8);
  ASSERT_TRUE(s.ok());
  const size_t k = 2;
  StatusOr<linalg::Matrix> q = s->PartialSupportMatrix(k);
  ASSERT_TRUE(q.ok());

  // Original counts per overlap level: 500 with q=0, 300 with q=1, 200 q=2.
  linalg::Vector x{500.0, 300.0, 200.0};
  linalg::Vector y = q->MatVec(x);
  // y is not integral; scale to a large integer table approximately — use a
  // synthetic "perturbed" table with counts round(y * 100).
  StatusOr<data::BooleanTable> t = data::BooleanTable::CreateEmpty(8);
  ASSERT_TRUE(t.ok());
  const uint64_t mask = 0b11;
  const uint64_t rows_with[3] = {0b100, 0b101, 0b011};  // 0, 1, 2 mask bits
  double total = 0.0;
  for (size_t level = 0; level <= k; ++level) {
    const size_t copies = static_cast<size_t>(std::llround(y[level] * 100.0));
    total += static_cast<double>(copies);
    for (size_t i = 0; i < copies; ++i) t->AppendRow(rows_with[level]);
  }
  StatusOr<double> est = s->EstimateItemsetSupport(*t, mask, k);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(*est, 200.0 * 100.0 / total, 1e-3);
}

TEST(CutPasteSchemeTest, EstimateValidation) {
  CutPasteScheme s = CensusScheme();
  StatusOr<data::BooleanTable> t = data::BooleanTable::CreateEmpty(23);
  ASSERT_TRUE(t.ok());
  t->AppendRow(0b111);
  EXPECT_FALSE(s.EstimateItemsetSupport(*t, 0b111, 2).ok());  // popcount != k
  EXPECT_FALSE(s.PartialSupportMatrix(0).ok());
  EXPECT_FALSE(s.PartialSupportMatrix(7).ok());  // longer than record items
}

TEST(CutPasteSchemeTest, ShardSeededConcatenatesToMonolithic) {
  const CutPasteScheme s = CensusScheme();
  StatusOr<data::CategoricalTable> table = data::census::MakeDataset(20000, 13);
  ASSERT_TRUE(table.ok());
  StatusOr<data::BooleanTable> onehot = data::BooleanTable::FromCategorical(*table);
  ASSERT_TRUE(onehot.ok());

  const data::BooleanTable whole = *s.PerturbSeeded(*onehot, 23, /*num_threads=*/2);
  size_t row = 0;
  for (const data::RowRange& range :
       data::ShardedTable::Plan(onehot->num_rows(), 3)) {
    StatusOr<data::BooleanTable> shard_input =
        data::BooleanTable::FromCategoricalRange(*table, range);
    ASSERT_TRUE(shard_input.ok());
    const data::BooleanTable shard =
        *s.PerturbShardSeeded(*shard_input, range.begin, 23);
    for (size_t i = 0; i < shard.num_rows(); ++i, ++row) {
      ASSERT_EQ(shard.RowBits(i), whole.RowBits(row)) << "row " << row;
    }
  }
  EXPECT_EQ(row, onehot->num_rows());
}

TEST(CutPasteSupportEstimatorTest, SingletonEstimateOnCensusData) {
  data::CategoricalSchema schema = data::census::Schema();
  StatusOr<data::CategoricalTable> table = data::census::MakeDataset(30000, 6);
  ASSERT_TRUE(table.ok());
  StatusOr<data::BooleanTable> onehot = data::BooleanTable::FromCategorical(*table);
  ASSERT_TRUE(onehot.ok());

  CutPasteScheme s = CensusScheme();
  random::Pcg64 rng(31);
  StatusOr<data::BooleanTable> perturbed = s.Perturb(*onehot, rng);
  ASSERT_TRUE(perturbed.ok());

  CutPasteSupportEstimator estimator(
      s, data::BooleanLayout(schema),
      std::make_shared<data::LocalPatternCountSource>(
          data::ShardedBooleanVerticalIndex::Build(*perturbed, 1)));
  // native-country = United-States, true support ~0.894.
  StatusOr<double> est =
      estimator.EstimateSupport(*mining::Itemset::Create({{5, 0}}));
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(*est, 0.894, 0.1);
}

}  // namespace
}  // namespace core
}  // namespace frapp
