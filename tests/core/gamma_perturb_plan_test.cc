// Distributional and determinism tests for the divergence-column
// perturbation kernel (GammaPerturbPlan + the alias-based perturbers)
// against the sequential per-column Bernoulli oracle
// PerturbRecordDiagonalForm and the closed-form gamma-diagonal matrix.

#include <gtest/gtest.h>

#include <vector>

#include "frapp/core/gamma_diagonal.h"
#include "frapp/core/mechanism.h"
#include "frapp/core/randomized_gamma.h"
#include "frapp/data/domain_index.h"

namespace frapp {
namespace core {
namespace {

// Domain 2 x 3 x 2 = 12.
data::CategoricalSchema TinySchema() {
  return *data::CategoricalSchema::Create(
      {{"a", {"0", "1"}}, {"b", {"0", "1", "2"}}, {"c", {"0", "1"}}});
}

// Encodes a record of TinySchema into [0, 12) (attribute-major).
size_t Encode(const std::vector<uint8_t>& r) {
  return (static_cast<size_t>(r[0]) * 3 + r[1]) * 2 + r[2];
}

data::CategoricalTable RepeatedRecordTable(const data::CategoricalSchema& schema,
                                           const std::vector<uint8_t>& record,
                                           size_t n) {
  data::CategoricalTable table = *data::CategoricalTable::Create(schema);
  table.Reserve(n);
  for (size_t i = 0; i < n; ++i) EXPECT_TRUE(table.AppendRow(record).ok());
  return table;
}

std::vector<size_t> OutputHistogram(const data::CategoricalTable& table) {
  std::vector<size_t> counts(12, 0);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    ++counts[Encode(table.Row(i))];
  }
  return counts;
}

TEST(GammaPerturbPlanTest, DivergenceWeightsMatchSequentialChain) {
  const double gamma = 7.0;
  const GammaDiagonalMatrix matrix = *GammaDiagonalMatrix::Create(gamma, 12);
  const GammaPerturbPlan plan = *GammaPerturbPlan::Create({2, 3, 2}, 12);
  const std::vector<double> weights =
      plan.DivergenceWeights(matrix.DiagonalValue(), matrix.OffDiagonalValue());
  ASSERT_EQ(weights.size(), 4u);

  // Reference: walk the per-column chain explicitly. q_j = d + (n/n_j - 1) o.
  const double d = matrix.DiagonalValue();
  const double o = matrix.OffDiagonalValue();
  const double q0 = d + (6 - 1) * o;
  const double q1 = d + (2 - 1) * o;
  const double q2 = d;
  EXPECT_NEAR(weights[0], 1.0 - q0, 1e-12);
  EXPECT_NEAR(weights[1], q0 - q1, 1e-12);
  EXPECT_NEAR(weights[2], q1 - q2, 1e-12);
  EXPECT_NEAR(weights[3], d, 1e-12);

  double sum = 0.0;
  for (double w : weights) {
    EXPECT_GE(w, 0.0);
    sum += w;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(GammaPerturbPlanTest, CardinalityOneColumnNeverDiverges) {
  const GammaPerturbPlan plan = *GammaPerturbPlan::Create({1, 4, 1, 3}, 12);
  const GammaDiagonalMatrix matrix = *GammaDiagonalMatrix::Create(5.0, 12);
  const std::vector<double> weights =
      plan.DivergenceWeights(matrix.DiagonalValue(), matrix.OffDiagonalValue());
  EXPECT_DOUBLE_EQ(weights[0], 0.0);
  EXPECT_DOUBLE_EQ(weights[2], 0.0);

  random::Pcg64 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const size_t j = plan.SampleDivergenceColumn(matrix.DiagonalValue(),
                                                 matrix.OffDiagonalValue(), rng);
    EXPECT_NE(j, 0u);
    EXPECT_NE(j, 2u);
  }
}

// Pearson chi-squared statistic of observed counts against expected
// probabilities (expected scaled to the observed total).
double ChiSquaredGof(const std::vector<size_t>& observed,
                     const std::vector<double>& probabilities) {
  double n = 0.0;
  for (size_t c : observed) n += static_cast<double>(c);
  double stat = 0.0;
  for (size_t v = 0; v < observed.size(); ++v) {
    const double expected = n * probabilities[v];
    const double diff = static_cast<double>(observed[v]) - expected;
    stat += diff * diff / expected;
  }
  return stat;
}

// Two-sample chi-squared homogeneity statistic for equal-intent samples.
double ChiSquaredTwoSample(const std::vector<size_t>& a,
                           const std::vector<size_t>& b) {
  double stat = 0.0;
  for (size_t v = 0; v < a.size(); ++v) {
    const double total = static_cast<double>(a[v] + b[v]);
    if (total == 0.0) continue;
    const double diff = static_cast<double>(a[v]) - static_cast<double>(b[v]);
    stat += diff * diff / total;
  }
  return stat;
}

// 0.999 chi-squared quantile at 11 dof is 31.26; use a little headroom so a
// correct implementation fails ~1 run in 1e4 at worst.
constexpr double kChi11Critical = 35.0;

TEST(AliasPerturberDistributionTest, MatchesClosedFormGammaDiagonalColumn) {
  const data::CategoricalSchema schema = TinySchema();
  const double gamma = 7.0;
  const GammaDiagonalPerturber perturber =
      *GammaDiagonalPerturber::Create(schema, gamma);
  const std::vector<uint8_t> record = {1, 2, 0};
  const size_t n = 60000;
  const data::CategoricalTable table = RepeatedRecordTable(schema, record, n);

  const data::CategoricalTable perturbed =
      *perturber.PerturbShardSeeded(data::ShardView::Whole(table), /*seed=*/17);
  const std::vector<size_t> observed = OutputHistogram(perturbed);

  // Column `record` of the gamma-diagonal matrix: d on the record, o
  // everywhere else.
  std::vector<double> probabilities(12, perturber.matrix().OffDiagonalValue());
  probabilities[Encode(record)] = perturber.matrix().DiagonalValue();
  EXPECT_LT(ChiSquaredGof(observed, probabilities), kChi11Critical);
}

TEST(AliasPerturberDistributionTest, MatchesSequentialBernoulliOracle) {
  const data::CategoricalSchema schema = TinySchema();
  const double gamma = 4.0;
  const GammaDiagonalPerturber perturber =
      *GammaDiagonalPerturber::Create(schema, gamma);
  const std::vector<uint8_t> record = {0, 1, 1};
  const size_t n = 60000;
  const data::CategoricalTable table = RepeatedRecordTable(schema, record, n);

  const std::vector<size_t> alias_counts = OutputHistogram(
      *perturber.PerturbShardSeeded(data::ShardView::Whole(table), /*seed=*/23));

  // Same number of draws through the sequential per-column oracle.
  const std::vector<size_t> cardinalities = {2, 3, 2};
  const double d = perturber.matrix().DiagonalValue();
  const double o = perturber.matrix().OffDiagonalValue();
  random::Pcg64 rng_oracle(29);
  std::vector<size_t> oracle_counts(12, 0);
  std::vector<uint8_t> out;
  for (size_t i = 0; i < n; ++i) {
    PerturbRecordDiagonalForm(record, cardinalities, 12, d, o, rng_oracle, &out);
    ++oracle_counts[Encode(out)];
  }
  EXPECT_LT(ChiSquaredTwoSample(alias_counts, oracle_counts), kChi11Critical);
}

TEST(AliasPerturberDistributionTest, RandomizedPerturberMatchesExpectedMatrix) {
  // Marginally over the per-client realizations, RAN-GD's output column is
  // the EXPECTED matrix's column = the deterministic gamma-diagonal column.
  const data::CategoricalSchema schema = TinySchema();
  const double gamma = 7.0;
  const double x = 1.0 / (gamma + 12 - 1);
  const RandomizedGammaPerturber perturber =
      *RandomizedGammaPerturber::Create(schema, gamma, gamma * x / 2.0);
  const std::vector<uint8_t> record = {1, 0, 1};
  const size_t n = 60000;
  const data::CategoricalTable table = RepeatedRecordTable(schema, record, n);

  const std::vector<size_t> observed = OutputHistogram(
      *perturber.PerturbShardSeeded(data::ShardView::Whole(table), /*seed=*/31));
  std::vector<double> probabilities(
      12, perturber.expected_matrix().OffDiagonalValue());
  probabilities[Encode(record)] = perturber.expected_matrix().DiagonalValue();
  EXPECT_LT(ChiSquaredGof(observed, probabilities), kChi11Critical);
}

TEST(SeededPerturbDeterminismTest, IdenticalAcrossThreadCounts) {
  const data::CategoricalSchema schema = TinySchema();
  const GammaDiagonalPerturber perturber =
      *GammaDiagonalPerturber::Create(schema, 19.0);
  // > 2 chunks of 8192 so several per-chunk streams are actually exercised.
  random::Pcg64 data_rng(37);
  data::CategoricalTable table = *data::CategoricalTable::Create(schema);
  std::vector<uint8_t> row(3);
  for (size_t i = 0; i < 20000; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      row[j] = static_cast<uint8_t>(data_rng.NextBounded(schema.Cardinality(j)));
    }
    ASSERT_TRUE(table.AppendRow(row).ok());
  }

  const data::ShardView whole = data::ShardView::Whole(table);
  const data::CategoricalTable reference =
      *perturber.PerturbShardSeeded(whole, 42, 1);
  for (size_t threads : {2u, 3u, 8u, 0u}) {
    const data::CategoricalTable parallel =
        *perturber.PerturbShardSeeded(whole, 42, threads);
    ASSERT_EQ(parallel.num_rows(), reference.num_rows());
    for (size_t j = 0; j < 3; ++j) {
      ASSERT_EQ(parallel.Column(j), reference.Column(j)) << "threads=" << threads;
    }
  }
  // A different seed must give a different table.
  const data::CategoricalTable other = *perturber.PerturbShardSeeded(whole, 43, 2);
  bool any_difference = false;
  for (size_t j = 0; j < 3 && !any_difference; ++j) {
    any_difference = other.Column(j) != reference.Column(j);
  }
  EXPECT_TRUE(any_difference);
}

TEST(SeededPerturbDeterminismTest, RandomizedPerturberIdenticalAcrossThreadCounts) {
  const data::CategoricalSchema schema = TinySchema();
  const double gamma = 19.0;
  const double x = 1.0 / (gamma + 12 - 1);
  const RandomizedGammaPerturber perturber =
      *RandomizedGammaPerturber::Create(schema, gamma, gamma * x / 2.0);
  random::Pcg64 data_rng(41);
  data::CategoricalTable table = *data::CategoricalTable::Create(schema);
  std::vector<uint8_t> row(3);
  for (size_t i = 0; i < 10000; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      row[j] = static_cast<uint8_t>(data_rng.NextBounded(schema.Cardinality(j)));
    }
    ASSERT_TRUE(table.AppendRow(row).ok());
  }
  const data::ShardView whole = data::ShardView::Whole(table);
  const data::CategoricalTable reference =
      *perturber.PerturbShardSeeded(whole, 7, 1);
  for (size_t threads : {2u, 4u}) {
    const data::CategoricalTable parallel =
        *perturber.PerturbShardSeeded(whole, 7, threads);
    for (size_t j = 0; j < 3; ++j) {
      ASSERT_EQ(parallel.Column(j), reference.Column(j)) << "threads=" << threads;
    }
  }
}

TEST(SeededPerturbDeterminismTest, SeededPathMatchesClosedFormDistribution) {
  const data::CategoricalSchema schema = TinySchema();
  const double gamma = 7.0;
  const GammaDiagonalPerturber perturber =
      *GammaDiagonalPerturber::Create(schema, gamma);
  const std::vector<uint8_t> record = {0, 2, 1};
  const data::CategoricalTable table = RepeatedRecordTable(schema, record, 60000);
  const std::vector<size_t> observed =
      OutputHistogram(*perturber.PerturbShardSeeded(
          data::ShardView::Whole(table), 1234, 3));
  std::vector<double> probabilities(12, perturber.matrix().OffDiagonalValue());
  probabilities[Encode(record)] = perturber.matrix().DiagonalValue();
  EXPECT_LT(ChiSquaredGof(observed, probabilities), kChi11Critical);
}

// `m` attributes of 255 categories each: a joint domain of 255^m.
data::CategoricalSchema WideSchema(size_t m) {
  std::vector<data::Attribute> attributes(m);
  for (size_t j = 0; j < m; ++j) {
    attributes[j].name = "a" + std::to_string(j);
    for (size_t c = 0; c < 255; ++c) {
      attributes[j].categories.push_back(std::to_string(c));
    }
  }
  return *data::CategoricalSchema::Create(std::move(attributes));
}

TEST(GammaPerturbPlanTest, RejectsJointDomainThatOverflows64Bits) {
  // 255^8 ~ 1.8e19 fits in 64 bits; 255^9 ~ 4.6e21 does not, and the
  // unchecked product wraps to 2570567486027860223.
  const data::CategoricalSchema fits = WideSchema(8);
  const data::CategoricalSchema overflows = WideSchema(9);
  EXPECT_EQ(overflows.DomainSize(), 2570567486027860223ULL);

  EXPECT_TRUE(
      GammaPerturbPlan::Create(fits.Cardinalities(), fits.DomainSize()).ok());
  EXPECT_TRUE(DetGdMechanism::Create(fits, 19.0).ok());
  EXPECT_TRUE(RanGdMechanism::Create(fits, 19.0, 0.0).ok());

  EXPECT_EQ(GammaPerturbPlan::Create(overflows.Cardinalities(),
                                     overflows.DomainSize())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DetGdMechanism::Create(overflows, 19.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RanGdMechanism::Create(overflows, 19.0, 0.0).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace core
}  // namespace frapp
