#include "frapp/core/error_analysis.h"

#include <gtest/gtest.h>

#include <cmath>

#include "frapp/data/domain_index.h"
#include "frapp/data/schema.h"
#include "frapp/data/table.h"
#include "frapp/mining/support_counter.h"
#include "frapp/random/rng.h"

namespace frapp {
namespace core {
namespace {

TEST(PoissonBinomialVarianceTest, MatchesBernoulliAndBinomial) {
  EXPECT_DOUBLE_EQ(PoissonBinomialVariance({0.5}), 0.25);
  // Identical trials reduce to binomial variance n p (1-p).
  EXPECT_DOUBLE_EQ(PoissonBinomialVariance(std::vector<double>(10, 0.3)),
                   10 * 0.3 * 0.7);
  EXPECT_DOUBLE_EQ(PoissonBinomialVariance({0.0, 1.0}), 0.0);
}

TEST(PoissonBinomialVarianceTest, VariabilityOfProbabilitiesReducesVariance) {
  // The paper's Section 4.2 argument: for a fixed mean success probability,
  // spreading the p_i reduces the Poisson-binomial variance.
  const double uniform = PoissonBinomialVariance(std::vector<double>(10, 0.5));
  std::vector<double> spread;
  for (int i = 0; i < 5; ++i) {
    spread.push_back(0.3);
    spread.push_back(0.7);
  }
  EXPECT_LT(PoissonBinomialVariance(spread), uniform);
}

TEST(GammaPerturbedCountVarianceTest, MatchesDirectSum) {
  auto matrix = *GammaDiagonalMatrix::Create(19.0, 24);
  const double n = 100.0, x_v = 30.0;
  std::vector<double> probabilities;
  for (int i = 0; i < 30; ++i) probabilities.push_back(matrix.DiagonalValue());
  for (int i = 0; i < 70; ++i) probabilities.push_back(matrix.OffDiagonalValue());
  EXPECT_NEAR(GammaPerturbedCountVariance(matrix, x_v, n),
              PoissonBinomialVariance(probabilities), 1e-12);
}

TEST(ReconstructedSupportStddevTest, ValidatesInputs) {
  auto rec = *GammaSubsetReconstructor::Create(19.0, 2000);
  EXPECT_FALSE(ReconstructedSupportStddev(rec, -0.1, 10, 100).ok());
  EXPECT_FALSE(ReconstructedSupportStddev(rec, 1.1, 10, 100).ok());
  EXPECT_FALSE(ReconstructedSupportStddev(rec, 0.5, 10, 0).ok());
  EXPECT_FALSE(ReconstructedSupportStddev(rec, 0.5, 0, 100).ok());
}

TEST(ReconstructedSupportStddevTest, ShrinksWithSampleSizeAndLength) {
  auto rec = *GammaSubsetReconstructor::Create(19.0, 2000);
  const double s_small_n = *ReconstructedSupportStddev(rec, 0.02, 20, 10000);
  const double s_large_n = *ReconstructedSupportStddev(rec, 0.02, 20, 40000);
  EXPECT_NEAR(s_small_n / s_large_n, 2.0, 1e-9);  // 1/sqrt(N) scaling

  // Larger subsets (longer itemsets) have less off-diagonal mass -> less
  // noise: the DET-GD error DROPS with itemset length, as in Figure 1(a).
  const double s_len2 = *ReconstructedSupportStddev(rec, 0.02, 20, 50000);
  const double s_len6 = *ReconstructedSupportStddev(rec, 0.02, 2000, 50000);
  EXPECT_GT(s_len2, 3.0 * s_len6);
}

TEST(ReconstructedSupportStddevTest, PredictsEmpiricalSpread) {
  // Monte-Carlo check of the closed form: perturb a fixed dataset many
  // times, reconstruct one itemset's support, compare the spread.
  auto schema = *data::CategoricalSchema::Create(
      {{"a", {"0", "1"}}, {"b", {"0", "1", "2"}}, {"c", {"0", "1", "2", "3"}}});
  auto table = *data::CategoricalTable::Create(schema);
  random::Pcg64 data_rng(5);
  const size_t n = 20000;
  for (size_t i = 0; i < n; ++i) {
    (void)table.AppendRow({static_cast<uint8_t>(data_rng.NextBernoulli(0.7) ? 0 : 1),
                           static_cast<uint8_t>(data_rng.NextBounded(3)),
                           static_cast<uint8_t>(data_rng.NextBounded(4))});
  }
  const mining::Itemset target = *mining::Itemset::Create({{0, 0}, {1, 1}});
  const double true_support = mining::SupportFraction(table, target);

  const double gamma = 19.0;
  auto perturber = *GammaDiagonalPerturber::Create(schema, gamma);
  auto rec = *GammaSubsetReconstructor::Create(gamma, schema.DomainSize());

  std::vector<double> estimates;
  for (int run = 0; run < 60; ++run) {
    auto perturbed = *perturber.PerturbShardSeeded(
        data::ShardView::Whole(table), /*seed=*/77 + run);
    const double sup_v = mining::SupportFraction(perturbed, target);
    estimates.push_back(*rec.ReconstructSupport(sup_v, 6));
  }
  double mean = 0.0;
  for (double e : estimates) mean += e;
  mean /= estimates.size();
  double var = 0.0;
  for (double e : estimates) var += (e - mean) * (e - mean);
  var /= (estimates.size() - 1);

  const double predicted = *ReconstructedSupportStddev(rec, true_support, 6, n);
  // Unbiased and with the predicted spread (loose bands: 60 samples).
  EXPECT_NEAR(mean, true_support, 4.0 * predicted / std::sqrt(60.0));
  EXPECT_GT(std::sqrt(var), 0.6 * predicted);
  EXPECT_LT(std::sqrt(var), 1.5 * predicted);
}

TEST(PredictedRelativeReconstructionErrorTest, BoundsEmpiricalError) {
  auto schema = *data::CategoricalSchema::Create(
      {{"a", {"0", "1"}}, {"b", {"0", "1", "2"}}});
  auto table = *data::CategoricalTable::Create(schema);
  random::Pcg64 data_rng(6);
  const size_t n = 50000;
  for (size_t i = 0; i < n; ++i) {
    (void)table.AppendRow({static_cast<uint8_t>(data_rng.NextBernoulli(0.6) ? 0 : 1),
                           static_cast<uint8_t>(data_rng.NextBounded(3))});
  }
  auto matrix = *GammaDiagonalMatrix::Create(19.0, schema.DomainSize());
  const data::DomainIndexer indexer = data::DomainIndexer::OverAllAttributes(schema);
  const linalg::Vector x = table.JointHistogram(indexer);

  const double predicted = *PredictedRelativeReconstructionError(matrix, x);
  EXPECT_GT(predicted, 0.0);

  // Empirical relative error over a few runs stays within a small multiple
  // of the prediction (the prediction is an RMS-based Theorem-1 bound).
  auto perturber = *GammaDiagonalPerturber::Create(schema, 19.0);
  for (int run = 0; run < 5; ++run) {
    auto perturbed = *perturber.PerturbShardSeeded(
        data::ShardView::Whole(table), /*seed=*/9 + run);
    const linalg::Vector y = perturbed.JointHistogram(indexer);
    const linalg::Vector x_hat = *matrix.ToUniformMixture().Solve(y);
    const double relative = (x_hat - x).Norm2() / x.Norm2();
    EXPECT_LT(relative, 3.0 * predicted) << "run " << run;
  }
}

TEST(PredictedRelativeReconstructionErrorTest, Validation) {
  auto matrix = *GammaDiagonalMatrix::Create(19.0, 6);
  EXPECT_FALSE(PredictedRelativeReconstructionError(matrix, linalg::Vector(5)).ok());
  EXPECT_FALSE(
      PredictedRelativeReconstructionError(matrix, linalg::Vector(6, 0.0)).ok());
}

TEST(RequiredRecordsForSeparationTest, InvertsTheStddev) {
  auto rec = *GammaSubsetReconstructor::Create(19.0, 2000);
  const double required =
      *RequiredRecordsForSeparation(rec, 0.04, 0.02, 20, 2.0);
  // At the required N, the 2-sigma band just touches the threshold.
  const double sigma = *ReconstructedSupportStddev(
      rec, 0.04, 20, static_cast<size_t>(required) + 1);
  EXPECT_NEAR(2.0 * sigma, 0.02, 0.0005);
}

TEST(RequiredRecordsForSeparationTest, HarderSeparationsNeedMoreData) {
  auto rec = *GammaSubsetReconstructor::Create(19.0, 2000);
  const double easy = *RequiredRecordsForSeparation(rec, 0.10, 0.02, 20, 2.0);
  const double hard = *RequiredRecordsForSeparation(rec, 0.025, 0.02, 20, 2.0);
  EXPECT_GT(hard, 10.0 * easy);
  EXPECT_FALSE(RequiredRecordsForSeparation(rec, 0.02, 0.02, 20, 2.0).ok());
  EXPECT_FALSE(RequiredRecordsForSeparation(rec, 0.04, 0.02, 20, 0.0).ok());
}

}  // namespace
}  // namespace core
}  // namespace frapp
