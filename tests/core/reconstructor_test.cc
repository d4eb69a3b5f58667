#include "frapp/core/reconstructor.h"

#include <gtest/gtest.h>

#include "frapp/random/rng.h"

namespace frapp {
namespace core {
namespace {

TEST(ReconstructorTest, ClosedFormMatchesDenseLu) {
  const uint64_t n = 20;
  StatusOr<GammaDiagonalMatrix> a = GammaDiagonalMatrix::Create(19.0, n);
  ASSERT_TRUE(a.ok());
  random::Pcg64 rng(3);
  linalg::Vector y(n);
  for (size_t i = 0; i < n; ++i) y[i] = rng.NextDouble(0.0, 500.0);

  StatusOr<linalg::Vector> closed = ReconstructDistributionGamma(*a, y);
  ASSERT_TRUE(closed.ok());
  StatusOr<linalg::Vector> dense = ReconstructDistribution(a->ToDense(), y);
  ASSERT_TRUE(dense.ok());
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR((*closed)[i], (*dense)[i], 1e-8);
}

TEST(ReconstructorTest, PerfectRecoveryOnExpectedHistogram) {
  // Y = A X exactly -> X_hat = X exactly (no sampling noise).
  const uint64_t n = 10;
  StatusOr<GammaDiagonalMatrix> a = GammaDiagonalMatrix::Create(5.0, n);
  ASSERT_TRUE(a.ok());
  random::Pcg64 rng(4);
  linalg::Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = rng.NextDouble(0.0, 100.0);
  linalg::Vector y = a->ToUniformMixture().MatVec(x);
  StatusOr<linalg::Vector> x_hat = ReconstructDistributionGamma(*a, y);
  ASSERT_TRUE(x_hat.ok());
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR((*x_hat)[i], x[i], 1e-9);
}

TEST(ReconstructorTest, DimensionMismatchRejected) {
  StatusOr<GammaDiagonalMatrix> a = GammaDiagonalMatrix::Create(5.0, 10);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(ReconstructDistributionGamma(*a, linalg::Vector(9)).ok());
}

TEST(ReconstructorTest, EndToEndUnbiasedOnPerturbedData) {
  // Perturb a skewed database and reconstruct its full joint histogram
  // (paper Eq. 8). The estimate must be close to the original counts.
  StatusOr<data::CategoricalSchema> schema = data::CategoricalSchema::Create(
      {{"a", {"0", "1"}}, {"b", {"0", "1", "2"}}});
  ASSERT_TRUE(schema.ok());
  StatusOr<data::CategoricalTable> original =
      data::CategoricalTable::Create(*schema);
  ASSERT_TRUE(original.ok());
  random::Pcg64 data_rng(5);
  const size_t n_records = 100000;
  for (size_t i = 0; i < n_records; ++i) {
    const uint8_t a = data_rng.NextBernoulli(0.7) ? 0 : 1;
    const uint8_t b =
        data_rng.NextBernoulli(0.5) ? 0 : (data_rng.NextBernoulli(0.6) ? 1 : 2);
    ASSERT_TRUE(original->AppendRow({a, b}).ok());
  }

  const double gamma = 19.0;
  StatusOr<GammaDiagonalPerturber> perturber =
      GammaDiagonalPerturber::Create(*schema, gamma);
  ASSERT_TRUE(perturber.ok());
  StatusOr<data::CategoricalTable> perturbed = perturber->PerturbShardSeeded(
      data::ShardView::Whole(*original), /*seed=*/6);
  ASSERT_TRUE(perturbed.ok());

  StatusOr<linalg::Vector> x_hat =
      ReconstructFullDistribution(*perturbed, perturber->matrix());
  ASSERT_TRUE(x_hat.ok());

  const data::DomainIndexer indexer =
      data::DomainIndexer::OverAllAttributes(*schema);
  linalg::Vector x = original->JointHistogram(indexer);
  // Tolerance ~ cond * sqrt(N): generous 3% of N absolute.
  for (size_t v = 0; v < x.size(); ++v) {
    EXPECT_NEAR((*x_hat)[v] / n_records, x[v] / n_records, 0.03) << "v=" << v;
  }
  // Total mass is preserved exactly (column-stochasticity).
  EXPECT_NEAR(x_hat->Sum(), static_cast<double>(n_records), 1e-6 * n_records);
}

TEST(ReconstructorTest, SingularDenseMatrixRejected) {
  linalg::Matrix singular(3, 3, 1.0 / 3.0);
  EXPECT_FALSE(ReconstructDistribution(singular, linalg::Vector(3, 1.0)).ok());
}

}  // namespace
}  // namespace core
}  // namespace frapp
