#include "frapp/core/mechanism.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>

#include "frapp/data/census.h"
#include "frapp/mining/count_source.h"
#include "frapp/mining/support_counter.h"

namespace frapp {
namespace core {
namespace {

constexpr double kGamma = 19.0;

class MechanismFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    StatusOr<data::CategoricalTable> t = data::census::MakeDataset(30000, 41);
    ASSERT_TRUE(t.ok());
    table_.emplace(*std::move(t));
  }

  // Estimate minus truth for a given itemset: the whole table perturbed as
  // one shard under `seed`, then reconstructed from its index's counts.
  double EstimateError(Mechanism& mechanism, uint64_t seed,
                       const mining::Itemset& itemset) {
    ShardIndexes indexes;
    const Status perturbed = PerturbIntoIndex(
        mechanism, data::ShardView::Whole(*table_),
        seed, /*num_threads=*/1, indexes);
    EXPECT_TRUE(perturbed.ok()) << perturbed.ToString();
    StatusOr<std::unique_ptr<mining::SupportEstimator>> estimator =
        mechanism.MakeCountSourceEstimator(
            std::make_shared<mining::LocalSupportCountSource>(
                mining::ShardedVerticalIndex::FromShards(
                    std::move(indexes.shards))));
    EXPECT_TRUE(estimator.ok()) << estimator.status().ToString();
    if (!estimator.ok()) return 1e9;
    StatusOr<double> est = (*estimator)->EstimateSupport(itemset);
    EXPECT_TRUE(est.ok()) << est.status().ToString();
    const double truth = mining::SupportFraction(*table_, itemset);
    return est.ok() ? *est - truth : 1e9;
  }

  std::optional<data::CategoricalTable> table_;
};

TEST_F(MechanismFixture, DetGdLongItemsetEstimateIsPrecise) {
  // Full-length itemsets are DET-GD's LOW-variance regime (the off-diagonal
  // mass (n_C/n_Cs) x shrinks as the subset grows): sigma ~ 0.02 here.
  StatusOr<std::unique_ptr<DetGdMechanism>> m =
      DetGdMechanism::Create(table_->schema(), kGamma);
  ASSERT_TRUE(m.ok());

  // The modal record: age (15-35], fnlwgt (1e5-2e5], hours (20-40], White,
  // Male, United-States (true support ~6%).
  const mining::Itemset modal = *mining::Itemset::Create(
      {{0, 0}, {1, 1}, {2, 1}, {3, 0}, {4, 1}, {5, 0}});
  EXPECT_LT(std::fabs(EstimateError(**m, /*seed=*/1, modal)), 0.08);
}

TEST_F(MechanismFixture, DetGdSingletonEstimateUnbiasedAcrossRuns) {
  // Singletons over 2-category attributes are the HIGH-variance regime
  // (sigma ~ 0.3 per run at this scale); the estimator must still be
  // unbiased, so the average over independent perturbations converges.
  StatusOr<std::unique_ptr<DetGdMechanism>> m =
      DetGdMechanism::Create(table_->schema(), kGamma);
  ASSERT_TRUE(m.ok());
  const mining::Itemset male = *mining::Itemset::Create({{4, 1}});
  double total_error = 0.0;
  const int runs = 12;
  for (int r = 0; r < runs; ++r) {
    const double err = EstimateError(**m, /*seed=*/100 + r, male);
    EXPECT_LT(std::fabs(err), 1.2);  // catches wiring bugs (~28 shift)
    total_error += err;
  }
  EXPECT_LT(std::fabs(total_error / runs), 0.35);  // ~3.5 sigma of the mean
}

TEST_F(MechanismFixture, RanGdEstimatesTrackDetGd) {
  const double x = 1.0 / (kGamma + 2000.0 - 1.0);
  StatusOr<std::unique_ptr<RanGdMechanism>> m =
      RanGdMechanism::Create(table_->schema(), kGamma, kGamma * x / 2.0);
  ASSERT_TRUE(m.ok());
  const mining::Itemset modal = *mining::Itemset::Create(
      {{0, 0}, {1, 1}, {2, 1}, {3, 0}, {4, 1}, {5, 0}});
  EXPECT_LT(std::fabs(EstimateError(**m, /*seed=*/2, modal)), 0.10);
}

TEST_F(MechanismFixture, MaskSingletonEstimateIsClose) {
  StatusOr<std::unique_ptr<MaskMechanism>> m =
      MaskMechanism::Create(table_->schema(), kGamma);
  ASSERT_TRUE(m.ok());
  EXPECT_LT(std::fabs(EstimateError(**m, /*seed=*/3,
                                    *mining::Itemset::Create({{4, 1}}))),
            0.05);
}

TEST_F(MechanismFixture, CutPasteSingletonEstimateIsClose) {
  StatusOr<std::unique_ptr<CutPasteMechanism>> m =
      CutPasteMechanism::Create(table_->schema(), 3, 0.494);
  ASSERT_TRUE(m.ok());
  EXPECT_LT(std::fabs(EstimateError(**m, /*seed=*/4,
                                    *mining::Itemset::Create({{4, 1}}))),
            0.08);
}

TEST_F(MechanismFixture, IndependentColumnSingletonEstimateIsClose) {
  StatusOr<std::unique_ptr<IndependentColumnMechanism>> m =
      IndependentColumnMechanism::Create(table_->schema(), kGamma);
  ASSERT_TRUE(m.ok());
  EXPECT_LT(std::fabs(EstimateError(**m, /*seed=*/5,
                                    *mining::Itemset::Create({{4, 1}}))),
            0.05);
}

TEST(MechanismTest, ConditionNumberOrderingAtLength4) {
  // Figure 4's headline: DET-GD/RAN-GD constant and small; MASK and C&P
  // exponential. At length 4 on CENSUS the ordering must be strict.
  data::CategoricalSchema schema = data::census::Schema();
  StatusOr<std::unique_ptr<DetGdMechanism>> det =
      DetGdMechanism::Create(schema, kGamma);
  StatusOr<std::unique_ptr<MaskMechanism>> mask =
      MaskMechanism::Create(schema, kGamma);
  StatusOr<std::unique_ptr<CutPasteMechanism>> cp =
      CutPasteMechanism::Create(schema, 3, 0.494);
  ASSERT_TRUE(det.ok() && mask.ok() && cp.ok());

  StatusOr<double> det4 = (*det)->ConditionNumberForLength(4);
  StatusOr<double> mask4 = (*mask)->ConditionNumberForLength(4);
  StatusOr<double> cp4 = (*cp)->ConditionNumberForLength(4);
  ASSERT_TRUE(det4.ok() && mask4.ok() && cp4.ok());
  EXPECT_NEAR(*det4, (kGamma + 1999.0) / 18.0, 1e-9);
  EXPECT_GT(*mask4, *det4);
  EXPECT_GT(*cp4, *det4);

  // DET-GD is constant across lengths.
  StatusOr<double> det1 = (*det)->ConditionNumberForLength(1);
  StatusOr<double> det6 = (*det)->ConditionNumberForLength(6);
  ASSERT_TRUE(det1.ok() && det6.ok());
  EXPECT_DOUBLE_EQ(*det1, *det6);

  // MASK grows exponentially.
  StatusOr<double> mask2 = (*mask)->ConditionNumberForLength(2);
  StatusOr<double> mask6 = (*mask)->ConditionNumberForLength(6);
  ASSERT_TRUE(mask2.ok() && mask6.ok());
  EXPECT_GT(*mask6, 1e4 * *mask2 / 100.0);
}

TEST(MechanismTest, AmplificationsRespectGamma) {
  data::CategoricalSchema schema = data::census::Schema();
  StatusOr<std::unique_ptr<DetGdMechanism>> det =
      DetGdMechanism::Create(schema, kGamma);
  StatusOr<std::unique_ptr<MaskMechanism>> mask =
      MaskMechanism::Create(schema, kGamma);
  StatusOr<std::unique_ptr<CutPasteMechanism>> cp =
      CutPasteMechanism::Create(schema, 3, 0.494);
  StatusOr<std::unique_ptr<IndependentColumnMechanism>> ind =
      IndependentColumnMechanism::Create(schema, kGamma);
  ASSERT_TRUE(det.ok() && mask.ok() && cp.ok() && ind.ok());
  EXPECT_LE((*det)->Amplification(), kGamma + 1e-9);
  EXPECT_LE((*mask)->Amplification(), kGamma + 1e-9);
  EXPECT_LE((*cp)->Amplification(), kGamma + 1e-9);
  EXPECT_LE((*ind)->Amplification(), kGamma + 1e-9);
}

TEST(MechanismTest, RanGdAmplificationGrowsWithAlpha) {
  data::CategoricalSchema schema = data::census::Schema();
  const double x = 1.0 / (kGamma + 1999.0);
  StatusOr<std::unique_ptr<RanGdMechanism>> small =
      RanGdMechanism::Create(schema, kGamma, 0.1 * kGamma * x);
  StatusOr<std::unique_ptr<RanGdMechanism>> large =
      RanGdMechanism::Create(schema, kGamma, 0.9 * kGamma * x);
  ASSERT_TRUE(small.ok() && large.ok());
  // Worst-case realization amplification exceeds gamma (the price of the
  // randomization; what the miner can DETERMINE is weaker, per Section 4.1).
  EXPECT_GT((*small)->Amplification(), kGamma);
  EXPECT_GT((*large)->Amplification(), (*small)->Amplification());
}

TEST(MechanismTest, NamesAreStable) {
  data::CategoricalSchema schema = data::census::Schema();
  EXPECT_EQ((*DetGdMechanism::Create(schema, kGamma))->name(), "DET-GD");
  EXPECT_EQ((*MaskMechanism::Create(schema, kGamma))->name(), "MASK");
  EXPECT_EQ((*CutPasteMechanism::Create(schema, 3, 0.494))->name(), "C&P");
  EXPECT_EQ((*IndependentColumnMechanism::Create(schema, kGamma))->name(),
            "IND-GD");
}

}  // namespace
}  // namespace core
}  // namespace frapp
