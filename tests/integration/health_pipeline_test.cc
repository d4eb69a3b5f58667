// HEALTH-dataset integration (reduced scale): the paper's Figure 2 shapes
// and the designer/error-analysis workflow on the 7-attribute schema.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "frapp/core/designer.h"
#include "frapp/core/error_analysis.h"
#include "frapp/core/mechanism.h"
#include "frapp/data/health.h"
#include "frapp/eval/experiment.h"
#include "frapp/mining/count_source.h"

namespace frapp {
namespace {

constexpr double kGamma = 19.0;

class HealthPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatusOr<data::CategoricalTable> t = data::health::MakeDataset(40000, 777);
    ASSERT_TRUE(t.ok());
    table_ = new data::CategoricalTable(*std::move(t));
    mining::AprioriOptions options;
    options.min_support = 0.02;
    StatusOr<mining::AprioriResult> truth = mining::MineExact(*table_, options);
    ASSERT_TRUE(truth.ok());
    truth_ = new mining::AprioriResult(*std::move(truth));
  }

  static void TearDownTestSuite() {
    delete table_;
    delete truth_;
    table_ = nullptr;
    truth_ = nullptr;
  }

  static data::CategoricalTable* table_;
  static mining::AprioriResult* truth_;
};

data::CategoricalTable* HealthPipelineTest::table_ = nullptr;
mining::AprioriResult* HealthPipelineTest::truth_ = nullptr;

TEST_F(HealthPipelineTest, TruthReachesDeepItemsets) {
  EXPECT_EQ(truth_->OfLength(1).size(), 23u);
  EXPECT_GE(truth_->MaxLength(), 6u);
}

TEST_F(HealthPipelineTest, CutPasteStructurallyBlindBeyondK) {
  // On the 7-attribute schema, C&P with K = 3 recovers nothing at length
  // >= 4 (rank deficiency), while DET-GD still does.
  auto cp = *core::CutPasteMechanism::Create(table_->schema(), 3, 0.494);
  auto det = *core::DetGdMechanism::Create(table_->schema(), kGamma);
  eval::ExperimentConfig config;
  config.perturb_seed = 9;
  const eval::MechanismRun cp_run =
      *eval::RunMechanism(*cp, *table_, *truth_, config);
  const eval::MechanismRun det_run =
      *eval::RunMechanism(*det, *table_, *truth_, config);

  EXPECT_TRUE(cp_run.mined.OfLength(4).empty());
  size_t det_correct_4 = 0;
  for (const auto& acc : det_run.accuracy) {
    if (acc.length == 4) det_correct_4 = acc.correct;
  }
  EXPECT_GT(det_correct_4, 0u);
}

TEST_F(HealthPipelineTest, DesignerEndToEndOnHealth) {
  core::DesignOptions options;
  options.randomization_fraction = 0.5;
  StatusOr<core::FrappDesign> design =
      core::DesignMechanism(table_->schema(), options);
  ASSERT_TRUE(design.ok());
  EXPECT_NEAR(design->condition_number, (19.0 + 7499.0) / 18.0, 1e-9);

  StatusOr<mining::VerticalIndex> index = design->mechanism->PerturbShardIndex(
      data::ShardView::Whole(*table_), /*seed=*/10,
      /*num_threads=*/1);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  std::vector<mining::VerticalIndex> shards;
  shards.push_back(*std::move(index));
  StatusOr<std::unique_ptr<mining::SupportEstimator>> estimator =
      design->mechanism->MakeCountSourceEstimator(
          std::make_shared<mining::LocalSupportCountSource>(
              mining::ShardedVerticalIndex::FromShards(std::move(shards))));
  ASSERT_TRUE(estimator.ok()) << estimator.status().ToString();
  StatusOr<double> est =
      (*estimator)->EstimateSupport(*mining::Itemset::Create({{4, 1}}));
  ASSERT_TRUE(est.ok());
  // Singleton noise on HEALTH is sigma ~ 1 at this N; wiring bugs are 10x+.
  EXPECT_LT(std::fabs(*est - 0.52), 4.0);
}

TEST_F(HealthPipelineTest, ErrorBudgetExplainsWhatGetsFound) {
  // Itemsets whose distance to the threshold exceeds ~3 predicted sigmas
  // should essentially always be classified correctly by DET-GD.
  auto rec = *core::GammaSubsetReconstructor::Create(
      kGamma, table_->schema().DomainSize());
  auto det = *core::DetGdMechanism::Create(table_->schema(), kGamma);
  eval::ExperimentConfig config;
  config.perturb_seed = 21;
  const eval::MechanismRun run = *eval::RunMechanism(*det, *table_, *truth_, config);

  std::unordered_map<mining::Itemset, double, mining::Itemset::Hash> found;
  for (const auto& level : run.mined.by_length) {
    for (const auto& f : level) found.emplace(f.itemset, f.support);
  }

  size_t confident = 0, confident_found = 0;
  for (size_t k = 4; k <= truth_->MaxLength(); ++k) {
    for (const auto& f : truth_->OfLength(k)) {
      uint64_t n_cs = 1;
      for (const auto& item : f.itemset.items()) {
        n_cs *= table_->schema().Cardinality(item.attribute);
      }
      const double sigma = *core::ReconstructedSupportStddev(
          rec, f.support, n_cs, table_->num_rows());
      if (f.support - 0.02 > 3.0 * sigma) {
        ++confident;
        confident_found += found.count(f.itemset);
      }
    }
  }
  if (confident > 0) {
    EXPECT_GT(static_cast<double>(confident_found) / confident, 0.9);
  }
}

}  // namespace
}  // namespace frapp
