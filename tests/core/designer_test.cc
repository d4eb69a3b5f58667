#include "frapp/core/designer.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "frapp/data/census.h"
#include "frapp/mining/count_source.h"

namespace frapp {
namespace core {
namespace {

TEST(DesignerTest, DeterministicDesignForPaperRequirement) {
  const data::CategoricalSchema schema = data::census::Schema();
  DesignOptions options;  // defaults: (5%, 50%), no randomization
  StatusOr<FrappDesign> design = DesignMechanism(schema, options);
  ASSERT_TRUE(design.ok());
  EXPECT_NEAR(design->gamma, 19.0, 1e-12);
  EXPECT_NEAR(design->x, 1.0 / 2018.0, 1e-15);
  EXPECT_DOUBLE_EQ(design->alpha, 0.0);
  EXPECT_NEAR(design->condition_number, 2018.0 / 18.0, 1e-9);
  EXPECT_EQ(design->mechanism->name(), "DET-GD");
  // Deterministic: the posterior window collapses onto rho2.
  EXPECT_NEAR(design->posterior.center, 0.50, 1e-9);
  EXPECT_DOUBLE_EQ(design->posterior.lower, design->posterior.upper);
}

TEST(DesignerTest, RandomizedDesignSelectsRanGd) {
  const data::CategoricalSchema schema = data::census::Schema();
  DesignOptions options;
  options.randomization_fraction = 0.5;
  StatusOr<FrappDesign> design = DesignMechanism(schema, options);
  ASSERT_TRUE(design.ok());
  EXPECT_EQ(design->mechanism->name(), "RAN-GD");
  EXPECT_NEAR(design->alpha, 0.5 * 19.0 / 2018.0, 1e-12);
  // The paper's example window at alpha = gamma x / 2: ~[33%, 60%].
  EXPECT_NEAR(design->posterior.lower, 0.33, 0.01);
  EXPECT_NEAR(design->posterior.upper, 0.60, 0.01);
}

TEST(DesignerTest, StricterRequirementsLowerGammaAndRaiseCondition) {
  const data::CategoricalSchema schema = data::census::Schema();
  DesignOptions loose;
  DesignOptions strict;
  strict.requirement = {0.05, 0.30};
  StatusOr<FrappDesign> d_loose = DesignMechanism(schema, loose);
  StatusOr<FrappDesign> d_strict = DesignMechanism(schema, strict);
  ASSERT_TRUE(d_loose.ok() && d_strict.ok());
  EXPECT_LT(d_strict->gamma, d_loose->gamma);
  // The privacy/accuracy tradeoff: stricter privacy -> worse conditioning.
  EXPECT_GT(d_strict->condition_number, d_loose->condition_number);
}

TEST(DesignerTest, DesignedMechanismIsUsable) {
  const data::CategoricalSchema schema = data::census::Schema();
  StatusOr<data::CategoricalTable> table = data::census::MakeDataset(2000, 3);
  ASSERT_TRUE(table.ok());
  DesignOptions options;
  options.randomization_fraction = 0.25;
  StatusOr<FrappDesign> design = DesignMechanism(schema, options);
  ASSERT_TRUE(design.ok());
  StatusOr<mining::VerticalIndex> index = design->mechanism->PerturbShardIndex(
      data::ShardView::Whole(*table), /*seed=*/4,
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
  EXPECT_TRUE(est.ok());
}

TEST(DesignerTest, SummaryMentionsKeyNumbers) {
  const data::CategoricalSchema schema = data::census::Schema();
  StatusOr<FrappDesign> design = DesignMechanism(schema, DesignOptions{});
  ASSERT_TRUE(design.ok());
  const std::string summary = design->Summary();
  EXPECT_NE(summary.find("gamma"), std::string::npos);
  EXPECT_NE(summary.find("19"), std::string::npos);
  EXPECT_NE(summary.find("DET-GD"), std::string::npos);
}

TEST(DesignerTest, Validation) {
  const data::CategoricalSchema schema = data::census::Schema();
  DesignOptions bad_fraction;
  bad_fraction.randomization_fraction = 1.5;
  EXPECT_FALSE(DesignMechanism(schema, bad_fraction).ok());
  DesignOptions bad_requirement;
  bad_requirement.requirement = {0.5, 0.2};
  EXPECT_FALSE(DesignMechanism(schema, bad_requirement).ok());
}

}  // namespace
}  // namespace core
}  // namespace frapp
