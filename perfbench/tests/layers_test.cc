#include "layers.h"

#include <memory>

#include <gtest/gtest.h>

#include "frapp/data/census.h"
#include "frapp/data/shard_io.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "workloads_common.h"

namespace perfbench {
namespace {

using frapp::data::CategoricalTable;

const CategoricalTable& Census() {
  static const CategoricalTable* table =
      new CategoricalTable(*frapp::data::census::MakeDataset(20000, 11));
  return *table;
}

frapp::pipeline::PipelineOptions Options() {
  frapp::pipeline::PipelineOptions options;
  options.num_shards = 1;
  options.num_threads = 2;
  options.perturb_seed = 5;
  options.mining.min_support = 0.02;
  return options;
}

frapp::mining::AprioriResult PipelineMine(const frapp::dist::MechanismSpec& spec) {
  auto mechanism = *frapp::dist::MakeMechanism(spec, Census().schema());
  return frapp::pipeline::PrivacyPipeline(Options()).Run(*mechanism, Census())->mined;
}

TEST(TracedMineTest, BitIdenticalToThePipeline) {
  for (const auto kind : {frapp::dist::MechanismSpec::Kind::kDetGd,
                          frapp::dist::MechanismSpec::Kind::kRanGd,
                          frapp::dist::MechanismSpec::Kind::kIndGd}) {
    frapp::dist::MechanismSpec spec;
    spec.kind = kind;
    LayerSample sample;
    frapp::StatusOr<frapp::mining::AprioriResult> traced =
        TracedCategoricalMine(spec, Census(), Options(), &sample);
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();
    const frapp::mining::AprioriResult plain = PipelineMine(spec);
    EXPECT_TRUE(SameMined(*traced, plain));
    EXPECT_EQ(traced->candidates_per_pass, plain.candidates_per_pass);

    size_t candidates = 0;
    double per_level = 0.0;
    for (size_t k = 0; k < plain.candidates_per_pass.size(); ++k) {
      candidates += plain.candidates_per_pass[k];
      per_level += sample["mining.count_ms.L" + std::to_string(k + 1)];
    }
    EXPECT_EQ(sample["mining.candidates"], static_cast<double>(candidates));
    EXPECT_EQ(sample["mining.frequent"], static_cast<double>(plain.TotalFrequent()));
    EXPECT_DOUBLE_EQ(per_level, sample["mining.count_ms"]);
    EXPECT_GT(sample["core.perturb_ms"], 0.0);
    EXPECT_GT(sample["mining.index_ms"], 0.0);
  }
}

TEST(TracedMineTest, RefusesWhatItDoesNotReplay) {
  frapp::dist::MechanismSpec mask;
  mask.kind = frapp::dist::MechanismSpec::Kind::kMask;
  LayerSample sample;
  EXPECT_FALSE(TracedCategoricalMine(mask, Census(), Options(), &sample).ok());
  frapp::pipeline::PipelineOptions sharded = Options();
  sharded.num_shards = 3;
  EXPECT_FALSE(TracedCategoricalMine({}, Census(), sharded, &sample).ok());
}

TEST(TimingDecoratorTest, EstimatorDecoratorLeavesTheMineUnchanged) {
  frapp::mining::AprioriOptions options;
  options.min_support = 0.02;
  frapp::mining::ExactSupportEstimator plain(Census());
  const auto expected =
      *frapp::mining::MineFrequentItemsets(Census().schema(), plain, options);
  LayerSample sample;
  TimingSupportEstimator timed(
      std::make_unique<frapp::mining::ExactSupportEstimator>(Census()),
      "estimate_ms", &sample);
  const auto got =
      *frapp::mining::MineFrequentItemsets(Census().schema(), timed, options);
  EXPECT_TRUE(SameMined(got, expected));
  EXPECT_GT(sample["estimate_ms"], 0.0);
}

TEST(TimingDecoratorTest, TableSourceDecoratorLeavesThePipelineUnchanged) {
  frapp::dist::MechanismSpec spec;
  spec.kind = frapp::dist::MechanismSpec::Kind::kMask;
  LayerSample sample;
  TimingTableSource source(
      std::make_unique<frapp::pipeline::InMemoryTableSource>(Census(), 0),
      &sample);
  auto mechanism = *frapp::dist::MakeMechanism(spec, Census().schema());
  const auto timed =
      frapp::pipeline::PrivacyPipeline(Options()).Run(*mechanism, source);
  ASSERT_TRUE(timed.ok()) << timed.status().ToString();
  EXPECT_TRUE(SameMined(timed->mined, PipelineMine(spec)));
  EXPECT_GT(sample["data.ingest_ms"], 0.0);
}

TEST(AccuracyMeanTest, ExactMineScoresZero) {
  frapp::mining::AprioriOptions options;
  options.min_support = 0.02;
  const auto truth = *frapp::mining::MineExact(Census(), options);
  AccuracyMean mean;
  mean.Add(truth, truth);
  EXPECT_EQ(mean.Mean().support_error_pct, 0.0);
  EXPECT_EQ(mean.Mean().identity_error_pct, 0.0);
}

}  // namespace
}  // namespace perfbench
