// Shard-streaming pipeline equivalence: for every mechanism and every
// (shard count, thread count), the pipeline's perturbed database,
// reconstructed supports, and mined itemsets must equal the single-shard,
// single-thread pass BIT FOR BIT — sharding is a pure parallelism/memory
// transform, never an accuracy one. Since PR 3 this holds for ALL five
// mechanisms (DET-GD, RAN-GD, MASK, C&P, IND-GD); the monolithic fallback
// no longer exists.

#include "frapp/pipeline/privacy_pipeline.h"

#include <gtest/gtest.h>

#include <memory>

#include "frapp/core/mechanism.h"
#include "frapp/data/census.h"
#include "frapp/data/sharded_table.h"
#include "frapp/eval/experiment.h"
#include "frapp/mining/apriori.h"

namespace frapp {
namespace pipeline {
namespace {

constexpr double kGamma = 19.0;
constexpr uint64_t kSeed = 17;

// Exact (bitwise) equality of two mining results, supports included.
void ExpectSameMiningResult(const mining::AprioriResult& a,
                            const mining::AprioriResult& b) {
  ASSERT_EQ(a.by_length.size(), b.by_length.size());
  EXPECT_EQ(a.candidates_per_pass, b.candidates_per_pass);
  for (size_t k = 0; k < a.by_length.size(); ++k) {
    ASSERT_EQ(a.by_length[k].size(), b.by_length[k].size())
        << "length " << k + 1;
    for (size_t i = 0; i < a.by_length[k].size(); ++i) {
      EXPECT_EQ(a.by_length[k][i].itemset, b.by_length[k][i].itemset);
      // Bit-identical reconstructed supports, not just approximately equal.
      EXPECT_EQ(a.by_length[k][i].support, b.by_length[k][i].support);
    }
  }
}

class PrivacyPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new data::CategoricalTable(
        *data::census::MakeDataset(50000, 321));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }

  static PipelineOptions Options(size_t num_shards, size_t num_threads) {
    PipelineOptions options;
    options.num_shards = num_shards;
    options.num_threads = num_threads;
    options.perturb_seed = kSeed;
    options.mining.min_support = 0.02;
    return options;
  }

  using MechanismFactory = std::unique_ptr<core::Mechanism> (*)();

  // Runs `make()`'s mechanism over the shard x thread grid and expects every
  // grid point to mine bit-identically to the (1 shard, 1 thread) reference.
  static void ExpectGridBitIdentical(MechanismFactory make) {
    auto baseline_mechanism = make();
    const StatusOr<PipelineResult> reference =
        PrivacyPipeline(Options(1, 1)).Run(*baseline_mechanism, *table_);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_GT(reference->mined.TotalFrequent(), 0u);
    for (size_t num_shards : {3ul, 7ul}) {
      for (size_t num_threads : {1ul, 4ul}) {
        SCOPED_TRACE(testing::Message() << "shards=" << num_shards
                                        << " threads=" << num_threads);
        auto mechanism = make();
        const StatusOr<PipelineResult> run =
            PrivacyPipeline(Options(num_shards, num_threads))
                .Run(*mechanism, *table_);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        EXPECT_EQ(run->stats.num_shards, num_shards);
        EXPECT_EQ(run->stats.total_rows, table_->num_rows());
        ExpectSameMiningResult(reference->mined, run->mined);
      }
    }
  }

  static data::CategoricalTable* table_;
};

data::CategoricalTable* PrivacyPipelineTest::table_ = nullptr;

TEST_F(PrivacyPipelineTest, ShardedPerturbationConcatenatesToMonolithic) {
  const auto perturber =
      *core::GammaDiagonalPerturber::Create(table_->schema(), kGamma);
  const data::CategoricalTable whole =
      *perturber.PerturbSeeded(*table_, kSeed, /*num_threads=*/2);
  for (size_t num_shards : {3ul, 7ul}) {
    SCOPED_TRACE(testing::Message() << "shards=" << num_shards);
    size_t row = 0;
    for (const data::RowRange& range :
         data::ShardedTable::Plan(table_->num_rows(), num_shards)) {
      const data::CategoricalTable shard =
          *perturber.PerturbShardSeeded(*table_, range, kSeed);
      ASSERT_EQ(shard.num_rows(), range.size());
      for (size_t i = 0; i < shard.num_rows(); ++i, ++row) {
        for (size_t j = 0; j < table_->num_attributes(); ++j) {
          ASSERT_EQ(shard.Value(i, j), whole.Value(row, j))
              << "row " << row << " attr " << j;
        }
      }
    }
    EXPECT_EQ(row, table_->num_rows());
  }
}

TEST_F(PrivacyPipelineTest, ShardMisalignmentIsRejected) {
  const auto perturber =
      *core::GammaDiagonalPerturber::Create(table_->schema(), kGamma);
  EXPECT_FALSE(
      perturber.PerturbShardSeeded(*table_, data::RowRange{100, 9000}, kSeed)
          .ok());
  EXPECT_FALSE(
      perturber
          .PerturbShardSeeded(*table_, data::RowRange{0, table_->num_rows() + 1},
                              kSeed)
          .ok());
}

TEST_F(PrivacyPipelineTest, DetGdBitIdenticalAcrossShardsAndThreads) {
  ExpectGridBitIdentical([]() -> std::unique_ptr<core::Mechanism> {
    return *core::DetGdMechanism::Create(table_->schema(), kGamma);
  });
}

TEST_F(PrivacyPipelineTest, RanGdBitIdenticalAcrossShardsAndThreads) {
  ExpectGridBitIdentical([]() -> std::unique_ptr<core::Mechanism> {
    const double x = 1.0 / (kGamma +
                            static_cast<double>(table_->schema().DomainSize()) -
                            1.0);
    return *core::RanGdMechanism::Create(table_->schema(), kGamma,
                                         kGamma * x / 2.0);
  });
}

TEST_F(PrivacyPipelineTest, MaskBitIdenticalAcrossShardsAndThreads) {
  ExpectGridBitIdentical([]() -> std::unique_ptr<core::Mechanism> {
    return *core::MaskMechanism::Create(table_->schema(), kGamma);
  });
}

TEST_F(PrivacyPipelineTest, CutPasteBitIdenticalAcrossShardsAndThreads) {
  ExpectGridBitIdentical([]() -> std::unique_ptr<core::Mechanism> {
    return *core::CutPasteMechanism::Create(table_->schema(), 3, 0.494);
  });
}

TEST_F(PrivacyPipelineTest, IndependentColumnBitIdenticalAcrossShardsAndThreads) {
  ExpectGridBitIdentical([]() -> std::unique_ptr<core::Mechanism> {
    return *core::IndependentColumnMechanism::Create(table_->schema(), kGamma);
  });
}

TEST_F(PrivacyPipelineTest, StreamingBoundsPeakMemoryToOneShardPerWorker) {
  // Categorical shards are perturbed straight into bitmap planes: one
  // uint64_t per 64 rows per item.
  const auto index_bytes = [](size_t rows) {
    return table_->schema().TotalCategories() * ((rows + 63) / 64) *
           sizeof(uint64_t);
  };
  auto mechanism = *core::DetGdMechanism::Create(table_->schema(), kGamma);
  const PipelineResult serial =
      *PrivacyPipeline(Options(7, 1)).Run(*mechanism, *table_);
  EXPECT_EQ(serial.stats.num_shards, 7u);
  // One worker -> exactly one shard's planes in flight at a time.
  EXPECT_EQ(serial.stats.peak_inflight_perturbed_bytes,
            index_bytes(serial.stats.max_shard_rows));
  EXPECT_LT(serial.stats.peak_inflight_perturbed_bytes,
            index_bytes(table_->num_rows()));

  auto parallel_mechanism = *core::DetGdMechanism::Create(table_->schema(), kGamma);
  const PipelineResult parallel =
      *PrivacyPipeline(Options(7, 4)).Run(*parallel_mechanism, *table_);
  // Four workers -> at most four shards in flight.
  EXPECT_LE(parallel.stats.peak_inflight_perturbed_bytes,
            4 * index_bytes(parallel.stats.max_shard_rows));
}

TEST_F(PrivacyPipelineTest, BooleanStreamingBoundsPeakMemoryToOneShardPerWorker) {
  auto mechanism = *core::MaskMechanism::Create(table_->schema(), kGamma);
  const PipelineResult serial =
      *PrivacyPipeline(Options(7, 1)).Run(*mechanism, *table_);
  EXPECT_EQ(serial.stats.num_shards, 7u);
  // One worker -> one shard of perturbed one-hot rows (8 bytes each) alive.
  EXPECT_EQ(serial.stats.peak_inflight_perturbed_bytes,
            serial.stats.max_shard_rows * sizeof(uint64_t));
  EXPECT_LT(serial.stats.peak_inflight_perturbed_bytes,
            table_->num_rows() * sizeof(uint64_t));
}

TEST_F(PrivacyPipelineTest, RunMechanismMatchesPipelineAtAnyShardCount) {
  mining::AprioriOptions options;
  options.min_support = 0.02;
  const mining::AprioriResult truth = *mining::MineExact(*table_, options);

  eval::ExperimentConfig monolithic;
  monolithic.perturb_seed = kSeed;
  auto m1 = *core::DetGdMechanism::Create(table_->schema(), kGamma);
  const eval::MechanismRun reference =
      *eval::RunMechanism(*m1, *table_, truth, monolithic);

  eval::ExperimentConfig sharded = monolithic;
  sharded.num_shards = 7;
  sharded.num_threads = 4;
  auto m2 = *core::DetGdMechanism::Create(table_->schema(), kGamma);
  const eval::MechanismRun run = *eval::RunMechanism(*m2, *table_, truth, sharded);

  ExpectSameMiningResult(reference.mined, run.mined);
  ASSERT_EQ(reference.accuracy.size(), run.accuracy.size());
  for (size_t i = 0; i < run.accuracy.size(); ++i) {
    EXPECT_EQ(reference.accuracy[i].correct, run.accuracy[i].correct);
    EXPECT_EQ(reference.accuracy[i].found_frequent,
              run.accuracy[i].found_frequent);
  }
  EXPECT_EQ(run.pipeline_stats.num_shards, 7u);
}

TEST_F(PrivacyPipelineTest, ExactMiningBitIdenticalAcrossCountShards) {
  mining::AprioriOptions monolithic;
  monolithic.min_support = 0.02;
  const mining::AprioriResult reference = *mining::MineExact(*table_, monolithic);
  for (size_t num_shards : {3ul, 7ul}) {
    for (size_t num_threads : {1ul, 4ul}) {
      SCOPED_TRACE(testing::Message() << "shards=" << num_shards
                                      << " threads=" << num_threads);
      mining::AprioriOptions options = monolithic;
      options.count_shards = num_shards;
      options.num_threads = num_threads;
      const StatusOr<mining::AprioriResult> run =
          mining::MineExact(*table_, options);
      ASSERT_TRUE(run.ok());
      ExpectSameMiningResult(reference, *run);
    }
  }
}

TEST_F(PrivacyPipelineTest, EmptyTableYieldsEmptyResult) {
  const data::CategoricalTable empty =
      *data::CategoricalTable::Create(table_->schema());
  auto mechanism = *core::DetGdMechanism::Create(table_->schema(), kGamma);
  const StatusOr<PipelineResult> run =
      PrivacyPipeline(Options(4, 2)).Run(*mechanism, empty);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->mined.TotalFrequent(), 0u);
  EXPECT_EQ(run->stats.num_shards, 0u);
}

TEST_F(PrivacyPipelineTest, EmptyTableYieldsEmptyResultForBooleanMechanisms) {
  const data::CategoricalTable empty =
      *data::CategoricalTable::Create(table_->schema());
  auto mechanism = *core::MaskMechanism::Create(table_->schema(), kGamma);
  const StatusOr<PipelineResult> run =
      PrivacyPipeline(Options(4, 2)).Run(*mechanism, empty);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->mined.TotalFrequent(), 0u);
  EXPECT_EQ(run->stats.num_shards, 0u);
}

}  // namespace
}  // namespace pipeline
}  // namespace frapp
