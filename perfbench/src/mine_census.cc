// mine_census: one closed-loop client runs PrivacyPipeline::Run for DET-GD
// over an in-memory CENSUS 50k table with 2 pipeline threads and a fresh
// dist::MakeMechanism per operation, the operations cycling through the
// run's kPerturbSeeds perturbation seeds. The paper's headline mechanism and
// dataset; perturbation dominates an operation. Bypasses store, serve and
// dist.

#include <optional>
#include <vector>

#include "frapp/common/clock.h"
#include "frapp/data/census.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "workloads_common.h"

namespace perfbench {

namespace {

using frapp::Status;
using frapp::StatusOr;

constexpr size_t kRows = 50000;

class MineCensus : public Workload {
 public:
  explicit MineCensus(const RunOptions& options)
      : seed_(options.seed), perturb_seeds_(PerturbSeeds(options.seed)) {
    options_.num_shards = 1;
    options_.num_threads = 2;
    options_.perturb_seed = perturb_seeds_[0];
    options_.mining.min_support = 0.02;
  }

  Status Setup() override {
    FRAPP_ASSIGN_OR_RETURN(frapp::data::CategoricalTable table,
                           frapp::data::census::MakeDataset(kRows));
    table_.emplace(std::move(table));
    return Mine(options_).status();  // warms the thread pool
  }

  void Teardown() override { table_.reset(); }

  StatusOr<Accuracy> Prepare() override {
    // The reference runs on another placement (one thread) than the
    // operations: placements are bit-identical by contract.
    frapp::pipeline::PipelineOptions reference = options_;
    reference.num_threads = 1;
    references_.clear();
    for (const uint64_t perturb_seed : perturb_seeds_) {
      reference.perturb_seed = perturb_seed;
      FRAPP_ASSIGN_OR_RETURN(frapp::mining::AprioriResult mined, Mine(reference));
      references_.push_back(std::move(mined));
    }
    FRAPP_ASSIGN_OR_RETURN(frapp::mining::AprioriResult truth,
                           frapp::mining::MineExact(*table_, options_.mining));
    AccuracyMean accuracy;
    for (size_t i = 0; i < kAccuracySeeds; ++i) {
      reference.perturb_seed = DeriveSeed(seed_, 100 + i);
      FRAPP_ASSIGN_OR_RETURN(frapp::mining::AprioriResult mined, Mine(reference));
      accuracy.Add(truth, mined);
    }
    return accuracy.Mean();
  }

  OpResult RunOp(size_t, LayerSample* sample) override {
    const size_t k = next_seed_++ % perturb_seeds_.size();
    frapp::pipeline::PipelineOptions options = options_;
    options.perturb_seed = perturb_seeds_[k];
    const uint64_t start = frapp::common::NowNanos();
    StatusOr<frapp::mining::AprioriResult> mined =
        sample == nullptr
            ? Mine(options)
            : TracedCategoricalMine(spec_, *table_, options, sample);
    OpResult op;
    op.latency_ms = MillisSince(start);
    op.ok = mined.ok() && SameMined(*mined, references_[k]);
    return op;
  }

  std::vector<std::string> AdditiveLayers() const override {
    return {"core.mechanism_create_ms", "core.perturb_ms", "mining.index_ms",
            "mining.count_ms", "core.reconstruct_ms", "mining.walk_ms"};
  }

 private:
  StatusOr<frapp::mining::AprioriResult> Mine(
      const frapp::pipeline::PipelineOptions& options) const {
    FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<frapp::core::Mechanism> mechanism,
                           frapp::dist::MakeMechanism(spec_, table_->schema()));
    FRAPP_ASSIGN_OR_RETURN(
        frapp::pipeline::PipelineResult result,
        frapp::pipeline::PrivacyPipeline(options).Run(*mechanism, *table_));
    return std::move(result.mined);
  }

  const uint64_t seed_;
  const std::vector<uint64_t> perturb_seeds_;
  const frapp::dist::MechanismSpec spec_;  // DET-GD, gamma = 19
  frapp::pipeline::PipelineOptions options_;
  std::optional<frapp::data::CategoricalTable> table_;
  /// The answer of each perturbation seed.
  std::vector<frapp::mining::AprioriResult> references_;
  size_t next_seed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeMineCensus(const RunOptions& options) {
  return std::make_unique<MineCensus>(options);
}

}  // namespace perfbench
