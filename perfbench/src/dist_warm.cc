// dist_warm: one coordinator mines DET-GD over CENSUS 50k against two
// dist::ServeWorker threads, each behind its own TCP loopback connection.
// The operations cycle through the run's kPerturbSeeds perturbation seeds,
// and Setup warms each worker's index cache for every one of them, so every
// operation (Coordinator::Connect -> Mine -> Shutdown) reuses the cached
// range indexes and perturbs nothing: the only workload through
// coordinator, worker, wire and merge.
//
// The coordinator receives on its own thread (num_threads = 1): its thread
// pool's extra hand-offs per round made op latency swing 2x between runs
// on a shared VM. The whole process runs on one CPU (PinToCpus), so the
// workers count one after the other and each of an operation's thirty-odd
// hand-offs is a switch on that CPU, not the wake-up of another vCPU,
// whose cost follows the host's load. In ten interleaved pairs of 10 s
// runs, pinned op p50 spread 0.09 and throughput 0.09 (quartile distance
// over median); unpinned, 0.19 and 0.26.

#include <optional>
#include <thread>
#include <vector>

#include "frapp/common/clock.h"
#include "frapp/data/census.h"
#include "frapp/dist/coordinator.h"
#include "frapp/dist/index_cache.h"
#include "frapp/dist/worker.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "workloads_common.h"

namespace perfbench {

namespace {

using frapp::Status;
using frapp::StatusOr;

constexpr size_t kRows = 50000;
constexpr size_t kWorkers = 2;

/// A worker serving coordinator sessions one after another on its own
/// listener until the listener closes.
struct WorkerHost {
  std::optional<frapp::dist::TcpListener> listener;
  frapp::dist::IndexCache cache;
  std::thread thread;
};

class DistWarm : public Workload {
 public:
  explicit DistWarm(const RunOptions& options)
      : seed_(options.seed), perturb_seeds_(PerturbSeeds(options.seed)) {
    coordinator_options_.num_threads = 1;  // see the file comment
    mining_.min_support = 0.02;
    // Before any thread of the workload starts: the workers, the
    // coordinator's and the runner's client threads all inherit it.
    PinToCpus(1, 1);
  }

  ~DistWarm() override { Teardown(); }

  Status Setup() override {
    FRAPP_ASSIGN_OR_RETURN(frapp::data::CategoricalTable table,
                           frapp::data::census::MakeDataset(kRows));
    table_.emplace(std::move(table));
    for (size_t w = 0; w < kWorkers; ++w) {
      auto host = std::make_unique<WorkerHost>();
      FRAPP_ASSIGN_OR_RETURN(frapp::dist::TcpListener listener,
                             frapp::dist::TcpListener::Bind("127.0.0.1", 0));
      host->listener.emplace(std::move(listener));
      frapp::dist::WorkerOptions options(table_->schema());
      const frapp::data::CategoricalTable* rows = &*table_;
      options.source_factory =
          [rows]() -> StatusOr<std::unique_ptr<frapp::pipeline::TableSource>> {
        return std::unique_ptr<frapp::pipeline::TableSource>(
            std::make_unique<frapp::pipeline::InMemoryTableSource>(*rows, 0));
      };
      options.index_cache = &host->cache;
      options.source_id = "perfbench:dist_warm";
      WorkerHost* raw = host.get();
      host->thread = std::thread([raw, options = std::move(options)] {
        for (;;) {
          StatusOr<std::unique_ptr<frapp::dist::Transport>> session =
              raw->listener->Accept();
          if (!session.ok()) return;  // listener closed
          (void)frapp::dist::ServeWorker(**session, options);
        }
      });
      workers_.push_back(std::move(host));
    }
    // Warm: the first session of a seed ingests, perturbs and caches every
    // range.
    for (const uint64_t perturb_seed : perturb_seeds_) {
      FRAPP_RETURN_IF_ERROR(Mine(perturb_seed, nullptr).status());
    }
    return Status::OK();
  }

  void Teardown() override {
    for (auto& host : workers_) host->listener->Close();
    for (auto& host : workers_) host->thread.join();
    workers_.clear();
    table_.reset();
  }

  StatusOr<Accuracy> Prepare() override {
    references_.clear();
    for (const uint64_t perturb_seed : perturb_seeds_) {
      FRAPP_ASSIGN_OR_RETURN(frapp::mining::AprioriResult mined,
                             PipelineMine(perturb_seed));
      references_.push_back(std::move(mined));
    }
    FRAPP_ASSIGN_OR_RETURN(frapp::mining::AprioriResult truth,
                           frapp::mining::MineExact(*table_, mining_));
    // The accuracy of the coordinator's answer, which equals the pipeline's
    // bit for bit: averaged over the same seeds as mine_census.
    AccuracyMean accuracy;
    for (size_t i = 0; i < kAccuracySeeds; ++i) {
      FRAPP_ASSIGN_OR_RETURN(frapp::mining::AprioriResult mined,
                             PipelineMine(DeriveSeed(seed_, 100 + i)));
      accuracy.Add(truth, mined);
    }
    return accuracy.Mean();
  }

  OpResult RunOp(size_t, LayerSample* sample) override {
    const size_t k = next_seed_++ % perturb_seeds_.size();
    const uint64_t start = frapp::common::NowNanos();
    StatusOr<frapp::mining::AprioriResult> mined = Mine(perturb_seeds_[k], sample);
    OpResult op;
    op.latency_ms = MillisSince(start);
    op.ok = mined.ok() && SameMined(*mined, references_[k]);
    return op;
  }

  std::vector<std::string> AdditiveLayers() const override {
    return {"dist.connect_ms", "dist.count_ms", "mining.walk_ms",
            "dist.shutdown_ms"};
  }

 private:
  /// One coordinator session under `perturb_seed`; a non-null `sample`
  /// times its stages.
  StatusOr<frapp::mining::AprioriResult> Mine(uint64_t perturb_seed,
                                              LayerSample* sample) {
    LayerSample untraced;
    LayerSample& s = sample == nullptr ? untraced : *sample;
    uint64_t stage = frapp::common::NowNanos();
    std::vector<std::unique_ptr<frapp::dist::Transport>> transports;
    for (auto& host : workers_) {
      FRAPP_ASSIGN_OR_RETURN(
          std::unique_ptr<frapp::dist::Transport> transport,
          frapp::dist::TcpConnect("127.0.0.1", host->listener->port()));
      transports.push_back(std::move(transport));
    }
    frapp::dist::CoordinatorOptions options = coordinator_options_;
    options.perturb_seed = perturb_seed;
    FRAPP_ASSIGN_OR_RETURN(
        std::unique_ptr<frapp::dist::Coordinator> coordinator,
        frapp::dist::Coordinator::Connect(std::move(transports),
                                          table_->schema(), spec_, kRows,
                                          options));
    s["dist.connect_ms"] = MillisSince(stage);

    StatusOr<frapp::mining::AprioriResult> mined =
        sample == nullptr ? coordinator->Mine(mining_)
                          : TracedMine(*coordinator, sample);
    stage = frapp::common::NowNanos();
    coordinator->Shutdown();
    s["dist.shutdown_ms"] = MillisSince(stage);
    return mined;
  }

  /// Coordinator::Mine is MineFrequentItemsets over MakeEstimator(): the
  /// same calls, with the distributed estimator timed.
  StatusOr<frapp::mining::AprioriResult> TracedMine(
      frapp::dist::Coordinator& coordinator, LayerSample* sample) const {
    LayerSample& s = *sample;
    FRAPP_ASSIGN_OR_RETURN(
        std::unique_ptr<frapp::dist::DistributedSupportEstimator> inner,
        coordinator.MakeEstimator());
    TimingSupportEstimator estimator(std::move(inner), "dist.count_ms", sample);
    const uint64_t start = frapp::common::NowNanos();
    StatusOr<frapp::mining::AprioriResult> mined =
        frapp::mining::MineFrequentItemsets(table_->schema(), estimator, mining_);
    s["mining.walk_ms"] = MillisSince(start) - s["dist.count_ms"];
    const frapp::dist::DistStats stats = coordinator.stats();
    s["dist.merge_ms"] = static_cast<double>(stats.merge_nanos) / 1e6;
    s["dist.bytes_per_op"] =
        static_cast<double>(stats.bytes_sent + stats.bytes_received);
    s["dist.requests_per_op"] = static_cast<double>(stats.requests_sent);
    s["dist.retries"] =
        static_cast<double>(stats.deadline_retries + stats.rounds_restarted);
    if (mined.ok()) AddMiningCounts(*mined, sample);
    return mined;
  }

  StatusOr<frapp::mining::AprioriResult> PipelineMine(uint64_t perturb_seed) const {
    FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<frapp::core::Mechanism> mechanism,
                           frapp::dist::MakeMechanism(spec_, table_->schema()));
    frapp::pipeline::PipelineOptions options;
    options.perturb_seed = perturb_seed;
    options.mining = mining_;
    FRAPP_ASSIGN_OR_RETURN(
        frapp::pipeline::PipelineResult result,
        frapp::pipeline::PrivacyPipeline(options).Run(*mechanism, *table_));
    return std::move(result.mined);
  }

  const uint64_t seed_;
  const std::vector<uint64_t> perturb_seeds_;
  const frapp::dist::MechanismSpec spec_;  // DET-GD, gamma = 19
  frapp::dist::CoordinatorOptions coordinator_options_;
  frapp::mining::AprioriOptions mining_;
  std::optional<frapp::data::CategoricalTable> table_;
  std::vector<std::unique_ptr<WorkerHost>> workers_;
  /// The answer of each perturbation seed.
  std::vector<frapp::mining::AprioriResult> references_;
  size_t next_seed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeDistWarm(const RunOptions& options) {
  return std::make_unique<DistWarm>(options);
}

}  // namespace perfbench
