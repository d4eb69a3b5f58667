// append_window: the `frapp append` + `frapp mine --count-store` flow for
// MASK, one closed-loop client. Each operation appends one 8192-row chunk
// to a FRAPPBIN table with data::AppendBinaryTable, slides a 6-chunk window
// forward by one chunk, and runs LoadOrCreateStore -> AppendAndMine ->
// CountStore::SaveToFile. Only one chunk is perturbed and one expired, so the
// store and the lattice walk dominate: the store's write path on the
// boolean (one-hot) mechanism path.
//
// The table grows by a chunk per operation, so every 32 operations an
// episode ends and the next starts from a fresh 6-chunk file and a warmed
// store, in BeforeOp: out of both latency and throughput. Appended chunk k
// is chunk k mod 16 of a seeded 16-chunk CENSUS pool, so every episode
// replays the same windows; the episodes cycle through the run's
// kPerturbSeeds perturbation seeds.
//
// The process runs on one CPU (PinToCpus). In eight interleaved pairs of
// 10 s runs, op p50 spread 0.08 and throughput 0.09 (quartile distance
// over median) pinned, 0.21 and 0.22 unpinned.

#include <unistd.h>

#include <array>
#include <cstring>
#include <filesystem>
#include <optional>
#include <vector>

#include "frapp/common/clock.h"
#include "frapp/data/census.h"
#include "frapp/data/shard_io.h"
#include "frapp/data/sharded_table.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "frapp/store/incremental_mine.h"
#include "workloads_common.h"

namespace perfbench {

namespace {

using frapp::Status;
using frapp::StatusOr;
using frapp::data::CategoricalTable;

constexpr size_t kChunk = frapp::data::kShardAlignmentRows;
constexpr size_t kWindowChunks = 6;
constexpr size_t kPoolChunks = 16;
constexpr size_t kEpisodeOps = 32;
/// Operations (index within the episode) whose answers are compared with a
/// from-scratch mine of the same window; the others are checked for an OK
/// status.
constexpr std::array<size_t, 4> kCheckedOps = {3, 11, 19, 27};

class AppendWindow : public Workload {
 public:
  explicit AppendWindow(const RunOptions& options)
      : seed_(options.seed),
        perturb_seeds_(PerturbSeeds(options.seed)),
        dir_(options.work_dir + "/append-" + std::to_string(::getpid())),
        table_path_(dir_ + "/census.bin"),
        store_path_(dir_ + "/census.frappcnt") {
    spec_.kind = frapp::dist::MechanismSpec::Kind::kMask;
    inc_.mining.min_support = 0.02;
    inc_.num_threads = 1;
    inc_.source_id = "perfbench:append_window";
    PinToCpus(1, 1);  // see the file comment
  }

  ~AppendWindow() override { Teardown(); }

  Status Setup() override {
    std::error_code error;
    std::filesystem::create_directories(dir_, error);
    if (error) return Status::IOError("cannot create " + dir_);
    FRAPP_ASSIGN_OR_RETURN(
        CategoricalTable pool,
        frapp::data::census::MakeDataset(kPoolChunks * kChunk));
    pool_.emplace(std::move(pool));
    chunks_.clear();
    for (size_t c = 0; c < kPoolChunks; ++c) {
      FRAPP_ASSIGN_OR_RETURN(
          CategoricalTable chunk,
          frapp::data::CopyRowRange(*pool_, {c * kChunk, (c + 1) * kChunk}));
      chunks_.push_back(std::move(chunk));
    }
    return StartEpisode();
  }

  void Teardown() override {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
    pool_.reset();
    chunks_.clear();
  }

  StatusOr<Accuracy> Prepare() override {
    references_.assign(perturb_seeds_.size(), {});
    for (size_t i = 0; i < kCheckedOps.size(); ++i) {
      const size_t op = kCheckedOps[i];
      FRAPP_ASSIGN_OR_RETURN(CategoricalTable prefix,
                             StreamPrefix(kWindowChunks + op + 1));
      for (size_t k = 0; k < perturb_seeds_.size(); ++k) {
        FRAPP_ASSIGN_OR_RETURN(references_[k][i],
                               ScratchMine(prefix, (op + 1) * kChunk,
                                           perturb_seeds_[k]));
      }
    }
    FRAPP_ASSIGN_OR_RETURN(CategoricalTable window, StreamPrefix(kWindowChunks));
    FRAPP_ASSIGN_OR_RETURN(frapp::mining::AprioriResult truth,
                           frapp::mining::MineExact(window, inc_.mining));
    AccuracyMean accuracy;
    for (size_t i = 0; i < kAccuracySeeds; ++i) {
      FRAPP_ASSIGN_OR_RETURN(
          frapp::mining::AprioriResult mined,
          ScratchMine(window, 0, DeriveSeed(seed_, 100 + i)));
      accuracy.Add(truth, mined);
    }
    return accuracy.Mean();
  }

  Status BeforeOp(size_t) override {
    return episode_op_ == kEpisodeOps ? StartEpisode() : Status::OK();
  }

  OpResult RunOp(size_t, LayerSample* sample) override {
    OpResult op;
    const size_t j = episode_op_++;
    frapp::store::IncrementalOptions options = inc_;
    options.window_begin_row = (j + 1) * kChunk;
    LayerSample untraced;
    LayerSample& s = sample == nullptr ? untraced : *sample;

    const uint64_t start = frapp::common::NowNanos();
    StatusOr<frapp::store::IncrementalResult> result = [&]()
        -> StatusOr<frapp::store::IncrementalResult> {
      uint64_t stage = frapp::common::NowNanos();
      FRAPP_RETURN_IF_ERROR(frapp::data::AppendBinaryTable(
          chunks_[(kWindowChunks + j) % kPoolChunks], table_path_));
      s["data.append_ms"] = MillisSince(stage);
      stage = frapp::common::NowNanos();
      FRAPP_ASSIGN_OR_RETURN(frapp::store::CountStore store,
                             frapp::store::LoadOrCreateStore(store_path_, identity_));
      s["store.load_ms"] = MillisSince(stage);
      stage = frapp::common::NowNanos();
      FRAPP_ASSIGN_OR_RETURN(
          frapp::store::IncrementalResult mined,
          frapp::store::AppendAndMine(store, spec_, SourceFactory(sample), options));
      s["store.mine_ms"] = MillisSince(stage);
      stage = frapp::common::NowNanos();
      FRAPP_RETURN_IF_ERROR(store.SaveToFile(store_path_));
      s["store.save_ms"] = MillisSince(stage);
      return mined;
    }();
    op.latency_ms = MillisSince(start);
    if (!result.ok()) return op;

    op.ok = true;
    for (size_t i = 0; i < kCheckedOps.size(); ++i) {
      if (kCheckedOps[i] == j) {
        op.ok = SameMined(result->mined, references_[episode_seed_][i]);
      }
    }
    if (sample != nullptr) {
      const frapp::store::IncrementalStats& stats = result->stats;
      s["store.delta_chunks"] = static_cast<double>(stats.delta_chunks);
      s["store.expired_chunks"] = static_cast<double>(stats.expired_chunks);
      s["store.fallbacks"] = static_cast<double>(stats.superset_fallbacks);
      s["store.hit_ratio"] =
          static_cast<double>(stats.store_hits) /
          static_cast<double>(std::max<size_t>(
              stats.store_hits + stats.store_misses, 1));
      std::error_code ignored;
      s["store.file_mib"] =
          static_cast<double>(std::filesystem::file_size(store_path_, ignored)) /
          (1024.0 * 1024.0);
    }
    return op;
  }

  std::vector<std::string> AdditiveLayers() const override {
    return {"data.append_ms", "store.load_ms", "store.mine_ms", "store.save_ms"};
  }

 private:
  /// Opens the growing table; a traced operation times the ingest.
  frapp::store::SourceFactory SourceFactory(LayerSample* sample) const {
    return [this, sample]()
               -> StatusOr<std::unique_ptr<frapp::pipeline::TableSource>> {
      FRAPP_ASSIGN_OR_RETURN(
          frapp::pipeline::BinaryTableSource source,
          frapp::pipeline::BinaryTableSource::Open(table_path_, pool_->schema()));
      std::unique_ptr<frapp::pipeline::TableSource> opened =
          std::make_unique<frapp::pipeline::BinaryTableSource>(std::move(source));
      if (sample == nullptr) return opened;
      return std::unique_ptr<frapp::pipeline::TableSource>(
          std::make_unique<TimingTableSource>(std::move(opened), sample));
    };
  }

  /// Fresh 6-chunk table and a store warmed by one mine of it, under the
  /// next perturbation seed.
  Status StartEpisode() {
    episode_op_ = 0;
    episode_seed_ = episodes_++ % perturb_seeds_.size();
    inc_.perturb_seed = perturb_seeds_[episode_seed_];
    identity_ = frapp::store::MakeStoreIdentity(spec_, pool_->schema(), inc_);
    std::error_code ignored;
    std::filesystem::remove(store_path_, ignored);
    FRAPP_ASSIGN_OR_RETURN(CategoricalTable window, StreamPrefix(kWindowChunks));
    FRAPP_RETURN_IF_ERROR(frapp::data::WriteBinaryTable(window, table_path_));
    FRAPP_ASSIGN_OR_RETURN(frapp::store::CountStore store,
                           frapp::store::LoadOrCreateStore(store_path_, identity_));
    FRAPP_RETURN_IF_ERROR(
        frapp::store::AppendAndMine(store, spec_, SourceFactory(nullptr), inc_)
            .status());
    return store.SaveToFile(store_path_);
  }

  /// Rows [0, num_chunks * kChunk) of the appended stream.
  StatusOr<CategoricalTable> StreamPrefix(size_t num_chunks) const {
    FRAPP_ASSIGN_OR_RETURN(CategoricalTable table,
                           CategoricalTable::Create(pool_->schema()));
    table.AppendZeroRows(num_chunks * kChunk);
    for (size_t a = 0; a < table.num_attributes(); ++a) {
      for (size_t c = 0; c < num_chunks; ++c) {
        std::memcpy(table.MutableColumnData(a) + c * kChunk,
                    pool_->Column(a).data() + (c % kPoolChunks) * kChunk, kChunk);
      }
    }
    return table;
  }

  /// From-scratch pipeline mine of rows [begin_row, end) of `table`.
  StatusOr<frapp::mining::AprioriResult> ScratchMine(
      const CategoricalTable& table, size_t begin_row, uint64_t perturb_seed) const {
    FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<frapp::core::Mechanism> mechanism,
                           frapp::dist::MakeMechanism(spec_, table.schema()));
    frapp::pipeline::InMemoryTableSource source(table, /*num_shards=*/0);
    FRAPP_RETURN_IF_ERROR(source.SkipToRow(begin_row));
    frapp::pipeline::PipelineOptions options;
    options.perturb_seed = perturb_seed;
    options.mining = inc_.mining;
    FRAPP_ASSIGN_OR_RETURN(
        frapp::pipeline::PipelineResult result,
        frapp::pipeline::PrivacyPipeline(options).Run(*mechanism, source));
    return std::move(result.mined);
  }

  const uint64_t seed_;
  const std::vector<uint64_t> perturb_seeds_;
  const std::string dir_;
  const std::string table_path_;
  const std::string store_path_;
  frapp::dist::MechanismSpec spec_;
  frapp::store::IncrementalOptions inc_;
  frapp::store::StoreIdentity identity_;
  std::optional<CategoricalTable> pool_;
  std::vector<CategoricalTable> chunks_;
  size_t episode_op_ = 0;
  size_t episodes_ = 0;
  /// Index of the current episode's perturbation seed.
  size_t episode_seed_ = 0;
  /// references_[k][i]: the answer to checked operation i under
  /// perturbation seed k.
  std::vector<std::array<frapp::mining::AprioriResult, kCheckedOps.size()>>
      references_;
};

}  // namespace

std::unique_ptr<Workload> MakeAppendWindow(const RunOptions& options) {
  return std::make_unique<AppendWindow>(options);
}

}  // namespace perfbench
