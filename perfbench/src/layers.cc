#include "layers.h"

#include <utility>

#include "frapp/common/clock.h"
#include "frapp/data/sharded_table.h"
#include "frapp/mining/sharded_vertical_index.h"
#include "frapp/mining/vertical_index.h"

namespace perfbench {

using frapp::Status;
using frapp::StatusOr;
using frapp::common::NowNanos;

const std::vector<MetricSpec>& LayerMetricSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"core.mechanism_create_ms", "ms"},
      {"core.perturb_ms", "ms"},
      {"mining.index_ms", "ms"},
      {"mining.count_ms", "ms"},
      // One per Apriori level: CENSUS has six attributes, so no itemset is
      // longer than six.
      {"mining.count_ms.L1", "ms"},
      {"mining.count_ms.L2", "ms"},
      {"mining.count_ms.L3", "ms"},
      {"mining.count_ms.L4", "ms"},
      {"mining.count_ms.L5", "ms"},
      {"mining.count_ms.L6", "ms"},
      {"core.reconstruct_ms", "ms"},
      {"mining.walk_ms", "ms"},
      {"mining.candidates", "count"},
      {"mining.frequent", "count"},
      {"pipeline.other_ms", "ms"},
      {"data.append_ms", "ms"},
      {"data.ingest_ms", "ms"},
      {"store.load_ms", "ms"},
      {"store.mine_ms", "ms"},
      {"store.save_ms", "ms"},
      {"store.delta_chunks", "count"},
      {"store.expired_chunks", "count"},
      {"store.hit_ratio", "ratio"},
      {"store.fallbacks", "count"},
      {"store.file_mib", "MiB"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.coalesced_ratio", "ratio"},
      {"serve.store_hit_ratio", "ratio"},
      {"serve.cold_ratio", "ratio"},
      {"serve.mine_runs", "1/query"},
      {"serve.evictions", "1/query"},
      {"serve.hit_p50_ms", "ms"},
      {"serve.miss_p50_ms", "ms"},
      {"serve.server_ms", "ms"},
      {"wire.rtt_ms", "ms"},
      {"dist.connect_ms", "ms"},
      {"dist.count_ms", "ms"},
      {"dist.merge_ms", "ms"},
      {"dist.shutdown_ms", "ms"},
      {"dist.bytes_per_op", "B"},
      {"dist.requests_per_op", "count"},
      {"dist.retries", "count"},
      {"op_p99_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"host.probe_us", "us"},
      {"host.probe_swing_pct", "%"},
  };
  return specs;
}

void AddMiningCounts(const frapp::mining::AprioriResult& mined,
                     LayerSample* sample) {
  for (const size_t candidates : mined.candidates_per_pass) {
    (*sample)["mining.candidates"] += static_cast<double>(candidates);
  }
  (*sample)["mining.frequent"] += static_cast<double>(mined.TotalFrequent());
}

double MillisSince(uint64_t start_nanos) {
  return static_cast<double>(NowNanos() - start_nanos) / 1e6;
}

StatusOr<std::vector<uint64_t>> TimingSupportCountSource::CountSupports(
    const std::vector<frapp::mining::Itemset>& itemsets) {
  const uint64_t start = NowNanos();
  StatusOr<std::vector<uint64_t>> counts = inner_->CountSupports(itemsets);
  const double ms = MillisSince(start);
  LayerSample& sample = *sample_;
  sample["mining.count_ms"] += ms;
  if (!itemsets.empty()) {
    sample["mining.count_ms.L" + std::to_string(itemsets.front().size())] += ms;
  }
  return counts;
}

StatusOr<double> TimingSupportEstimator::EstimateSupport(
    const frapp::mining::Itemset& itemset) {
  const uint64_t start = NowNanos();
  StatusOr<double> estimate = inner_->EstimateSupport(itemset);
  (*sample_)[metric_] += MillisSince(start);
  return estimate;
}

StatusOr<std::vector<double>> TimingSupportEstimator::EstimateSupports(
    const std::vector<frapp::mining::Itemset>& itemsets) {
  const uint64_t start = NowNanos();
  StatusOr<std::vector<double>> estimates = inner_->EstimateSupports(itemsets);
  (*sample_)[metric_] += MillisSince(start);
  return estimates;
}

StatusOr<bool> TimingTableSource::NextShard(frapp::pipeline::PulledShard* out) {
  const uint64_t start = NowNanos();
  StatusOr<bool> more = inner_->NextShard(out);
  (*sample_)["data.ingest_ms"] += MillisSince(start);
  return more;
}

Status TimingTableSource::SkipToRow(size_t row) {
  const uint64_t start = NowNanos();
  Status status = inner_->SkipToRow(row);
  (*sample_)["data.ingest_ms"] += MillisSince(start);
  return status;
}

StatusOr<frapp::mining::AprioriResult> TracedCategoricalMine(
    const frapp::dist::MechanismSpec& spec,
    const frapp::data::CategoricalTable& table,
    const frapp::pipeline::PipelineOptions& options, LayerSample* sample) {
  if (options.num_shards != 1 || options.prefetch_source) {
    return Status::InvalidArgument(
        "the traced mine replays only the one-shard, unprefetched pipeline");
  }
  LayerSample& s = *sample;
  uint64_t start = NowNanos();
  FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<frapp::core::Mechanism> mechanism,
                         frapp::dist::MakeMechanism(spec, table.schema()));
  s["core.mechanism_create_ms"] += MillisSince(start);
  if (mechanism->shard_kind() !=
      frapp::core::Mechanism::ShardKind::kCategorical) {
    return Status::InvalidArgument("the traced mine is categorical only");
  }

  const frapp::data::ShardView whole{&table, {0, table.num_rows()}, 0};
  start = NowNanos();
  FRAPP_ASSIGN_OR_RETURN(
      frapp::data::CategoricalTable perturbed,
      mechanism->PerturbShard(whole, options.perturb_seed, options.num_threads));
  s["core.perturb_ms"] += MillisSince(start);

  start = NowNanos();
  std::vector<frapp::mining::VerticalIndex> shards;
  shards.push_back(
      frapp::mining::VerticalIndex::Build(perturbed, options.num_threads));
  auto counts = std::make_shared<TimingSupportCountSource>(
      std::make_shared<frapp::mining::LocalSupportCountSource>(
          frapp::mining::ShardedVerticalIndex::FromShards(std::move(shards)),
          options.num_threads),
      sample);
  s["mining.index_ms"] += MillisSince(start);

  // Estimator construction and every estimate call minus the counting
  // inside them is reconstruction; the rest of the mine is the walk.
  start = NowNanos();
  FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<frapp::mining::SupportEstimator> inner,
                         mechanism->MakeCountSourceEstimator(counts));
  const double construct_ms = MillisSince(start);
  LayerSample estimates;
  TimingSupportEstimator estimator(std::move(inner), "estimate_ms", &estimates);
  const double count_before = s["mining.count_ms"];

  start = NowNanos();
  StatusOr<frapp::mining::AprioriResult> mined =
      frapp::mining::MineFrequentItemsets(table.schema(), estimator,
                                          options.mining);
  const double mine_ms = MillisSince(start);
  const double estimate_ms = estimates["estimate_ms"];
  s["core.reconstruct_ms"] +=
      construct_ms + estimate_ms - (s["mining.count_ms"] - count_before);
  s["mining.walk_ms"] += mine_ms - estimate_ms;
  if (mined.ok()) AddMiningCounts(*mined, sample);
  return mined;
}

}  // namespace perfbench
