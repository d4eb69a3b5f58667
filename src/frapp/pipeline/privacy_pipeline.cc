#include "frapp/pipeline/privacy_pipeline.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "frapp/common/clock.h"
#include "frapp/common/parallel.h"
#include "frapp/data/sharded_boolean_vertical_index.h"
#include "frapp/mining/sharded_vertical_index.h"
#include "frapp/mining/vertical_index.h"
#include "frapp/pipeline/prefetching_table_source.h"

namespace frapp {
namespace pipeline {

namespace {

/// Raises `peak` to at least `value` (relaxed CAS loop).
void RaiseToAtLeast(std::atomic<size_t>& peak, size_t value) {
  size_t observed = peak.load(std::memory_order_relaxed);
  while (observed < value &&
         !peak.compare_exchange_weak(observed, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

StatusOr<PipelineResult> PrivacyPipeline::Run(
    core::Mechanism& mechanism, const data::CategoricalTable& original) const {
  InMemoryTableSource source(original, options_.num_shards);
  return Run(mechanism, source);
}

StatusOr<PipelineResult> PrivacyPipeline::Run(core::Mechanism& mechanism,
                                              TableSource& source) const {
  // One-way enable, applied before any pool worker spawns for this run; see
  // the PipelineOptions::pin_threads doc for the stickiness caveat.
  if (options_.pin_threads) {
    common::ThreadPool::Shared().SetPinPhysicalCores(true);
  }
  if (options_.prefetch_source) {
    // Wrap the caller's source in the parser-thread decorator for the
    // duration of this run. Order is preserved, so the result is
    // bit-identical to the unprefetched pull — only the parse/compute
    // overlap (and the stats describing it) change.
    PrefetchingTableSource prefetched(source, options_.prefetch_shards,
                                      options_.prefetch_parsers);
    PipelineOptions inner_options = options_;
    inner_options.prefetch_source = false;
    FRAPP_ASSIGN_OR_RETURN(
        PipelineResult result,
        PrivacyPipeline(inner_options).Run(mechanism, prefetched));
    result.stats.producer_parse_nanos =
        prefetched.producer_stats().parse_nanos;
    return result;
  }
  if (!mechanism.SupportsShardStreaming()) {
    return Status::Unimplemented(
        mechanism.name() +
        " does not implement the shard-streaming contract; every pipeline "
        "mechanism must (there is no monolithic fallback)");
  }
  PipelineResult result;
  const bool boolean_shards =
      mechanism.shard_kind() == core::Mechanism::ShardKind::kBoolean;
  // Perturbed bytes of a shard: eight per one-hot row, or the bitmap planes
  // a categorical shard is perturbed straight into (one uint64_t per 64 rows
  // per item).
  const size_t total_categories = source.schema().TotalCategories();
  const auto perturbed_bytes = [&](size_t rows) {
    return boolean_shards
               ? rows * sizeof(uint64_t)
               : total_categories * ((rows + 63) / 64) * sizeof(uint64_t);
  };

  // Stream the source in batches of up to `batch` shards: shards are pulled
  // sequentially (sources are single-threaded parsers/generators), then each
  // batch fans perturbation out over the workers. A categorical task
  // perturbs its shard straight into the bitmap planes of its local
  // vertical index; a boolean task perturbs one-hot rows and indexes them.
  // Either drops the perturbed rows and (for streaming sources) the input
  // buffer before returning, so at most one batch of shards is ever being
  // perturbed at once. Every task is a pure function of its shard's global
  // position (global seeded-chunk RNG streams) and counts merge as integer
  // sums, so the result is bit-identical for any source kind, shard count
  // and thread count.
  std::vector<mining::VerticalIndex> cat_indexes;
  std::vector<data::BooleanVerticalIndex> bool_indexes;
  std::atomic<size_t> inflight_bytes{0};
  std::atomic<size_t> peak_bytes{0};
  const size_t batch = std::max<size_t>(
      1, common::ResolveThreadCount(options_.num_threads));
  std::vector<PulledShard> pending;
  pending.reserve(batch);
  bool exhausted = false;
  while (!exhausted) {
    pending.clear();
    while (pending.size() < batch) {
      PulledShard shard;
      const uint64_t pull_start = common::NowNanos();
      StatusOr<bool> more = source.NextShard(&shard);
      result.stats.source_wait_nanos += common::NowNanos() - pull_start;
      FRAPP_RETURN_IF_ERROR(more.status());
      if (!*more) {
        exhausted = true;
        break;
      }
      if (shard.view.size() == 0) continue;
      pending.push_back(std::move(shard));
    }
    if (pending.empty()) break;

    const size_t base = boolean_shards ? bool_indexes.size() : cat_indexes.size();
    if (boolean_shards) {
      bool_indexes.resize(base + pending.size());
    } else {
      cat_indexes.resize(base + pending.size());
    }
    std::vector<Status> statuses(pending.size());
    // With several shards in the batch the outer dispatch occupies the
    // pool's single job slot, so nested parallel calls would run inline
    // anyway — give shard tasks one thread. A one-shard batch runs inline at
    // the outer level instead, so the full thread budget flows into the
    // shard's own chunk-parallel perturbation.
    const size_t inner_threads =
        pending.size() == 1 ? options_.num_threads : 1;
    common::ParallelForChunks(
        pending.size(), options_.num_threads, [&](size_t i) {
          PulledShard& shard = pending[i];
          // In flight from the shard's first perturbed byte until its task
          // hands over the index.
          const size_t shard_bytes = perturbed_bytes(shard.view.size());
          RaiseToAtLeast(peak_bytes,
                         inflight_bytes.fetch_add(shard_bytes,
                                                  std::memory_order_relaxed) +
                             shard_bytes);
          if (boolean_shards) {
            StatusOr<data::BooleanTable> perturbed = mechanism.PerturbBooleanShard(
                shard.view, options_.perturb_seed, inner_threads);
            shard.owned.reset();  // source buffer dropped once perturbed
            if (perturbed.ok()) {
              bool_indexes[base + i] = data::BooleanVerticalIndex(*perturbed);
            } else {
              statuses[i] = perturbed.status();
            }  // the perturbed one-hot rows are dropped here
          } else {
            StatusOr<mining::VerticalIndex> index = mechanism.PerturbShardIndex(
                shard.view, options_.perturb_seed, inner_threads);
            shard.owned.reset();
            if (index.ok()) {
              cat_indexes[base + i] = *std::move(index);
            } else {
              statuses[i] = index.status();
            }
          }
          inflight_bytes.fetch_sub(shard_bytes, std::memory_order_relaxed);
        });
    for (size_t i = 0; i < pending.size(); ++i) {
      FRAPP_RETURN_IF_ERROR(statuses[i]);
      result.stats.max_shard_rows =
          std::max(result.stats.max_shard_rows, pending[i].view.size());
      result.stats.total_rows += pending[i].view.size();
      ++result.stats.num_shards;
    }
  }

  std::unique_ptr<mining::SupportEstimator> estimator;
  if (boolean_shards) {
    FRAPP_ASSIGN_OR_RETURN(
        estimator, mechanism.MakeShardedBooleanEstimator(
                       data::ShardedBooleanVerticalIndex::FromShards(
                           std::move(bool_indexes)),
                       options_.num_threads));
  } else {
    FRAPP_ASSIGN_OR_RETURN(
        estimator, mechanism.MakeShardedEstimator(
                       mining::ShardedVerticalIndex::FromShards(
                           std::move(cat_indexes)),
                       options_.num_threads));
  }
  FRAPP_ASSIGN_OR_RETURN(
      result.mined, mining::MineFrequentItemsets(source.schema(), *estimator,
                                                 options_.mining));
  result.stats.peak_inflight_perturbed_bytes =
      peak_bytes.load(std::memory_order_relaxed);
  return result;
}

}  // namespace pipeline
}  // namespace frapp
