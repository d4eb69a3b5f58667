#include "frapp/pipeline/privacy_pipeline.h"

#include <atomic>
#include <memory>
#include <optional>
#include <utility>

#include "frapp/common/parallel.h"
#include "frapp/mining/count_source.h"
#include "frapp/pipeline/ingest_range.h"
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
  // The parser-thread decorator is order-preserving, so the result is
  // bit-identical to the unprefetched pull; only the parse/compute overlap
  // (and the stats describing it) change.
  std::optional<PrefetchingTableSource> prefetched;
  if (options_.prefetch_source) {
    prefetched.emplace(source, options_.prefetch_shards,
                       options_.prefetch_parsers);
  }
  PipelineResult result;
  // Perturbed bytes of a shard: the bitmap planes it is perturbed straight
  // into, one uint64_t per 64 rows per item.
  const size_t total_categories = source.schema().TotalCategories();
  const auto perturbed_bytes = [&](size_t rows) {
    return total_categories * ((rows + 63) / 64) * sizeof(uint64_t);
  };
  // A shard is in flight from its first perturbed byte until its index is
  // handed over.
  std::atomic<size_t> inflight_bytes{0};
  std::atomic<size_t> peak_bytes{0};
  const IndexFn perturb = [&](const data::ShardView& shard,
                              size_t num_threads, core::ShardIndexes& out) {
    const size_t shard_bytes = perturbed_bytes(shard.size());
    RaiseToAtLeast(peak_bytes,
                   inflight_bytes.fetch_add(shard_bytes,
                                            std::memory_order_relaxed) +
                       shard_bytes);
    const Status status = core::PerturbIntoIndex(
        mechanism, shard, options_.perturb_seed, num_threads, out);
    inflight_bytes.fetch_sub(shard_bytes, std::memory_order_relaxed);
    return status;
  };
  FRAPP_ASSIGN_OR_RETURN(
      IngestResult ingest,
      IngestRange(prefetched ? *prefetched : source, {0, kOpenEnd},
                  options_.num_threads, perturb));
  if (prefetched) {
    result.stats.producer_parse_nanos =
        prefetched->producer_stats().parse_nanos;
  }
  result.stats.num_shards = ingest.stats.num_shards;
  result.stats.total_rows = ingest.stats.total_rows;
  result.stats.max_shard_rows = ingest.stats.max_shard_rows;
  result.stats.source_wait_nanos = ingest.stats.source_wait_nanos;

  FRAPP_ASSIGN_OR_RETURN(
      const std::unique_ptr<mining::SupportEstimator> estimator,
      mechanism.MakeCountSourceEstimator(
          std::make_shared<mining::LocalSupportCountSource>(
              mining::ShardedVerticalIndex::FromShards(
                  std::move(ingest.indexes.shards)),
              options_.num_threads)));
  FRAPP_ASSIGN_OR_RETURN(
      result.mined, mining::MineFrequentItemsets(source.schema(), *estimator,
                                                 options_.mining));
  result.stats.peak_inflight_perturbed_bytes =
      peak_bytes.load(std::memory_order_relaxed);
  return result;
}

}  // namespace pipeline
}  // namespace frapp
