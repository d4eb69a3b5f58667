// The shard-streaming privacy pipeline: one API for the whole
// perturb -> index -> count -> reconstruct -> mine flow.
//
// FRAPP's guarantees are per-record, so the pipeline pulls chunk-aligned row
// shards from a TableSource (in-memory table, chunked CSV stream, or
// synthetic generator — see table_source.h) and streams each shard through
// client-side perturbation into its vertical index: categorical shards are
// perturbed straight into bitmap planes, one-hot boolean shards are indexed
// and dropped. A streaming source's input rows are dropped the moment their
// shard is perturbed, so peak memory is O(in-flight shards x shard), never
// O(table). Mining then runs over the merged per-shard indexes with
// shard-parallel candidate counting. Because perturbation draws global
// seeded-chunk RNG streams and support counts are integer sums, the mined
// result is BIT-IDENTICAL for every (source kind, shard count, thread count)
// combination — parallelism and memory bounds are free of accuracy
// semantics.
//
// Every mechanism streams: DET-GD, RAN-GD and IND-GD as categorical shards
// counted by mining::ShardedVerticalIndex, MASK and C&P as one-hot boolean
// shards counted by data::ShardedBooleanVerticalIndex (the superset Mobius
// transform commutes with the row partition).
//
// Ingest can be pipelined: with PipelineOptions::prefetch_source the source
// is pulled through a PrefetchingTableSource producer thread, so the next
// shard parses while the workers perturb the current batch (see
// prefetching_table_source.h). PipelineStats reports where the ingest time
// went (source_wait_nanos on the critical path vs producer_parse_nanos
// overlapped).

#ifndef FRAPP_PIPELINE_PRIVACY_PIPELINE_H_
#define FRAPP_PIPELINE_PRIVACY_PIPELINE_H_

#include <cstdint>

#include "frapp/common/statusor.h"
#include "frapp/core/mechanism.h"
#include "frapp/data/sharded_table.h"
#include "frapp/data/table.h"
#include "frapp/mining/apriori.h"
#include "frapp/pipeline/table_source.h"

namespace frapp {
namespace pipeline {

struct PipelineOptions {
  /// Row shards to stream for IN-MEMORY inputs (clamped to the number of
  /// seeded-chunk quanta; 0 = one shard per quantum). Streaming sources
  /// bring their own shard size instead. One shard reproduces the
  /// monolithic pass.
  size_t num_shards = 1;

  /// Worker threads for shard perturbation/indexing and for every
  /// candidate-counting pass (0 = hardware concurrency). Never affects
  /// results.
  size_t num_threads = 1;

  /// Master seed of the deterministic perturbation.
  uint64_t perturb_seed = 7;

  /// When true, the source is pulled through a PrefetchingTableSource: a
  /// dedicated producer thread parses/generates the next shard(s) while the
  /// worker pool perturbs and indexes the current batch, hiding ingest
  /// latency behind compute. Order-preserving, so it NEVER affects results
  /// — only where the parse time goes (see PipelineStats).
  bool prefetch_source = false;

  /// Bounded prefetch queue depth in shards (floored at 1, and at the
  /// resolved parser count): how far the producer may run ahead, and
  /// therefore how many extra source-side shard buffers prefetching can
  /// hold alive. Only read when prefetch_source.
  size_t prefetch_shards = 2;

  /// Parser threads behind prefetch_source (0 = one per detected physical
  /// core). More than one engages the source's parse-parallel split when it
  /// has one (CSV raw-read + concurrent decode; see
  /// PrefetchingTableSource); sources without the split are clamped to one
  /// parser. Order-preserving either way — never affects results.
  size_t prefetch_parsers = 0;

  /// When true, Run pins the shared ThreadPool's workers one-per-physical-
  /// core before streaming (common::ThreadPool::SetPinPhysicalCores): the
  /// counting folds are memory-bound, so SMT siblings sharing a core mostly
  /// contend. The pool is process-wide, so the pin STAYS in effect after
  /// Run returns (it is never auto-disabled — scheduling only, results are
  /// bit-identical either way).
  bool pin_threads = false;

  /// Mining parameters (threshold, length cap).
  mining::AprioriOptions mining;
};

/// Observability of one pipeline run.
struct PipelineStats {
  /// Shards actually streamed.
  size_t num_shards = 0;

  /// Total rows pulled from the source.
  size_t total_rows = 0;

  /// Rows of the largest shard: the per-shard work/memory unit.
  size_t max_shard_rows = 0;

  /// High-water mark of perturbed-shard bytes alive at once, bounded by
  /// (in-flight shards <= threads) x shard bytes. Categorical shards are
  /// perturbed straight into bitmap planes and count those planes' bytes
  /// (one uint64_t per 64 rows per item); boolean (one-hot) shards count
  /// eight bytes per perturbed row.
  size_t peak_inflight_perturbed_bytes = 0;

  /// Nanoseconds the pipeline's pull loop spent blocked in
  /// TableSource::NextShard. Without prefetch this IS the ingest cost on
  /// the critical path; with prefetch it is only the residual latency the
  /// producer failed to hide.
  uint64_t source_wait_nanos = 0;

  /// Nanoseconds the prefetch producer spent inside the inner source —
  /// parse/generate work overlapped with perturb/count compute. 0 when
  /// prefetch_source is off. (producer_parse_nanos - source_wait_nanos is
  /// roughly the ingest latency prefetching hid.)
  uint64_t producer_parse_nanos = 0;
};

struct PipelineResult {
  mining::AprioriResult mined;
  PipelineStats stats;
};

/// Runs the full privacy-preserving mining flow for one mechanism.
///
/// The pipeline object itself is immutable configuration; each Run call is
/// self-contained. One Run streams from one thread (plus the worker pool it
/// fans out on, plus the prefetch producer when enabled) — callers must not
/// share a TableSource between concurrent Run calls, since sources are
/// single-producer by contract.
class PrivacyPipeline {
 public:
  explicit PrivacyPipeline(PipelineOptions options) : options_(options) {}

  const PipelineOptions& options() const { return options_; }

  /// Streams `source`'s shards through core::PerturbIntoIndex, then mines
  /// with the mechanism's reconstructing estimator over the merged indexes.
  /// The mechanism holds no per-run state. With options().prefetch_source the
  /// source is driven from a producer thread for the duration of the call
  /// (it is back under the caller's control when Run returns).
  StatusOr<PipelineResult> Run(core::Mechanism& mechanism,
                               TableSource& source) const;

  /// Convenience: streams an in-memory table through options().num_shards
  /// shards.
  StatusOr<PipelineResult> Run(core::Mechanism& mechanism,
                               const data::CategoricalTable& original) const;

 private:
  PipelineOptions options_;
};

}  // namespace pipeline
}  // namespace frapp

#endif  // FRAPP_PIPELINE_PRIVACY_PIPELINE_H_
