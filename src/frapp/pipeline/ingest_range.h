// IngestRange: the one client-side ingest step of every engine.
//
// FRAPP perturbs every record independently, so each engine's client side
// is the same step: pull the rows [begin, end) of a TableSource on the
// seeded-chunk grid, perturb them and index them. The pipeline, the count
// store and the dist worker differ only in what they do with one shard (the
// index function) and in where they count afterwards. IngestRange owns
// everything else: the chunk-aligned start and SkipToRow, pull timing,
// cutting shards to the range, the batched fan-out over the thread pool,
// dropping each source buffer once its shard is indexed, and appending the
// results in global row order.
//
// Every shard keeps its GLOBAL row position, so the seeded-chunk streams,
// and with them the perturbed bits, are the same for any source, shard size,
// range split and thread count.

#ifndef FRAPP_PIPELINE_INGEST_RANGE_H_
#define FRAPP_PIPELINE_INGEST_RANGE_H_

#include <cstdint>
#include <functional>
#include <limits>

#include "frapp/common/statusor.h"
#include "frapp/core/mechanism.h"
#include "frapp/data/sharded_table.h"
#include "frapp/pipeline/table_source.h"

namespace frapp {
namespace pipeline {

/// A range end meaning "to the end of the stream".
inline constexpr size_t kOpenEnd = std::numeric_limits<size_t>::max();

/// Indexes one non-empty, chunk-aligned shard into `out`, perturbing on
/// `num_threads` threads. Called concurrently for distinct shards, each
/// with its own `out`.
using IndexFn = std::function<Status(const data::ShardView& shard,
                                     size_t num_threads,
                                     core::ShardIndexes& out)>;

/// What one ingest pulled.
struct IngestStats {
  /// Shards indexed (after cutting to the range; empty ones skipped).
  size_t num_shards = 0;

  /// Rows indexed.
  size_t total_rows = 0;

  /// Rows of the largest indexed shard.
  size_t max_shard_rows = 0;

  /// How far the stream reaches: one past the last row the source yielded,
  /// capped at the range end; 0 when it yielded none. Below the range
  /// begin when the stream ends before the range, which is how a caller
  /// learns the row count of a stream that does not know it up front.
  size_t end_row = 0;

  /// Nanoseconds blocked in TableSource::NextShard.
  uint64_t source_wait_nanos = 0;
};

struct IngestResult {
  /// Per-shard indexes in global row order.
  core::ShardIndexes indexes;
  IngestStats stats;
};

/// Indexes the rows of `range` (end may be kOpenEnd) that `source` yields,
/// through `index_fn`, in batches of up to `num_threads` shards (0 =
/// hardware concurrency). A one-shard batch hands the whole thread budget
/// to that shard; a wider batch gives each shard one thread.
///
/// Fails with InvalidArgument when `range.begin` is not a multiple of the
/// chunk quantum, and with FailedPrecondition when the source yields a
/// shard after one that ends off the chunk grid (only the stream's last
/// shard may). The source's own errors and the first failing `index_fn`
/// status pass through.
StatusOr<IngestResult> IngestRange(TableSource& source, data::RowRange range,
                                   size_t num_threads,
                                   const IndexFn& index_fn);

}  // namespace pipeline
}  // namespace frapp

#endif  // FRAPP_PIPELINE_INGEST_RANGE_H_
