#include "frapp/pipeline/ingest_range.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "frapp/common/clock.h"
#include "frapp/common/parallel.h"

namespace frapp {
namespace pipeline {

StatusOr<IngestResult> IngestRange(TableSource& source, data::RowRange range,
                                   size_t num_threads,
                                   const IndexFn& index_fn) {
  constexpr size_t kChunk = data::kShardAlignmentRows;
  if (range.begin % kChunk != 0) {
    return Status::InvalidArgument(
        "ingest range must begin on the chunk quantum (" +
        std::to_string(kChunk) + " rows)");
  }
  // Seekable sources jump straight to the range (binary files seek); the
  // others keep yielding from row 0 and the loop below drops leading rows.
  FRAPP_RETURN_IF_ERROR(source.SkipToRow(range.begin));

  IngestResult result;
  // Shards are pulled sequentially (sources are single-producer), then each
  // batch fans index_fn out over the workers. Each task drops its source
  // buffer once indexed, so at most one batch of shards is in flight.
  const size_t batch =
      std::max<size_t>(1, common::ResolveThreadCount(num_threads));
  std::vector<PulledShard> pending;
  pending.reserve(batch);
  bool exhausted = false;
  bool last_off_grid = false;
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
      const size_t begin = shard.view.global_begin;
      const size_t end = begin + shard.view.size();
      if (begin == end) continue;
      if (last_off_grid) {
        return Status::FailedPrecondition(
            "source yielded a shard at row " + std::to_string(begin) +
            " after one that ends off the chunk grid");
      }
      last_off_grid = end % kChunk != 0;
      result.stats.end_row = std::min(end, range.end);
      if (begin >= range.end) {  // global order: nothing in range follows
        exhausted = true;
        break;
      }
      const size_t lo = std::max(begin, range.begin);
      const size_t hi = std::min(end, range.end);
      if (lo >= hi) continue;  // wholly before the range
      // Both cuts lie on the chunk grid (or at the stream's end), so the
      // slice perturbs on the same global streams as the whole shard.
      shard.view = shard.view.Slice(lo, hi);
      pending.push_back(std::move(shard));
    }
    if (pending.empty()) break;

    std::vector<core::ShardIndexes> built(pending.size());
    std::vector<Status> statuses(pending.size());
    // With several shards in the batch the outer dispatch occupies the
    // pool's single job slot, so nested parallel calls would run inline
    // anyway: give shard tasks one thread. A one-shard batch runs inline at
    // the outer level instead, so the full thread budget flows into the
    // shard's own chunk-parallel perturbation.
    const size_t inner_threads = pending.size() == 1 ? num_threads : 1;
    common::ParallelForChunks(pending.size(), num_threads, [&](size_t i) {
      statuses[i] = index_fn(pending[i].view, inner_threads, built[i]);
      pending[i].owned.reset();  // source buffer dropped once indexed
    });
    for (size_t i = 0; i < pending.size(); ++i) {
      FRAPP_RETURN_IF_ERROR(statuses[i]);
      const data::ShardView& view = pending[i].view;
      result.indexes.Append(std::move(built[i]));
      ++result.stats.num_shards;
      result.stats.total_rows += view.size();
      result.stats.max_shard_rows =
          std::max(result.stats.max_shard_rows, view.size());
    }
  }
  return result;
}

}  // namespace pipeline
}  // namespace frapp
