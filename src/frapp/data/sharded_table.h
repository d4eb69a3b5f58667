// Shard-first view of a CategoricalTable: the unit of work of the parallel
// perturb -> index -> count pipeline.
//
// FRAPP's privacy guarantees are per-record, so the whole pipeline is
// embarrassingly shardable: any contiguous row partition can be perturbed,
// vertically indexed, and support-counted independently, with integer counts
// summed at the end. The ONE constraint is determinism: seeded perturbation
// derives its randomness from fixed-size row chunks (see
// core/seeded_chunking.h), so shard boundaries must fall on chunk boundaries
// for the sharded output to be bit-identical to the monolithic one. This
// header owns that quantum (`kShardAlignmentRows`); the perturbers' chunking
// contract aliases it so the two can never drift apart.

#ifndef FRAPP_DATA_SHARDED_TABLE_H_
#define FRAPP_DATA_SHARDED_TABLE_H_

#include <cstddef>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/data/table.h"

namespace frapp {
namespace data {

/// Row quantum of the seeded determinism contract: seeded perturbation draws
/// one independent RNG stream per `kShardAlignmentRows`-row chunk, so any
/// shard starting on a multiple of this many rows perturbs bit-identically
/// to the same rows inside a monolithic pass.
inline constexpr size_t kShardAlignmentRows = 8192;

/// A contiguous half-open row range [begin, end) of a table.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
  bool operator==(const RowRange& other) const {
    return begin == other.begin && end == other.end;
  }
};

/// One chunk-aligned window of a logical row stream: rows
/// [local.begin, local.end) of *rows hold the stream's global rows
/// [global_begin, global_begin + local.size()).
///
/// This is the unit the streaming pipeline hands to a mechanism's shard
/// perturbation. For an in-memory table the view aliases the parent table
/// (local IS the global range); for a streaming source (CSV, generator) the
/// view covers a small owned buffer whose global position is carried by
/// `global_begin`. Seeded perturbation derives its RNG streams from GLOBAL
/// chunk indices, so the two cases perturb bit-identically.
///
/// Contract: global_begin must be a multiple of kShardAlignmentRows, and
/// local.size() must be a multiple of it too UNLESS this is the stream's
/// final shard (streams may end mid-chunk).
struct ShardView {
  const CategoricalTable* rows = nullptr;
  RowRange local;
  size_t global_begin = 0;

  size_t size() const { return local.size(); }

  /// All of `table` as one shard at global row 0.
  static ShardView Whole(const CategoricalTable& table) {
    return {&table, {0, table.num_rows()}, 0};
  }

  /// Sub-view over this view's GLOBAL rows [gbegin, gend), which must lie
  /// within it. Slicing on the chunk grid is bit-exact: a chunk perturbs
  /// identically whether its shard held one chunk or ten.
  ShardView Slice(size_t gbegin, size_t gend) const {
    return {rows,
            {local.begin + (gbegin - global_begin),
             local.begin + (gend - global_begin)},
            gbegin};
  }
};

/// Fixed partition of a CategoricalTable into contiguous row shards.
///
/// The partition is a pure function of (num_rows, num_shards, alignment) —
/// never of the thread count — which is what makes every sharded pass
/// reproducible. The table is NOT copied; shards are materialized on demand
/// (and can be dropped as soon as they are indexed, bounding peak memory to
/// O(shard) instead of O(table)).
class ShardedTable {
 public:
  /// Shard boundaries for `num_rows` rows split `num_shards` ways, each
  /// boundary a multiple of `alignment` (the last shard absorbs the tail).
  /// Shards are as even as possible in units of alignment quanta; the shard
  /// count is clamped to the number of quanta, so every shard is non-empty.
  /// `num_shards` 0 means one shard per quantum. Empty input -> no shards.
  static std::vector<RowRange> Plan(size_t num_rows, size_t num_shards,
                                    size_t alignment = kShardAlignmentRows);

  /// Partitions `table` (which must outlive the ShardedTable) into
  /// `num_shards` chunk-aligned shards.
  static ShardedTable Create(const CategoricalTable& table, size_t num_shards,
                             size_t alignment = kShardAlignmentRows);

  const CategoricalTable& table() const { return *table_; }
  size_t num_shards() const { return shards_.size(); }
  const RowRange& Range(size_t shard) const { return shards_[shard]; }
  const std::vector<RowRange>& shards() const { return shards_; }

  /// Largest shard, in rows (0 when the table is empty). This is the
  /// pipeline's per-shard memory bound.
  size_t MaxShardRows() const;

  /// Copies shard `shard`'s rows into a standalone table (column-wise
  /// memcpy; the paper's perturb-then-transmit client batch).
  StatusOr<CategoricalTable> MaterializeShard(size_t shard) const;

 private:
  ShardedTable(const CategoricalTable& table, std::vector<RowRange> shards)
      : table_(&table), shards_(std::move(shards)) {}

  const CategoricalTable* table_;
  std::vector<RowRange> shards_;
};

/// Copies rows [range.begin, range.end) of `table` into a fresh table over
/// the same schema (the materialization primitive behind MaterializeShard;
/// the streaming pipeline itself perturbs straight from the parent table
/// and never copies shards).
StatusOr<CategoricalTable> CopyRowRange(const CategoricalTable& table,
                                        const RowRange& range);

}  // namespace data
}  // namespace frapp

#endif  // FRAPP_DATA_SHARDED_TABLE_H_
