// TableSource: where the pipeline's rows come from.
//
// PrivacyPipeline streams chunk-aligned row shards through perturb -> index
// -> count; this abstraction decouples it from WHERE those shards originate,
// so a table never needs to exist fully in memory:
//
//   InMemoryTableSource   zero-copy views into an existing CategoricalTable
//   CsvTableSource        chunked CSV parse (data::ShardedCsvReader) into
//                         short-lived shard buffers
//   BinaryTableSource     pre-tokenized binary shard files
//                         (data::BinaryShardReader) — repeated runs skip
//                         text parsing entirely
//   SyntheticTableSource  chain-generator rows drawn shard by shard from one
//                         persistent RNG stream
//
// Any of them can be wrapped in a PrefetchingTableSource (see
// prefetching_table_source.h) to parse the next shard on a producer thread
// while the pipeline perturbs the current one.
//
// The contract every source upholds (and the pipeline relies on):
//  - NextShard yields shards in global row order, each starting on a
//    seeded-chunk boundary (data::kShardAlignmentRows), with every shard but
//    the last a whole number of chunks — so seeded perturbation of the
//    shards concatenates bit-for-bit to the monolithic pass. The ShardView
//    inside each PulledShard carries that GLOBAL begin row: for streaming
//    sources the buffer is shard-local (local rows [0, n) are global rows
//    [global_begin, global_begin + n)), and seeded perturbation derives its
//    RNG streams from the GLOBAL chunk index, which is why rows perturb
//    bit-identically no matter where they came from;
//  - each PulledShard keeps its own buffer alive (`owned`); once the caller
//    drops it, the rows are gone — which is what bounds peak memory to the
//    shards in flight;
//  - NextShard is pulled by ONE thread at a time (sources are
//    single-producer; they need no internal locking).

#ifndef FRAPP_PIPELINE_TABLE_SOURCE_H_
#define FRAPP_PIPELINE_TABLE_SOURCE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/data/csv.h"
#include "frapp/data/shard_io.h"
#include "frapp/data/sharded_table.h"
#include "frapp/data/synthetic.h"
#include "frapp/data/table.h"
#include "frapp/random/rng.h"

namespace frapp {
namespace pipeline {

/// One shard pulled from a source: a view plus whatever keeps its buffer
/// alive. For in-memory sources `owned` is null (the view aliases the
/// caller's table); for streaming sources it holds the shard's own buffer.
struct PulledShard {
  data::ShardView view;
  std::shared_ptr<const data::CategoricalTable> owned;
};

/// Sequential producer of chunk-aligned row shards.
class TableSource {
 public:
  virtual ~TableSource() = default;

  virtual const data::CategoricalSchema& schema() const = 0;

  /// Fills `*out` with the next shard; returns false once the stream is
  /// exhausted (*out is untouched then). Not thread-safe: the pipeline
  /// pulls from one thread and fans the perturbation out.
  virtual StatusOr<bool> NextShard(PulledShard* out) = 0;

  /// Hint that rows before global row `row` (a chunk-quantum multiple) will
  /// not be consumed. A seekable source repositions so the next NextShard
  /// starts at or before `row` at zero parse cost (binary files seek, an
  /// in-memory plan drops whole leading shards); sources that can only move
  /// forward by producing rows (CSV parse, generator stream) ignore the
  /// hint. Never skips PAST `row`, so a caller that drops leading rows
  /// itself — IngestRange does, for every engine — is correct over every
  /// source and merely faster over seekable ones.
  virtual Status SkipToRow(size_t row) {
    (void)row;
    return Status::OK();
  }

  /// Total rows when known up front (in-memory, synthetic); nullopt for
  /// true streams like CSV, where the row count is known only at the end.
  virtual std::optional<size_t> TotalRows() const { return std::nullopt; }

  /// Parse-parallel support (see PrefetchingTableSource's multi-parser
  /// mode). A source returning true splits NextShard into NextRawShard —
  /// the cheap serial IO half, single-producer like NextShard — and
  /// DecodeRawShard — the expensive decode half, safe to run on any number
  /// of threads for DISTINCT raw shards concurrently. The two-phase stream
  /// must yield exactly the shards NextShard would (same order, same global
  /// begin rows), so parallel decoding can never affect results. Today only
  /// CsvTableSource supports it (text decode dominates its ingest); the raw
  /// unit is a data::RawCsvShard line block.
  virtual bool SupportsParallelDecode() const { return false; }

  /// Pulls the next shard's raw bytes; false once exhausted. Only valid on
  /// sources with SupportsParallelDecode().
  virtual StatusOr<bool> NextRawShard(data::RawCsvShard* out) {
    (void)out;
    return Status::Unimplemented("source does not support parallel decode");
  }

  /// Decodes one raw shard into a delivered shard. Thread-safe for distinct
  /// shards. Only valid on sources with SupportsParallelDecode().
  virtual StatusOr<PulledShard> DecodeRawShard(
      const data::RawCsvShard& raw) const {
    (void)raw;
    return Status::Unimplemented("source does not support parallel decode");
  }
};

/// Zero-copy source over an existing table, partitioned into `num_shards`
/// chunk-aligned shards exactly as data::ShardedTable plans them (0 = one
/// shard per chunk quantum).
class InMemoryTableSource : public TableSource {
 public:
  /// `table` must outlive the source.
  InMemoryTableSource(const data::CategoricalTable& table, size_t num_shards)
      : table_(&table),
        plan_(data::ShardedTable::Plan(table.num_rows(), num_shards)) {}

  const data::CategoricalSchema& schema() const override {
    return table_->schema();
  }
  StatusOr<bool> NextShard(PulledShard* out) override;
  Status SkipToRow(size_t row) override;
  std::optional<size_t> TotalRows() const override { return table_->num_rows(); }

 private:
  const data::CategoricalTable* table_;
  std::vector<data::RowRange> plan_;
  size_t next_ = 0;
};

/// Streaming CSV ingest: parses `rows_per_shard` rows at a time into a
/// fresh buffer per shard. Peak source-side memory is one shard, never the
/// file.
class CsvTableSource : public TableSource {
 public:
  /// `rows_per_shard` must be a positive multiple of the chunk quantum
  /// (data::kShardAlignmentRows); defaults to one quantum.
  static StatusOr<CsvTableSource> Open(
      const std::string& path, const data::CategoricalSchema& schema,
      size_t rows_per_shard = data::kShardAlignmentRows);

  const data::CategoricalSchema& schema() const override {
    return reader_.schema();
  }
  StatusOr<bool> NextShard(PulledShard* out) override;

  /// CSV decode is pure per-line work over a private line block, so it
  /// two-phase-splits cleanly: ReadRawShard on the producer, DecodeRawShard
  /// on any parser thread.
  bool SupportsParallelDecode() const override { return true; }
  StatusOr<bool> NextRawShard(data::RawCsvShard* out) override;
  StatusOr<PulledShard> DecodeRawShard(
      const data::RawCsvShard& raw) const override;

 private:
  CsvTableSource(data::ShardedCsvReader reader, size_t rows_per_shard)
      : reader_(std::move(reader)), rows_per_shard_(rows_per_shard) {}

  data::ShardedCsvReader reader_;
  size_t rows_per_shard_;
  bool exhausted_ = false;
};

/// Streaming binary ingest: materializes `rows_per_shard` pre-tokenized
/// rows at a time from a data/shard_io.h binary file (written by
/// data::WriteBinaryTable or `frapp convert`). Same shape as CsvTableSource
/// but with no text parsing at all — one bulk read and a column scatter per
/// shard — so it is the fast path for repeatedly mined extracts.
class BinaryTableSource : public TableSource {
 public:
  /// `rows_per_shard` must be a positive multiple of the chunk quantum
  /// (data::kShardAlignmentRows); defaults to one quantum. Open validates
  /// the file's schema fingerprint against `schema`.
  static StatusOr<BinaryTableSource> Open(
      const std::string& path, const data::CategoricalSchema& schema,
      size_t rows_per_shard = data::kShardAlignmentRows);

  const data::CategoricalSchema& schema() const override {
    return reader_.schema();
  }
  StatusOr<bool> NextShard(PulledShard* out) override;

  /// One file seek: cells before `row` are never read, let alone decoded.
  Status SkipToRow(size_t row) override;

  /// Known up front: the binary header stores the row count.
  std::optional<size_t> TotalRows() const override {
    return reader_.total_rows();
  }

 private:
  BinaryTableSource(data::BinaryShardReader reader, size_t rows_per_shard)
      : reader_(std::move(reader)), rows_per_shard_(rows_per_shard) {}

  data::BinaryShardReader reader_;
  size_t rows_per_shard_;
};

/// Synthetic source: draws `total_rows` chain-generator records shard by
/// shard from one persistent Pcg64(seed) stream — bit-identical to
/// ChainGenerator::Generate(total_rows, seed), without ever holding more
/// than one shard of rows.
class SyntheticTableSource : public TableSource {
 public:
  /// `rows_per_shard` must be a positive multiple of the chunk quantum.
  static StatusOr<SyntheticTableSource> Create(
      data::ChainGenerator generator, size_t total_rows, uint64_t seed,
      size_t rows_per_shard = data::kShardAlignmentRows);

  const data::CategoricalSchema& schema() const override {
    return generator_.schema();
  }
  StatusOr<bool> NextShard(PulledShard* out) override;
  std::optional<size_t> TotalRows() const override { return total_rows_; }

 private:
  SyntheticTableSource(data::ChainGenerator generator, size_t total_rows,
                       uint64_t seed, size_t rows_per_shard)
      : generator_(std::move(generator)),
        total_rows_(total_rows),
        rows_per_shard_(rows_per_shard),
        rng_(seed) {}

  data::ChainGenerator generator_;
  size_t total_rows_;
  size_t rows_per_shard_;
  random::Pcg64 rng_;
  size_t emitted_ = 0;
};

}  // namespace pipeline
}  // namespace frapp

#endif  // FRAPP_PIPELINE_TABLE_SOURCE_H_
