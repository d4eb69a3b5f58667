// Shared machinery for deterministic seeded bulk perturbation.
//
// Every perturber splits rows into fixed-size chunks whose RNG stream is a
// pure function of (master seed, chunk index). The chunk size and the
// stream derivation ARE the determinism contract — one definition here so
// the perturbers can never drift apart. This stream is the only one: the
// engines and `frapp perturb` both draw from it.
//
// Each categorical perturber writes its per-row sampler ONCE, against an
// emit(attribute, value) sink:
//     perturber.SampleRow(in_cols, i, rng, emit)
// draws the perturbation of input row i (attribute j read at in_cols[j][i])
// and reports every perturbed value through emit; perturber.cardinalities()
// is the schema shape it was built for. The loops below feed that one
// sampler to two sinks — perturbed column bytes (PerturbShardColumns) and
// the perturbed rows' bitmap planes (PerturbShardBitmaps) — so the two
// outputs draw the same streams in the same order and cannot disagree. The
// boolean schemes (MASK, C&P) perturb one chunk's one-hot bits at a time
// straight into the same mining::VerticalIndex planes, one per one-hot bit
// (PerturbOneHotPlanes); their row-form oracles (PerturbShardSeeded over a
// BooleanTable) run a per-row function fed by PerturbOneHotRows.

#ifndef FRAPP_CORE_SEEDED_CHUNKING_H_
#define FRAPP_CORE_SEEDED_CHUNKING_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "frapp/common/parallel.h"
#include "frapp/common/status.h"
#include "frapp/common/statusor.h"
#include "frapp/data/boolean_view.h"
#include "frapp/data/sharded_table.h"
#include "frapp/data/table.h"
#include "frapp/mining/vertical_index.h"
#include "frapp/random/rng.h"

namespace frapp {
namespace core {
namespace internal {

/// Fixed chunk size for seeded perturbation: chunk boundaries (and the RNG
/// stream of each chunk) depend only on the row count and master seed, never
/// on the thread count, which makes the output thread-count-invariant.
/// Aliases the shard alignment quantum so that chunk-aligned shards (see
/// data/sharded_table.h) perturb bit-identically to the monolithic pass.
inline constexpr size_t kPerturbChunkRows = data::kShardAlignmentRows;

// Every chunk starts on a multiple of 64 rows, so it owns whole words of
// every bitmap plane and chunk-parallel writers never share a word.
static_assert(kPerturbChunkRows % 64 == 0);

/// Validates a streaming shard view against the seeded-chunk contract: the
/// local range must lie within its buffer table and the GLOBAL position must
/// start on a chunk boundary. The view's size need not be a chunk multiple —
/// a stream's final shard may end mid-chunk — but every non-final shard must
/// be one for its successor to land back on the chunk grid (only the
/// producing TableSource can know which shard is last, so that half of the
/// contract is the producer's to uphold).
inline Status ValidateShardView(const data::ShardView& view) {
  if (view.rows == nullptr) return Status::InvalidArgument("null shard view");
  if (view.local.begin > view.local.end ||
      view.local.end > view.rows->num_rows()) {
    return Status::OutOfRange("shard view exceeds its buffer table");
  }
  if (view.global_begin % kPerturbChunkRows != 0) {
    return Status::InvalidArgument(
        "shard view does not start on a seeded chunk boundary");
  }
  return Status::OK();
}

/// Independent per-chunk generator: distinct PCG streams, seed mixed with
/// the chunk index so neighbouring chunks share nothing.
inline random::Pcg64 ChunkRng(uint64_t seed, size_t chunk) {
  return random::Pcg64(seed ^ (0x9e3779b97f4a7c15ULL * (chunk + 1)),
                       /*stream=*/2 * chunk + 1);
}

/// The one seeded-chunk dispatch loop every bulk perturber runs: splits
/// `num_rows` local rows into the global chunk grid anchored at
/// `global_begin` (a chunk-boundary multiple) and calls
/// fn(local_begin, local_end, rng) per chunk with that chunk's OWN stream —
/// ChunkRng(seed, global chunk index) — on up to `num_threads` workers.
/// This loop IS the determinism contract (chunk boundaries and streams are
/// pure functions of the global grid, never of the thread count); keeping
/// it here, defined once, is what guarantees the perturbers can never
/// disagree on it.
template <typename Fn>
void ForEachSeededChunk(size_t num_rows, size_t global_begin, uint64_t seed,
                        size_t num_threads, Fn&& fn) {
  const size_t first_chunk = global_begin / kPerturbChunkRows;
  common::ParallelForChunks(
      common::NumChunks(num_rows, kPerturbChunkRows), num_threads,
      [&](size_t c) {
        random::Pcg64 rng = ChunkRng(seed, first_chunk + c);
        const size_t begin = c * kPerturbChunkRows;
        const size_t end = std::min(num_rows, begin + kPerturbChunkRows);
        fn(begin, end, rng);
      });
}

/// Column j of `table` from row `row_offset` on, for every j: local row i
/// of a shard reads input row `row_offset + i`.
inline std::vector<const uint8_t*> ColumnsFrom(
    const data::CategoricalTable& table, size_t row_offset = 0) {
  std::vector<const uint8_t*> cols(table.num_attributes());
  for (size_t j = 0; j < cols.size(); ++j) {
    cols[j] = table.Column(j).data() + row_offset;
  }
  return cols;
}

inline std::vector<uint8_t*> MutableColumns(data::CategoricalTable& table) {
  std::vector<uint8_t*> cols(table.num_attributes());
  for (size_t j = 0; j < cols.size(); ++j) {
    cols[j] = table.MutableColumnData(j);
  }
  return cols;
}

/// Checks that `table` has the attributes and cardinalities a perturber was
/// built for: every value a sampler emits must index a plane of the
/// table's own item layout.
inline Status ValidatePerturberShape(const data::CategoricalTable& table,
                                     const std::vector<size_t>& cardinalities) {
  if (table.schema().Cardinalities() != cardinalities) {
    return Status::InvalidArgument("table schema does not match perturber");
  }
  return Status::OK();
}

/// The one seeded-chunk row loop behind both shard sinks: samples every row
/// of `shard` (already validated) with its global chunk's stream and
/// reports value `value` of attribute `j` of local row `i` as
/// sink(i, j, value).
template <typename Perturber, typename Sink>
void SampleShardRows(const data::ShardView& shard, const Perturber& perturber,
                     uint64_t seed, size_t num_threads, const Sink& sink) {
  const std::vector<const uint8_t*> in =
      ColumnsFrom(*shard.rows, shard.local.begin);
  ForEachSeededChunk(
      shard.size(), shard.global_begin, seed, num_threads,
      [&](size_t begin, size_t end, random::Pcg64& rng) {
        for (size_t i = begin; i < end; ++i) {
          perturber.SampleRow(in.data(), i, rng, [&](size_t j, uint8_t value) {
            sink(i, j, value);
          });
        }
      });
}

/// The row-form oracle loop of the boolean schemes (MASK, C&P): perturbs
/// every row of `onehot`, one shard's one-hot encoding whose first row sits
/// at GLOBAL row `global_begin` (a chunk boundary), as perturb_row(bits,
/// rng) with its global chunk's stream, into a fresh table of the same
/// width. The engines perturb through PerturbOneHotPlanes instead; tests
/// hold the two to the same bits.
template <typename RowFn>
StatusOr<data::BooleanTable> PerturbOneHotRows(const data::BooleanTable& onehot,
                                               size_t global_begin,
                                               uint64_t seed,
                                               size_t num_threads,
                                               const RowFn& perturb_row) {
  if (global_begin % kPerturbChunkRows != 0) {
    return Status::InvalidArgument(
        "shard does not start on a seeded chunk boundary");
  }
  FRAPP_ASSIGN_OR_RETURN(data::BooleanTable out,
                         data::BooleanTable::CreateEmpty(onehot.num_bits()));
  for (size_t i = 0; i < onehot.num_rows(); ++i) out.AppendRow(0);
  ForEachSeededChunk(onehot.num_rows(), global_begin, seed, num_threads,
                     [&](size_t begin, size_t end, random::Pcg64& rng) {
                       for (size_t i = begin; i < end; ++i) {
                         out.SetRowBits(i, perturb_row(onehot.RowBits(i), rng));
                       }
                     });
  return out;
}

/// One shard's one-hot bitmap planes while its chunks perturb into them:
/// plane p is `words` words, and bit i of a plane is local row i of the
/// shard. The planes follow mining::VerticalIndex::ItemOffsets, which is
/// also data::BooleanLayout's bit order, so one-hot bit p is item slot p.
struct OneHotPlanes {
  std::vector<const uint8_t*> cols;  // attribute j of local row i: cols[j][i]
  std::vector<size_t> offsets;       // first plane of attribute j
  size_t num_bits = 0;               // planes: the one-hot width
  size_t words = 0;
  uint64_t* bits = nullptr;

  uint64_t* Plane(size_t p) const { return bits + p * words; }

  /// The unperturbed one-hot word of local row i.
  uint64_t Row(size_t i) const {
    uint64_t row = 0;
    for (size_t j = 0; j < cols.size(); ++j) {
      row |= 1ull << (offsets[j] + cols[j][i]);
    }
    return row;
  }

  /// Sets the bits of `row` on local row i.
  void SetRow(size_t i, uint64_t row) const {
    for (; row != 0; row &= row - 1) {
      Plane(static_cast<size_t>(__builtin_ctzll(row)))[i >> 6] |=
          1ull << (i & 63);
    }
  }
};

/// The one seeded-chunk loop of the boolean schemes (MASK, C&P): validates
/// `shard` against the seeded-chunk contract, zeroes its one-hot planes and
/// calls perturb_chunk(planes, begin, end, rng) per chunk of local rows
/// [begin, end) with that chunk's stream, on up to `num_threads` workers.
/// The chunk function writes its rows' PERTURBED bits into the planes, which
/// become the shard's mining::VerticalIndex with no BooleanTable in between.
template <typename ChunkFn>
StatusOr<mining::VerticalIndex> PerturbOneHotPlanes(
    const data::ShardView& shard, uint64_t seed, size_t num_threads,
    const ChunkFn& perturb_chunk) {
  FRAPP_RETURN_IF_ERROR(ValidateShardView(shard));
  const data::CategoricalSchema& schema = shard.rows->schema();
  const size_t num_bits = schema.TotalCategories();
  if (num_bits > 64) {
    return Status::InvalidArgument(
        "boolean view limited to 64 bits; schema has " +
        std::to_string(num_bits));
  }
  OneHotPlanes planes;
  planes.cols = ColumnsFrom(*shard.rows, shard.local.begin);
  planes.offsets = mining::VerticalIndex::ItemOffsets(schema);
  planes.num_bits = num_bits;
  planes.words = (shard.size() + 63) / 64;
  std::vector<uint64_t> bits(num_bits * planes.words, 0);
  planes.bits = bits.data();
  ForEachSeededChunk(shard.size(), shard.global_begin, seed, num_threads,
                     [&](size_t begin, size_t end, random::Pcg64& rng) {
                       perturb_chunk(planes, begin, end, rng);
                     });
  return mining::VerticalIndex::FromRaw(shard.size(), std::move(planes.offsets),
                                        std::move(bits));
}

/// The checks both shard sinks run before touching a byte: the seeded-chunk
/// contract, then the perturber's shape.
inline Status ValidateShardFor(const data::ShardView& shard,
                               const std::vector<size_t>& cardinalities) {
  FRAPP_RETURN_IF_ERROR(ValidateShardView(shard));
  return ValidatePerturberShape(*shard.rows, cardinalities);
}

/// Column-bytes sink: perturbs the rows of `shard` on the seeded-chunk grid
/// into a fresh table of shard-size rows.
template <typename Perturber>
StatusOr<data::CategoricalTable> PerturbShardColumns(
    const data::ShardView& shard, const Perturber& perturber, uint64_t seed,
    size_t num_threads) {
  FRAPP_RETURN_IF_ERROR(ValidateShardFor(shard, perturber.cardinalities()));
  FRAPP_ASSIGN_OR_RETURN(data::CategoricalTable out,
                         data::CategoricalTable::Create(shard.rows->schema()));
  out.AppendZeroRows(shard.size());
  const std::vector<uint8_t*> cols = MutableColumns(out);
  SampleShardRows(shard, perturber, seed, num_threads,
                  [&](size_t i, size_t j, uint8_t value) { cols[j][i] = value; });
  return out;
}

/// Bitmap sink: perturbs the rows of `shard` on the seeded-chunk grid
/// straight into the bitmap planes of their vertical index. Bit-identical
/// to mining::VerticalIndex::Build(PerturbShardColumns(...)), without the
/// perturbed rows or the transpose pass.
template <typename Perturber>
StatusOr<mining::VerticalIndex> PerturbShardBitmaps(
    const data::ShardView& shard, const Perturber& perturber, uint64_t seed,
    size_t num_threads) {
  FRAPP_RETURN_IF_ERROR(ValidateShardFor(shard, perturber.cardinalities()));
  const data::CategoricalSchema& schema = shard.rows->schema();
  const size_t words = (shard.size() + 63) / 64;
  std::vector<size_t> offsets = mining::VerticalIndex::ItemOffsets(schema);
  std::vector<uint64_t> bits(schema.TotalCategories() * words, 0);
  std::vector<uint64_t*> planes(offsets.size());  // first plane per attribute
  for (size_t j = 0; j < planes.size(); ++j) {
    planes[j] = bits.data() + offsets[j] * words;
  }
  SampleShardRows(shard, perturber, seed, num_threads,
                  [&](size_t i, size_t j, uint8_t value) {
                    planes[j][static_cast<size_t>(value) * words + (i >> 6)] |=
                        1ull << (i & 63);
                  });
  return mining::VerticalIndex::FromRaw(shard.size(), std::move(offsets),
                                        std::move(bits));
}

}  // namespace internal
}  // namespace core
}  // namespace frapp

#endif  // FRAPP_CORE_SEEDED_CHUNKING_H_
