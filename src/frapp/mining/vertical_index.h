// Vertical (bitmap) representation of a categorical table for support
// counting.
//
// The horizontal layout answers "which items does row i contain?"; Apriori
// asks the transposed question, "which rows contain item x?", once per
// candidate per pass. This index materializes that transposition: one
// uint64_t bitset per (attribute, category) item, bit i set iff row i takes
// that category. A k-itemset's support is then the popcount of the word-wise
// AND of k bitmaps — 64 rows per cycle-ish instead of a branchy row scan —
// and a whole candidate list is counted without ever touching the rows
// again. Construction is a single pass over the columnar storage,
// O(N * M + items * N/64) time and items * N/8 bytes.

#ifndef FRAPP_MINING_VERTICAL_INDEX_H_
#define FRAPP_MINING_VERTICAL_INDEX_H_

#include <cstdint>
#include <vector>

#include "frapp/data/sharded_table.h"
#include "frapp/data/table.h"
#include "frapp/mining/itemset.h"

namespace frapp {
namespace mining {

/// Immutable per-item bitmap index over a CategoricalTable snapshot.
class VerticalIndex {
 public:
  /// Empty (zero-row, zero-item) index: the placeholder slot value of the
  /// sharded builders, overwritten by Build/BuildRange results.
  VerticalIndex() = default;

  /// Builds the index in one pass over `table`'s columns. `num_threads`
  /// parallelizes over attributes (0 = hardware concurrency); the result is
  /// bit-identical for every thread count.
  static VerticalIndex Build(const data::CategoricalTable& table,
                             size_t num_threads = 1);

  /// Builds an index over only rows [range.begin, range.end) of `table`,
  /// renumbered to local rows [0, range.size()): the per-shard index of the
  /// sharded counting path (see ShardedVerticalIndex). The range must lie
  /// within the table.
  static VerticalIndex BuildRange(const data::CategoricalTable& table,
                                  const data::RowRange& range,
                                  size_t num_threads = 1);

  /// First item slot of each attribute of `schema`: attribute-major,
  /// category ascending. The plane layout every index over the schema uses.
  static std::vector<size_t> ItemOffsets(const data::CategoricalSchema& schema);

  size_t num_rows() const { return num_rows_; }
  size_t words_per_item() const { return words_; }

  /// Approximate heap footprint of the index — what a cache entry holding
  /// it charges against a byte budget.
  size_t MemoryBytes() const {
    return offsets_.capacity() * sizeof(size_t) +
           bits_.capacity() * sizeof(uint64_t);
  }

  /// The bitmap of item (attribute, category): `words_per_item()` words, bit
  /// i of word i/64 set iff row i supports the item. Unused tail bits are 0.
  const uint64_t* Bitmap(size_t attribute, size_t category) const {
    return bits_.data() + (offsets_[attribute] + category) * words_;
  }

  /// All bitmap planes, item-major: item slot p (attribute-major, category
  /// ascending) occupies words [p * words_per_item(), (p+1) *
  /// words_per_item()). The raw image a caller persists to reassemble the
  /// index later via FromRaw.
  const std::vector<uint64_t>& raw_bits() const { return bits_; }

  /// Reassembles an index from a persisted plane image. `offsets` is the
  /// first item slot of each attribute (as Build derives from the schema)
  /// and `bits` one `(num_rows + 63) / 64`-word plane per item, item-major —
  /// exactly what raw_bits() of an index with the same shape returns. The
  /// result is bit-identical to the index the image was read from.
  static VerticalIndex FromRaw(size_t num_rows, std::vector<size_t> offsets,
                               std::vector<uint64_t> bits);

  /// Support count of `itemset` via word-wise AND + popcount. The empty
  /// itemset is supported by every row.
  size_t CountSupport(const Itemset& itemset) const;

  /// Counts every candidate of an Apriori pass; no row data is touched.
  std::vector<size_t> CountSupports(const std::vector<Itemset>& itemsets) const;

  /// Support as a fraction of rows (0 for an empty table).
  double SupportFraction(const Itemset& itemset) const;

 private:
  size_t num_rows_ = 0;
  size_t words_ = 0;
  std::vector<size_t> offsets_;  // first item slot of each attribute
  std::vector<uint64_t> bits_;   // all bitmaps, item-major
};

}  // namespace mining
}  // namespace frapp

#endif  // FRAPP_MINING_VERTICAL_INDEX_H_
