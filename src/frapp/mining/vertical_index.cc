#include "frapp/mining/vertical_index.h"

#include "frapp/common/parallel.h"
#include "frapp/mining/kernels.h"

namespace frapp {
namespace mining {

std::vector<size_t> VerticalIndex::ItemOffsets(
    const data::CategoricalSchema& schema) {
  std::vector<size_t> offsets(schema.num_attributes());
  size_t items = 0;
  for (size_t j = 0; j < offsets.size(); ++j) {
    offsets[j] = items;
    items += schema.Cardinality(j);
  }
  return offsets;
}

VerticalIndex VerticalIndex::Build(const data::CategoricalTable& table,
                                   size_t num_threads) {
  return BuildRange(table, data::RowRange{0, table.num_rows()}, num_threads);
}

VerticalIndex VerticalIndex::BuildRange(const data::CategoricalTable& table,
                                        const data::RowRange& range,
                                        size_t num_threads) {
  VerticalIndex index;
  const data::CategoricalSchema& schema = table.schema();
  const size_t m = schema.num_attributes();
  index.num_rows_ = range.size();
  index.words_ = (index.num_rows_ + 63) / 64;
  index.offsets_ = ItemOffsets(schema);
  index.bits_.assign(schema.TotalCategories() * index.words_, 0);

  // Attributes write disjoint bitmap ranges, so parallelizing over them is
  // race-free and bit-identical for every worker count.
  common::ParallelForChunks(m, num_threads, [&](size_t j) {
    const uint8_t* col = table.Column(j).data() + range.begin;
    uint64_t* base = index.bits_.data() + index.offsets_[j] * index.words_;
    for (size_t i = 0; i < index.num_rows_; ++i) {
      base[static_cast<size_t>(col[i]) * index.words_ + (i >> 6)] |=
          1ull << (i & 63);
    }
  });
  return index;
}

VerticalIndex VerticalIndex::FromRaw(size_t num_rows,
                                     std::vector<size_t> offsets,
                                     std::vector<uint64_t> bits) {
  VerticalIndex index;
  index.num_rows_ = num_rows;
  index.words_ = (num_rows + 63) / 64;
  index.offsets_ = std::move(offsets);
  index.bits_ = std::move(bits);
  return index;
}

size_t VerticalIndex::CountSupport(const Itemset& itemset) const {
  const size_t k = itemset.size();
  if (k == 0) return num_rows_;
  const KernelTable& kernels = ActiveKernels();
  if (k == 1) {
    return static_cast<size_t>(kernels.popcount_range(
        Bitmap(itemset.item(0).attribute, itemset.item(0).category), words_));
  }
  // Word-wise AND across the k bitmaps via the dispatched kernel, without
  // materializing the intersection. Itemsets have one item per attribute, so
  // k is bounded by the schema's attribute count; spill to the heap past the
  // inline cap.
  constexpr size_t kInlineMaps = 32;
  const uint64_t* inline_maps[kInlineMaps];
  std::vector<const uint64_t*> heap_maps;
  const uint64_t** maps = inline_maps;
  if (k > kInlineMaps) {
    heap_maps.resize(k);
    maps = heap_maps.data();
  }
  for (size_t j = 0; j < k; ++j) {
    maps[j] = Bitmap(itemset.item(j).attribute, itemset.item(j).category);
  }
  return static_cast<size_t>(kernels.intersect_popcount(maps, k, words_));
}

std::vector<size_t> VerticalIndex::CountSupports(
    const std::vector<Itemset>& itemsets) const {
  std::vector<size_t> counts(itemsets.size());
  for (size_t c = 0; c < itemsets.size(); ++c) {
    counts[c] = CountSupport(itemsets[c]);
  }
  return counts;
}

double VerticalIndex::SupportFraction(const Itemset& itemset) const {
  if (num_rows_ == 0) return 0.0;
  return static_cast<double>(CountSupport(itemset)) /
         static_cast<double>(num_rows_);
}

}  // namespace mining
}  // namespace frapp
