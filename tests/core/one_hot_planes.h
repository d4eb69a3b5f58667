// Test helper: a one-hot BooleanTable transposed into the
// mining::VerticalIndex planes MASK and C&P perturb into, so their row-form
// oracles and hand-built boolean tables can be counted and compared the
// way the engines count.

#ifndef FRAPP_TESTS_CORE_ONE_HOT_PLANES_H_
#define FRAPP_TESTS_CORE_ONE_HOT_PLANES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "frapp/data/boolean_view.h"
#include "frapp/data/schema.h"
#include "frapp/data/sharded_table.h"
#include "frapp/mining/vertical_index.h"

namespace frapp {
namespace core {

/// Schema with one single-category attribute per bit: item (b, 0) is bit
/// b, so any set of bit positions is a valid itemset.
inline data::CategoricalSchema BitSchema(size_t num_bits) {
  std::vector<data::Attribute> attributes;
  for (size_t b = 0; b < num_bits; ++b) {
    attributes.push_back({"b" + std::to_string(b), {"1"}});
  }
  return *data::CategoricalSchema::Create(std::move(attributes));
}

/// The planes of rows [range.begin, range.end) of `table`, one per bit,
/// renumbered to local rows, with item slots `offsets` (the one-hot layout
/// of a schema: VerticalIndex::ItemOffsets).
inline mining::VerticalIndex OneHotPlanes(const data::BooleanTable& table,
                                          const data::RowRange& range,
                                          std::vector<size_t> offsets) {
  const size_t rows = range.size();
  const size_t words = (rows + 63) / 64;
  std::vector<uint64_t> bits(table.num_bits() * words, 0);
  for (size_t i = 0; i < rows; ++i) {
    for (uint64_t row = table.RowBits(range.begin + i); row != 0;
         row &= row - 1) {
      const size_t p = static_cast<size_t>(__builtin_ctzll(row));
      bits[p * words + (i >> 6)] |= uint64_t{1} << (i & 63);
    }
  }
  return mining::VerticalIndex::FromRaw(rows, std::move(offsets),
                                        std::move(bits));
}

/// All of `table`'s planes, items laid out as `schema`'s one-hot bits.
inline mining::VerticalIndex OneHotPlanes(
    const data::BooleanTable& table, const data::CategoricalSchema& schema) {
  return OneHotPlanes(table, {0, table.num_rows()},
                      mining::VerticalIndex::ItemOffsets(schema));
}

}  // namespace core
}  // namespace frapp

#endif  // FRAPP_TESTS_CORE_ONE_HOT_PLANES_H_
