#include "frapp/core/superset_counts.h"

#include <string>
#include <utility>

#include "frapp/mining/vertical_index.h"

namespace frapp {
namespace core {

SupersetCounter::SupersetCounter(
    const data::CategoricalSchema& schema,
    std::shared_ptr<mining::SupportCountSource> source)
    : offsets_(mining::VerticalIndex::ItemOffsets(schema)),
      cardinalities_(schema.Cardinalities()),
      num_bits_(schema.TotalCategories()),
      source_(std::move(source)) {}

Status SupersetCounter::CheckLength(const mining::Itemset& itemset) {
  if (itemset.empty()) return Status::InvalidArgument("empty itemset");
  // Checked before anything shifts or allocates 2^k.
  if (itemset.size() > kMaxLength) {
    return Status::InvalidArgument("itemset too long for 2^k counting");
  }
  return Status::OK();
}

StatusOr<std::vector<std::vector<int64_t>>> SupersetCounter::Count(
    const std::vector<mining::Itemset>& itemsets) {
  // The memo keys an itemset by its one-hot bit mask, which is also the
  // width limit of the boolean schemes' perturbation.
  if (num_bits_ > 64) {
    return Status::InvalidArgument(
        "boolean view limited to 64 bits; schema has " +
        std::to_string(num_bits_));
  }
  for (const mining::Itemset& itemset : itemsets) {
    FRAPP_RETURN_IF_ERROR(CheckLength(itemset));
    for (const mining::Item& item : itemset.items()) {
      if (item.attribute >= cardinalities_.size() ||
          item.category >= cardinalities_[item.attribute]) {
        return Status::OutOfRange("item (" + std::to_string(item.attribute) +
                                  ", " + std::to_string(item.category) +
                                  ") outside the schema");
      }
    }
  }
  // masks[c][S] = one-hot bit mask of the sub-itemset S of itemsets[c]. A
  // mask first seen now gets a placeholder memo slot and joins the fetch.
  std::vector<std::vector<uint64_t>> masks(itemsets.size());
  std::vector<mining::Itemset> fetch;
  std::vector<uint64_t> fetch_masks;
  for (size_t c = 0; c < itemsets.size(); ++c) {
    const mining::Itemset& itemset = itemsets[c];
    uint64_t bits[kMaxLength];
    for (size_t b = 0; b < itemset.size(); ++b) {
      const mining::Item& item = itemset.item(b);
      bits[b] = uint64_t{1} << (offsets_[item.attribute] + item.category);
    }
    std::vector<uint64_t>& mask = masks[c];
    mask.assign(size_t{1} << itemset.size(), 0);
    for (size_t s = 1; s < mask.size(); ++s) {
      mask[s] = mask[s & (s - 1)] |
                bits[static_cast<size_t>(__builtin_ctzll(s))];
      if (!memo_.try_emplace(mask[s], 0).second) continue;
      std::vector<mining::Item> items;
      for (uint64_t rest = s; rest != 0; rest &= rest - 1) {
        items.push_back(
            itemset.item(static_cast<size_t>(__builtin_ctzll(rest))));
      }
      fetch.push_back(mining::Itemset::FromSortedUnchecked(std::move(items)));
      fetch_masks.push_back(mask[s]);
    }
  }
  if (!fetch.empty()) {
    StatusOr<std::vector<uint64_t>> supports = source_->CountSupports(fetch);
    if (supports.ok() && supports->size() != fetch.size()) {
      supports = Status::Internal("count source answered " +
                                  std::to_string(supports->size()) +
                                  " supports for " +
                                  std::to_string(fetch.size()) + " itemsets");
    }
    if (!supports.ok()) {
      for (uint64_t mask : fetch_masks) memo_.erase(mask);
      return supports.status();
    }
    for (size_t i = 0; i < fetch.size(); ++i) {
      memo_[fetch_masks[i]] = static_cast<int64_t>((*supports)[i]);
    }
  }

  const int64_t rows = static_cast<int64_t>(num_rows());
  std::vector<std::vector<int64_t>> out(itemsets.size());
  for (size_t c = 0; c < itemsets.size(); ++c) {
    out[c].resize(masks[c].size());
    out[c][0] = rows;
    for (size_t s = 1; s < masks[c].size(); ++s) {
      out[c][s] = memo_.find(masks[c][s])->second;
    }
  }
  return out;
}

void SupersetCounter::MobiusExactCounts(std::vector<int64_t>& counts) {
  // Subtract, per bit axis, the count with that bit forced set: "at least S"
  // becomes "exactly S".
  const size_t patterns = counts.size();
  for (size_t bit = 1; bit < patterns; bit <<= 1) {
    for (size_t s = 0; s < patterns; ++s) {
      if ((s & bit) == 0) counts[s] -= counts[s | bit];
    }
  }
}

std::vector<int64_t> SupersetCounter::HistogramFromPatternCounts(
    const std::vector<int64_t>& counts, size_t num_positions) {
  std::vector<int64_t> histogram(num_positions + 1, 0);
  for (size_t a = 0; a < counts.size(); ++a) {
    histogram[static_cast<size_t>(__builtin_popcountll(a))] += counts[a];
  }
  return histogram;
}

}  // namespace core
}  // namespace frapp
