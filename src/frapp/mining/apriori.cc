#include "frapp/mining/apriori.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "frapp/mining/support_counter.h"

namespace frapp {
namespace mining {

StatusOr<std::vector<double>> SupportEstimator::EstimateSupports(
    const std::vector<Itemset>& itemsets) {
  std::vector<double> supports(itemsets.size());
  for (size_t c = 0; c < itemsets.size(); ++c) {
    FRAPP_ASSIGN_OR_RETURN(supports[c], EstimateSupport(itemsets[c]));
  }
  return supports;
}

StatusOr<double> ExactSupportEstimator::EstimateSupport(const Itemset& itemset) {
  return index_.SupportFraction(itemset);
}

StatusOr<std::vector<double>> ExactSupportEstimator::EstimateSupports(
    const std::vector<Itemset>& itemsets) {
  std::vector<double> supports(itemsets.size());
  if (index_.num_rows() == 0) {
    std::fill(supports.begin(), supports.end(), 0.0);
    return supports;
  }
  const double n = static_cast<double>(index_.num_rows());
  const std::vector<size_t> counts = index_.CountSupports(itemsets, num_threads_);
  for (size_t c = 0; c < counts.size(); ++c) {
    supports[c] = static_cast<double>(counts[c]) / n;
  }
  return supports;
}

size_t AprioriResult::TotalFrequent() const {
  size_t total = 0;
  for (const auto& level : by_length) total += level.size();
  return total;
}

const std::vector<FrequentItemset>& AprioriResult::OfLength(size_t k) const {
  static const std::vector<FrequentItemset> kEmpty;
  if (k == 0 || k > by_length.size()) return kEmpty;
  return by_length[k - 1];
}

size_t AprioriResult::MaxLength() const {
  for (size_t k = by_length.size(); k-- > 0;) {
    if (!by_length[k].empty()) return k + 1;
  }
  return 0;
}

// Apriori join: combine sorted frequent k-itemsets sharing their first k-1
// items; prune candidates with an infrequent k-subset.
std::vector<Itemset> GenerateCandidates(
    const std::vector<FrequentItemset>& frequent) {
  std::vector<Itemset> candidates;
  // Reused across pairs, so only kept candidates allocate.
  std::vector<Item> joined;
  std::vector<Item> subset;
  const auto is_frequent = [&frequent](const std::vector<Item>& items) {
    const auto it = std::lower_bound(
        frequent.begin(), frequent.end(), items,
        [](const FrequentItemset& f, const std::vector<Item>& probe) {
          return f.itemset.items() < probe;
        });
    return it != frequent.end() && it->itemset.items() == items;
  };
  const size_t n = frequent.size();
  for (size_t a = 0; a < n; ++a) {
    const std::vector<Item>& items_a = frequent[a].itemset.items();
    const size_t k = items_a.size();
    for (size_t b = a + 1; b < n; ++b) {
      const std::vector<Item>& items_b = frequent[b].itemset.items();
      // Shared (k-1)-prefix? The lists are globally sorted, so once prefixes
      // diverge for this `a`, later `b` cannot match either.
      if (!std::equal(items_a.begin(), items_a.end() - 1, items_b.begin())) {
        break;
      }
      const Item& last_b = items_b.back();
      if (items_a.back().attribute == last_b.attribute) continue;  // clash

      // b sorts after a, so last_b > last_a and the join is already sorted.
      joined.assign(items_a.begin(), items_a.end());
      joined.push_back(last_b);

      // Prune: every k-subset must be frequent (binary search of the
      // sorted list). Dropping the last item gives items_a and dropping the
      // one before gives items_b, so only the first k-1 drops need a probe.
      bool all_subsets_frequent = true;
      for (size_t skip = 0; skip + 1 < k && all_subsets_frequent; ++skip) {
        subset.assign(joined.begin(), joined.end());
        subset.erase(subset.begin() + static_cast<std::ptrdiff_t>(skip));
        all_subsets_frequent = is_frequent(subset);
      }
      if (all_subsets_frequent) {
        candidates.push_back(Itemset::FromSortedUnchecked(joined));
      }
    }
  }
  return candidates;
}

StatusOr<AprioriResult> MineFrequentItemsets(const data::CategoricalSchema& schema,
                                             SupportEstimator& estimator,
                                             const AprioriOptions& options) {
  if (!(options.min_support > 0.0) || options.min_support > 1.0) {
    return Status::InvalidArgument("min_support must be in (0, 1]");
  }
  const size_t max_length = (options.max_length == 0)
                                ? schema.num_attributes()
                                : std::min(options.max_length,
                                           schema.num_attributes());

  AprioriResult result;

  // Pass 1: all single items.
  std::vector<Itemset> candidates;
  for (size_t j = 0; j < schema.num_attributes(); ++j) {
    for (size_t c = 0; c < schema.Cardinality(j); ++c) {
      candidates.push_back(Itemset::FromSortedUnchecked(
          {Item{static_cast<uint16_t>(j), static_cast<uint16_t>(c)}}));
    }
  }

  for (size_t k = 1; k <= max_length && !candidates.empty(); ++k) {
    result.candidates_per_pass.push_back(candidates.size());
    // One batch call per pass lets vertical-index estimators count the whole
    // candidate list without rescanning rows.
    FRAPP_ASSIGN_OR_RETURN(std::vector<double> supports,
                           estimator.EstimateSupports(candidates));
    std::vector<FrequentItemset> frequent;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (supports[c] >= options.min_support) {
        frequent.push_back(FrequentItemset{candidates[c], supports[c]});
      }
    }
    std::sort(frequent.begin(), frequent.end(),
              [](const FrequentItemset& a, const FrequentItemset& b) {
                return a.itemset < b.itemset;
              });
    result.by_length.push_back(std::move(frequent));
    const std::vector<FrequentItemset>& level = result.by_length.back();
    if (level.empty() || k == max_length) break;
    candidates = GenerateCandidates(level);
  }
  return result;
}

StatusOr<AprioriResult> MineExact(const data::CategoricalTable& table,
                                  const AprioriOptions& options) {
  ExactSupportEstimator estimator(table, options.count_shards,
                                  options.num_threads);
  return MineFrequentItemsets(table.schema(), estimator, options);
}

}  // namespace mining
}  // namespace frapp
