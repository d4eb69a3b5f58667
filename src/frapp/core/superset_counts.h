// The one count step of the boolean-table reconstructions (MASK, C&P).
//
// MASK inverts the exact 0/1-pattern counts of a candidate's k one-hot bits,
// C&P the histogram of per-row hit counts against them. Both derive from the
// 2^k superset counts N_S = #perturbed rows holding every item of S, for
// every subset S of the candidate's items. MASK and C&P perturb into the same
// mining::VerticalIndex planes as the categorical mechanisms (one plane per
// one-hot bit, attribute-major), so N_S is just the perturbed support of the
// sub-itemset S, and any mining::SupportCountSource answers it: a local
// sharded index, a count store, or a dist coordinator. A candidate has one
// item per attribute, so every S is a valid itemset, and Apriori's subset
// pruning means every proper S was a candidate of an earlier pass.
//
// SupersetCounter memoizes every support it has fetched for the life of its
// estimator, so each pass asks the source only for the sub-itemsets it has
// not seen yet, deduplicated: normally exactly that pass's candidates, one
// intersection each. The integers it hands on equal the ones a dedicated
// superset-counting index would produce, in the same bit order, so the
// folds below and the reconstructions after them give the same doubles.

#ifndef FRAPP_CORE_SUPERSET_COUNTS_H_
#define FRAPP_CORE_SUPERSET_COUNTS_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/data/schema.h"
#include "frapp/mining/count_source.h"
#include "frapp/mining/itemset.h"

namespace frapp {
namespace core {

/// Superset-count vectors of candidate itemsets over one count source, with
/// a memo of every sub-itemset support already fetched.
class SupersetCounter {
 public:
  /// Hard cap on the candidate length: 2^k counts are materialized per
  /// candidate.
  static constexpr size_t kMaxLength = 20;

  SupersetCounter(const data::CategoricalSchema& schema,
                  std::shared_ptr<mining::SupportCountSource> source);

  /// Total rows behind the counts.
  size_t num_rows() const { return source_->num_rows(); }

  /// InvalidArgument for an empty itemset or one longer than kMaxLength.
  static Status CheckLength(const mining::Itemset& itemset);

  /// out[c][S] (S in [0, 2^k)) = #rows supporting every item b of
  /// itemsets[c] with bit b of S set; out[c][0] = num_rows(). One source
  /// call at most, for the nonempty sub-itemsets not fetched before.
  /// CheckLength's errors for a bad length, OutOfRange when an item lies
  /// outside the schema.
  StatusOr<std::vector<std::vector<int64_t>>> Count(
      const std::vector<mining::Itemset>& itemsets);

  /// In-place superset Mobius transform over the 2^k lattice: turns "at
  /// least S" counts into "exactly S" counts.
  static void MobiusExactCounts(std::vector<int64_t>& counts);

  /// Popcount fold of exact-pattern counts into a hit histogram:
  /// out[j] = sum of counts[A] with popcount(A) == j, for j in
  /// [0, num_positions].
  static std::vector<int64_t> HistogramFromPatternCounts(
      const std::vector<int64_t>& counts, size_t num_positions);

 private:
  std::vector<size_t> offsets_;        // one-hot bit of (attribute, 0)
  std::vector<size_t> cardinalities_;  // categories per attribute
  size_t num_bits_;                    // one-hot width
  std::shared_ptr<mining::SupportCountSource> source_;
  // One-hot bit mask of a fetched itemset -> its perturbed support.
  std::unordered_map<uint64_t, int64_t> memo_;
};

}  // namespace core
}  // namespace frapp

#endif  // FRAPP_CORE_SUPERSET_COUNTS_H_
