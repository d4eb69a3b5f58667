// Abstract source of boolean pattern-count vectors: the counting seam of the
// boolean-table mechanisms (MASK, Cut-and-Paste), mirror of
// mining/count_source.h for one-hot rows.
//
// Both boolean reconstructions start from the exact-pattern counts of a
// candidate's k bit positions (2^k integers). Those are derived from
// superset-intersection counts by the superset Mobius transform, which is
// LINEAR — so the transform commutes with summing per-partition superset
// vectors. The dist coordinator (over its workers' vectors) and the count
// store (over stored, expired, appended and tail vectors) therefore sum RAW
// superset counts (ShardedBooleanVerticalIndex::SupersetCounts) and
// transform once after the merge. Either way the integers reaching the
// estimator are identical, which is what keeps reconstruction bit-identical
// across local, remote and store-backed counting.

#ifndef FRAPP_DATA_PATTERN_COUNT_SOURCE_H_
#define FRAPP_DATA_PATTERN_COUNT_SOURCE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/data/sharded_boolean_vertical_index.h"

namespace frapp {
namespace data {

/// Total exact-pattern counts over one (conceptually single) perturbed
/// boolean database, however its rows are physically placed.
class PatternCountSource {
 public:
  virtual ~PatternCountSource() = default;

  /// Total rows behind the counts.
  virtual size_t num_rows() const = 0;

  /// One-hot width: bit positions at or above this cannot occur in any row.
  virtual size_t num_bits() const = 0;

  /// counts[A] (A in [0, 2^k)) = #rows whose bits on `positions` match
  /// pattern A exactly, summed over every physical partition. Requires
  /// positions.size() <= BooleanVerticalIndex::kMaxPatternLength.
  virtual StatusOr<std::vector<int64_t>> PatternCounts(
      const std::vector<size_t>& positions) = 0;

  /// Whole-pass batch: out[c] = PatternCounts(candidates[c]). The default
  /// loops — right for local indexes, where a call is a function call. A
  /// remote source overrides it to ship a candidate BLOCK per round trip
  /// instead of paying one worker round trip per candidate.
  virtual StatusOr<std::vector<std::vector<int64_t>>> PatternCountsBatch(
      const std::vector<std::vector<size_t>>& candidates);

  /// histogram[j] = #rows with exactly j of `positions` set. Derived from
  /// PatternCounts by a popcount fold, exactly as the sharded index derives
  /// it — one code path for local and remote sources.
  StatusOr<std::vector<int64_t>> HitHistogram(
      const std::vector<size_t>& positions);
};

/// In-process implementation over a sharded boolean bitmap index (the
/// single-machine pipeline path).
class LocalPatternCountSource : public PatternCountSource {
 public:
  /// Owns the index; `num_threads` parallelizes each counting pass (0 =
  /// hardware concurrency). Never affects results.
  LocalPatternCountSource(ShardedBooleanVerticalIndex index,
                          size_t num_threads = 1)
      : index_(std::move(index)), num_threads_(num_threads) {}

  size_t num_rows() const override { return index_.num_rows(); }
  size_t num_bits() const override { return index_.num_bits(); }

  StatusOr<std::vector<int64_t>> PatternCounts(
      const std::vector<size_t>& positions) override {
    if (positions.size() > BooleanVerticalIndex::kMaxPatternLength) {
      return Status::InvalidArgument("pattern length above the 2^k cap");
    }
    return index_.PatternCounts(positions, num_threads_);
  }

  const ShardedBooleanVerticalIndex& index() const { return index_; }

 private:
  ShardedBooleanVerticalIndex index_;
  size_t num_threads_;
};

}  // namespace data
}  // namespace frapp

#endif  // FRAPP_DATA_PATTERN_COUNT_SOURCE_H_
