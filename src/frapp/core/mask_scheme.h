// The MASK perturbation scheme (Rizvi & Haritsa, VLDB 2002), the paper's
// first baseline (Section 3, Eq. 11; Section 7 "Perturbation Mechanisms").
//
// Categorical records are one-hot mapped to M_b = sum_j |S_U^j| boolean
// attributes; each bit is then flipped independently with probability 1 - p.
// Because every original record has exactly M ones, the record-level
// amplification is (p / (1-p))^(2M), so the strict privacy constraint
// gamma fixes p via  (p/(1-p))^(2M) <= gamma  (p = 0.5610 for CENSUS and
// 0.5524 for HEALTH at gamma = 19, matching the paper).
//
// Support reconstruction for a k-itemset inverts the k-fold tensor power of
// the 2x2 flip matrix [[p, 1-p], [1-p, p]] on the 2^k pattern counts. The
// tensor structure makes the solve O(k 2^k), but its condition number is
// (1/(2p-1))^k — EXPONENTIAL in itemset length, which is precisely the
// accuracy pathology FRAPP's gamma-diagonal matrix removes.

#ifndef FRAPP_CORE_MASK_SCHEME_H_
#define FRAPP_CORE_MASK_SCHEME_H_

#include <memory>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/core/superset_counts.h"
#include "frapp/data/boolean_view.h"
#include "frapp/data/sharded_table.h"
#include "frapp/mining/apriori.h"
#include "frapp/mining/count_source.h"
#include "frapp/mining/vertical_index.h"
#include "frapp/random/rng.h"

namespace frapp {
namespace core {

/// The MASK mechanism: bit-flip perturbation plus tensor reconstruction.
class MaskScheme {
 public:
  /// `p` is the KEEP probability; requires p in (0.5, 1) so that the
  /// reconstruction matrix is invertible and well-oriented.
  static StatusOr<MaskScheme> Create(double p);

  /// Largest p satisfying the paper's privacy condition
  /// (p/(1-p))^(2M) <= gamma for M categorical attributes:
  /// p = t / (1 + t) with t = gamma^(1/(2M)).
  static StatusOr<MaskScheme> CalibrateForGamma(double gamma, size_t num_attributes);

  double keep_probability() const { return p_; }
  double flip_probability() const { return 1.0 - p_; }

  /// Record-level amplification (p/(1-p))^(2M) for M categorical attributes.
  double RecordAmplification(size_t num_attributes) const;

  /// Condition number of the k-itemset reconstruction matrix:
  /// (1 / (2p - 1))^k.
  double ConditionNumberForLength(size_t itemset_length) const;

  /// Flips every bit of the one-hot encoding of every row of `shard`
  /// independently with probability 1 - p, on the global seeded-chunk grid
  /// (core/seeded_chunking.h), straight into the bitmap planes of the
  /// shard's mining::VerticalIndex (one plane per one-hot bit). The output
  /// depends only on (rows, global position, seed), never on the thread
  /// count, and any chunk-aligned shard partition concatenates bit for bit
  /// to the whole table's.
  ///
  /// Within a chunk, draw i * B + b of the chunk's stream decides bit b of
  /// row i (B = one-hot width), exactly as in PerturbShardSeeded. Here each
  /// bit is one lane, a strided view of the chunk stream (Pcg64::Strided),
  /// several lanes step side by side, and each lane packs 64 rows' flips
  /// into one word that is XORed into its plane.
  StatusOr<mining::VerticalIndex> PerturbShardIndex(
      const data::ShardView& shard, uint64_t seed, size_t num_threads) const;

  /// Row-form oracle of PerturbShardIndex: flips every bit of every row of
  /// `onehot` (the one-hot encoding of one shard whose first row sits at
  /// the chunk-aligned global row `global_begin`), one NextBernoulli per
  /// bit in row order. The transpose of its output equals
  /// PerturbShardIndex's planes bit for bit.
  StatusOr<data::BooleanTable> PerturbShardSeeded(const data::BooleanTable& onehot,
                                                  size_t global_begin,
                                                  uint64_t seed,
                                                  size_t num_threads = 1) const;

  /// Reconstructs the original support FRACTION of the all-ones pattern on
  /// k bit positions (may be negative under noise) from the perturbed
  /// pattern counts: counts[idx] = #perturbed rows whose k bits equal
  /// pattern idx (bit b of idx = b-th itemset position), num_rows = table
  /// size. Applies the inverse flip transform along each bit axis.
  StatusOr<double> ReconstructFromPatternCounts(std::vector<double> counts,
                                               size_t num_rows) const;

 private:
  explicit MaskScheme(double p) : p_(p) {}

  double p_;
};

/// Support oracle plugging MASK into Apriori: per-candidate tensor
/// reconstruction from the exact-pattern counts of the candidate's one-hot
/// bits, which the Mobius fold derives from its superset counts
/// (SupersetCounter) over whatever count source holds the perturbed planes.
class MaskSupportEstimator : public mining::SupportEstimator {
 public:
  MaskSupportEstimator(const MaskScheme& scheme,
                       const data::CategoricalSchema& schema,
                       std::shared_ptr<mining::SupportCountSource> source)
      : scheme_(scheme), counter_(schema, std::move(source)) {}

  StatusOr<double> EstimateSupport(const mining::Itemset& itemset) override;

  /// Whole-pass batch: one SupersetCounter call (one source call for the
  /// pass's new sub-itemsets), then the Mobius fold and the reconstruction
  /// per candidate.
  StatusOr<std::vector<double>> EstimateSupports(
      const std::vector<mining::Itemset>& itemsets) override;

 private:
  MaskScheme scheme_;
  SupersetCounter counter_;
};

}  // namespace core
}  // namespace frapp

#endif  // FRAPP_CORE_MASK_SCHEME_H_
