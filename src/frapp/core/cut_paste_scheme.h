// The Cut-and-Paste (C&P) randomization operator (Evfimievski, Srikant,
// Agrawal & Gehrke, KDD 2002), the paper's second baseline (Section 3,
// Eq. 12; Section 7 uses K = 3, rho = 0.494 for gamma = 19).
//
// Operator, per boolean record t with m ones over an M_b-item universe:
//   1. draw j uniform on {0..K}; cut size z = min(j, m);
//   2. copy a uniformly random z-subset of t's items into the output;
//   3. paste every OTHER item of the universe — uncut items of t included —
//      independently with probability rho.
// (Step 3 covering uncut original items keeps the record-level transition
// matrix strictly positive, which the amplification constraint needs; see
// DESIGN.md on the reading of the paper's OCR-damaged Eq. 12.)
//
// Mining estimates a k-itemset's support from its PARTIAL supports: the
// (k+1)-vector of counts of records containing exactly q of the k items is
// pushed through the inverse of the (k+1)x(k+1) transition matrix Q, whose
// condition number grows exponentially with k — the second baseline
// pathology the gamma-diagonal matrix avoids.

#ifndef FRAPP_CORE_CUT_PASTE_SCHEME_H_
#define FRAPP_CORE_CUT_PASTE_SCHEME_H_

#include <map>
#include <memory>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/core/superset_counts.h"
#include "frapp/data/boolean_view.h"
#include "frapp/data/sharded_table.h"
#include "frapp/linalg/lu.h"
#include "frapp/linalg/matrix.h"
#include "frapp/mining/apriori.h"
#include "frapp/mining/count_source.h"
#include "frapp/mining/vertical_index.h"
#include "frapp/random/rng.h"

namespace frapp {
namespace core {

/// The C&P mechanism over records with exactly `record_items` ones out of
/// `universe_bits` boolean items (FRAPP's one-hot encoding guarantees this).
class CutPasteScheme {
 public:
  /// K >= 0 is the cut cutoff, rho in (0, 1) the paste probability.
  static StatusOr<CutPasteScheme> Create(size_t cutoff_k, double rho,
                                         size_t record_items, size_t universe_bits);

  size_t cutoff_k() const { return cutoff_k_; }
  double rho() const { return rho_; }
  size_t record_items() const { return record_items_; }
  size_t universe_bits() const { return universe_bits_; }

  /// P(cut size = z) under the min(uniform{0..K}, m) rule with m =
  /// record_items.
  double CutSizeProbability(size_t z) const;

  /// Applies the operator to the one-hot encoding of every row of `shard`
  /// on the global seeded-chunk grid (see core/seeded_chunking.h), writing
  /// each perturbed row straight into the bitmap planes of the shard's
  /// mining::VerticalIndex (one plane per one-hot bit). The output depends
  /// only on (rows, global position, seed), and any chunk-aligned shard
  /// partition concatenates bit for bit. The shard's one-hot width must be
  /// universe_bits().
  StatusOr<mining::VerticalIndex> PerturbShardIndex(
      const data::ShardView& shard, uint64_t seed, size_t num_threads) const;

  /// Row-form oracle of PerturbShardIndex over `onehot` (one shard's one-hot
  /// encoding whose first row sits at the chunk-aligned global row
  /// `global_begin`): the same draws, into a BooleanTable whose transpose
  /// equals PerturbShardIndex's planes bit for bit.
  StatusOr<data::BooleanTable> PerturbShardSeeded(const data::BooleanTable& onehot,
                                                  size_t global_begin,
                                                  uint64_t seed,
                                                  size_t num_threads = 1) const;

  /// The (k+1)x(k+1) partial-support transition matrix Q for k-itemsets:
  /// Q[q'][q] = P(perturbed record has q' of the k items | original has q).
  StatusOr<linalg::Matrix> PartialSupportMatrix(size_t itemset_length) const;

  /// Spectral condition number of PartialSupportMatrix(k).
  StatusOr<double> ConditionNumberForLength(size_t itemset_length) const;

  /// Estimates a k-itemset's support fraction by solving Q x = y on its
  /// partial-support histogram: y[j] = #perturbed rows containing exactly j
  /// of the k items, num_rows = table size. For k > K the system is
  /// structurally singular (only the <= K cut items carry itemset
  /// information through the channel) and the estimate is 0 — the paper's
  /// "C&P does not work after 3-length itemsets" behaviour.
  StatusOr<double> ReconstructFromHitHistogram(const linalg::Vector& y,
                                               size_t num_rows,
                                               size_t itemset_length) const;

  /// Record-level amplification max_v max_{u1,u2} A_vu1 / A_vu2, computed
  /// from the closed-form transition probability (depends on records only
  /// through overlap q = |u ^ v| and weight l_v = |v|).
  double RecordAmplification() const;

  /// Smallest rho in (0, 1) whose amplification stays within gamma
  /// (amplification is decreasing in rho, and smaller rho pastes less
  /// noise), found by grid scan plus bisection; NotFound when no rho
  /// qualifies.
  static StatusOr<double> CalibrateRho(size_t cutoff_k, size_t record_items,
                                       size_t universe_bits, double gamma);

 private:
  CutPasteScheme(size_t cutoff_k, double rho, size_t record_items,
                 size_t universe_bits)
      : cutoff_k_(cutoff_k),
        rho_(rho),
        record_items_(record_items),
        universe_bits_(universe_bits) {}

  size_t cutoff_k_;
  double rho_;
  size_t record_items_;
  size_t universe_bits_;
};

/// Support oracle plugging C&P into Apriori: per-candidate solve on the
/// partial-support histogram of the candidate's one-hot bits, which the
/// Mobius and popcount folds derive from its superset counts
/// (SupersetCounter) over whatever count source holds the perturbed planes.
class CutPasteSupportEstimator : public mining::SupportEstimator {
 public:
  CutPasteSupportEstimator(const CutPasteScheme& scheme,
                           const data::CategoricalSchema& schema,
                           std::shared_ptr<mining::SupportCountSource> source)
      : scheme_(scheme), counter_(schema, std::move(source)) {}

  StatusOr<double> EstimateSupport(const mining::Itemset& itemset) override;

  /// Whole-pass batch: one SupersetCounter call over the candidates of
  /// length <= K (longer ones are unreconstructible and stay 0), then the
  /// folds and the solve per candidate.
  StatusOr<std::vector<double>> EstimateSupports(
      const std::vector<mining::Itemset>& itemsets) override;

 private:
  CutPasteScheme scheme_;
  SupersetCounter counter_;
};

}  // namespace core
}  // namespace frapp

#endif  // FRAPP_CORE_CUT_PASTE_SCHEME_H_
