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
#include "frapp/data/boolean_vertical_index.h"
#include "frapp/data/boolean_view.h"
#include "frapp/data/pattern_count_source.h"
#include "frapp/mining/apriori.h"
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

  /// Flips every bit of every row independently with probability 1 - p.
  StatusOr<data::BooleanTable> Perturb(const data::BooleanTable& table,
                                       random::Pcg64& rng) const;

  /// Deterministic seeded form: rows are split into the global seeded-chunk
  /// grid (core/seeded_chunking.h) and each chunk draws its own RNG stream,
  /// so the output depends only on (table, seed) — never on the thread
  /// count — and any chunk-aligned shard partition concatenates bit-for-bit
  /// to the monolithic pass.
  StatusOr<data::BooleanTable> PerturbSeeded(const data::BooleanTable& table,
                                             uint64_t seed,
                                             size_t num_threads = 1) const;

  /// Shard form of PerturbSeeded: perturbs all rows of `onehot` (the one-hot
  /// encoding of one shard) with the chunk streams of its global position.
  /// `global_begin` is the global row index of the shard's first row and
  /// must be chunk-aligned.
  StatusOr<data::BooleanTable> PerturbShardSeeded(const data::BooleanTable& onehot,
                                                  size_t global_begin,
                                                  uint64_t seed,
                                                  size_t num_threads = 1) const;

  /// Reconstructs the original count of the all-ones pattern on the given
  /// bit positions from the perturbed table: counts all 2^k patterns, then
  /// applies the inverse flip transform along each bit axis. Returns the
  /// estimated support FRACTION (may be negative under noise).
  StatusOr<double> EstimateItemsetSupport(const data::BooleanTable& perturbed,
                                          const std::vector<size_t>& bit_positions) const;

  /// Inversion half of EstimateItemsetSupport, on precomputed pattern
  /// counts: counts[idx] = #perturbed rows whose k bits equal pattern idx
  /// (bit b of idx = b-th itemset position), num_rows = table size. Lets
  /// callers supply counts from a vertical index instead of a row scan.
  StatusOr<double> ReconstructFromPatternCounts(std::vector<double> counts,
                                               size_t num_rows) const;

 private:
  explicit MaskScheme(double p) : p_(p) {}

  double p_;
};

/// Support oracle plugging MASK into Apriori: one-hot layout resolution plus
/// per-candidate tensor reconstruction. Every pattern count comes from an
/// abstract PatternCountSource — a sharded vertical bitmap index of the
/// perturbed boolean database (no perturbed rows retained, which is what
/// lets the pipeline drop each shard's rows the moment they are indexed), or
/// a frapp/dist coordinator merging remote workers' vectors.
class MaskSupportEstimator : public mining::SupportEstimator {
 public:
  /// Reconstruction over whatever produces the total pattern counts.
  MaskSupportEstimator(const MaskScheme& scheme, data::BooleanLayout layout,
                       std::shared_ptr<data::PatternCountSource> source)
      : scheme_(scheme), layout_(std::move(layout)), source_(std::move(source)) {}

  StatusOr<double> EstimateSupport(const mining::Itemset& itemset) override;

  /// Whole-pass batch: resolves every candidate's bit positions, fetches
  /// all pattern counts through one PatternCountsBatch (a remote source
  /// turns that into a few candidate-block round trips instead of one per
  /// candidate), then reconstructs per candidate — identical arithmetic to
  /// the one-at-a-time path.
  StatusOr<std::vector<double>> EstimateSupports(
      const std::vector<mining::Itemset>& itemsets) override;

 private:
  MaskScheme scheme_;
  data::BooleanLayout layout_;
  std::shared_ptr<data::PatternCountSource> source_;
};

}  // namespace core
}  // namespace frapp

#endif  // FRAPP_CORE_MASK_SCHEME_H_
