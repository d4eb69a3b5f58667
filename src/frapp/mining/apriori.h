// Apriori frequent-itemset mining (Agrawal & Srikant, VLDB'94) with a
// pluggable support oracle.
//
// The paper's privacy-preserving pipeline (Section 7) is exactly this: run
// Apriori bottom-up, but at the end of every pass reconstruct the original
// supports from the perturbed-database supports. Plugging in an exact
// estimator mines the true frequent itemsets; plugging in a mechanism's
// reconstructing estimator mines the privacy-preserving result.

#ifndef FRAPP_MINING_APRIORI_H_
#define FRAPP_MINING_APRIORI_H_

#include <memory>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/data/schema.h"
#include "frapp/data/table.h"
#include "frapp/mining/itemset.h"
#include "frapp/mining/sharded_vertical_index.h"
#include "frapp/mining/vertical_index.h"

namespace frapp {
namespace mining {

/// Oracle answering "what is the (possibly reconstructed) support fraction
/// of this itemset?". Estimates may be negative or exceed 1 for noisy
/// reconstructions; Apriori only compares them against the threshold.
class SupportEstimator {
 public:
  virtual ~SupportEstimator() = default;

  /// Support estimate for one itemset, as a fraction of records.
  virtual StatusOr<double> EstimateSupport(const Itemset& itemset) = 0;

  /// Batch estimate for a whole Apriori pass's candidate list. The default
  /// loops over EstimateSupport; estimators with a vertical index override
  /// this to count the entire list without rescanning rows.
  virtual StatusOr<std::vector<double>> EstimateSupports(
      const std::vector<Itemset>& itemsets);
};

/// Exact estimator backed by a sharded vertical bitmap index over the table
/// (the miner's ground truth). With the defaults (one shard, one thread) it
/// behaves exactly like the former monolithic-index estimator; more shards
/// and threads parallelize every candidate-counting pass with bit-identical
/// results.
class ExactSupportEstimator : public SupportEstimator {
 public:
  /// Builds the per-shard indexes in one pass; the table must outlive the
  /// estimator. `num_threads` 0 = hardware concurrency.
  explicit ExactSupportEstimator(const data::CategoricalTable& table,
                                 size_t num_shards = 1, size_t num_threads = 1)
      : index_(ShardedVerticalIndex::Build(table, num_shards, num_threads)),
        num_threads_(num_threads) {}

  StatusOr<double> EstimateSupport(const Itemset& itemset) override;
  StatusOr<std::vector<double>> EstimateSupports(
      const std::vector<Itemset>& itemsets) override;

 private:
  ShardedVerticalIndex index_;
  size_t num_threads_;
};

struct AprioriOptions {
  /// supmin as a fraction (the paper uses 0.02).
  double min_support = 0.02;

  /// Stop after this itemset length; 0 = no cap (bounded by M anyway).
  size_t max_length = 0;

  /// Row shards for the exact counting substrate (MineExact). Results are
  /// bit-identical for every value; more shards expose more parallelism.
  size_t count_shards = 1;

  /// Worker threads for shard-parallel candidate counting (0 = hardware
  /// concurrency). Results are bit-identical for every value.
  size_t num_threads = 1;
};

/// A discovered frequent itemset with its (estimated) support fraction.
struct FrequentItemset {
  Itemset itemset;
  double support;
};

/// Mining output, grouped by itemset length.
struct AprioriResult {
  /// by_length[k-1] = frequent itemsets of length k, sorted.
  std::vector<std::vector<FrequentItemset>> by_length;

  /// Candidates evaluated per pass (diagnostics).
  std::vector<size_t> candidates_per_pass;

  /// Total frequent itemsets across lengths.
  size_t TotalFrequent() const;

  /// All frequent itemsets of length k (empty when none).
  const std::vector<FrequentItemset>& OfLength(size_t k) const;

  /// Longest length with at least one frequent itemset (0 when none).
  size_t MaxLength() const;
};

/// Apriori candidate generation (the VLDB'94 join + prune): combines
/// itemsets of `frequent` — which MUST be sorted by itemset — that share
/// their first k-1 items, skips same-attribute clashes, and prunes any
/// candidate with a k-subset missing from `frequent` (binary search over the
/// sorted list; no per-probe allocation). Exposed for its oracle test; every
/// engine reaches it only through MineFrequentItemsets. It is monotone in its
/// input (a subset of `frequent` yields a subset of the candidates), which
/// is what lets the count store run the walk twice — at its retention
/// threshold and at supmin — over one memoized count source.
std::vector<Itemset> GenerateCandidates(
    const std::vector<FrequentItemset>& frequent);

/// Runs Apriori over the schema's item universe using `estimator` as the
/// support oracle.
StatusOr<AprioriResult> MineFrequentItemsets(const data::CategoricalSchema& schema,
                                             SupportEstimator& estimator,
                                             const AprioriOptions& options);

/// Convenience: exact mining of `table`.
StatusOr<AprioriResult> MineExact(const data::CategoricalTable& table,
                                  const AprioriOptions& options);

}  // namespace mining
}  // namespace frapp

#endif  // FRAPP_MINING_APRIORI_H_
