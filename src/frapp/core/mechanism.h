// Unified mechanism layer: one object per perturbation technique bundling
// (a) the client side, which perturbs a row shard into its index, and (b)
// the miner side, a reconstructing support estimator over count totals that
// plugs into Apriori. This is the layer the paper's Section 7 experiments
// exercise with DET-GD, RAN-GD, MASK and C&P.

#ifndef FRAPP_CORE_MECHANISM_H_
#define FRAPP_CORE_MECHANISM_H_

#include <memory>
#include <string>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/core/cut_paste_scheme.h"
#include "frapp/core/gamma_diagonal.h"
#include "frapp/core/independent_column_scheme.h"
#include "frapp/core/mask_scheme.h"
#include "frapp/core/randomized_gamma.h"
#include "frapp/core/subset_reconstruction.h"
#include "frapp/data/boolean_view.h"
#include "frapp/data/boolean_vertical_index.h"
#include "frapp/data/pattern_count_source.h"
#include "frapp/data/sharded_table.h"
#include "frapp/data/table.h"
#include "frapp/mining/apriori.h"
#include "frapp/mining/count_source.h"
#include "frapp/mining/vertical_index.h"

namespace frapp {
namespace core {

/// A complete privacy-preserving mining mechanism.
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Display name ("DET-GD", "RAN-GD", "MASK", "C&P", ...).
  virtual std::string name() const = 0;

  /// Condition number of the reconstruction matrix used for itemsets of
  /// length k (Figure 4's quantity). Mechanisms whose per-subset matrices
  /// differ report a representative (geometric mean over subsets).
  virtual StatusOr<double> ConditionNumberForLength(size_t length) const = 0;

  /// Record-level amplification actually delivered (<= the configured gamma).
  virtual double Amplification() const = 0;

  // --- One client path, one miner path -----------------------------------
  //
  // FRAPP's perturbation is per-record and every reconstruction input is a
  // row-partitionable count. So every mechanism has one client path, which
  // perturbs a chunk-aligned row shard into its index (PerturbIntoIndex
  // below), and one miner path, which reconstructs from total count vectors
  // (Make(Boolean)CountSourceEstimator), wherever the counts were summed. A
  // mechanism declares which index it builds: categorical shards perturb
  // straight into mining::VerticalIndex bitmap planes (DET-GD, RAN-GD,
  // IND-GD); one-hot boolean rows are indexed by data::BooleanVerticalIndex
  // (MASK, C&P). The sequential Perturb(table, rng) forms of the perturbers
  // and schemes remain as statistical oracles for tests and ablation benches.

  /// Representation of a perturbed shard.
  enum class ShardKind { kCategorical, kBoolean };

  /// Which index this mechanism's shards perturb into.
  virtual ShardKind shard_kind() const { return ShardKind::kCategorical; }

  /// Client side of one categorical shard: perturbs the rows of `shard`
  /// under the seeded-chunk determinism contract (global chunk indexing via
  /// shard.global_begin, so any chunk-aligned partition concatenates to the
  /// monolithic seeded output). Only for shard_kind() == kCategorical.
  virtual StatusOr<data::CategoricalTable> PerturbShard(
      const data::ShardView& shard, uint64_t seed, size_t num_threads);

  /// PerturbShard fused with mining::VerticalIndex::Build: the same seeded
  /// draws, written straight into the shard's bitmap planes, so no
  /// perturbed rows are materialized. raw_bits() equals that of
  /// VerticalIndex::Build(*PerturbShard(shard, seed, n)) for every thread
  /// count. Only for shard_kind() == kCategorical.
  virtual StatusOr<mining::VerticalIndex> PerturbShardIndex(
      const data::ShardView& shard, uint64_t seed, size_t num_threads);

  /// Client side of one boolean shard: one-hot encodes the shard's rows and
  /// perturbs the bits under the same contract. Only for shard_kind() ==
  /// kBoolean.
  virtual StatusOr<data::BooleanTable> PerturbBooleanShard(
      const data::ShardView& shard, uint64_t seed, size_t num_threads);

  /// Miner side over an ABSTRACT count source: the mechanism's
  /// reconstruction fed by total integer count vectors, wherever they come
  /// from — a mining::LocalSupportCountSource over the perturbed shards'
  /// indexes, a count store, or a frapp/dist coordinator merging per-worker
  /// vectors. Because reconstruction consumes only the totals, the result
  /// is bit-identical across those placements. Only for shard_kind() ==
  /// kCategorical.
  virtual StatusOr<std::unique_ptr<mining::SupportEstimator>>
  MakeCountSourceEstimator(std::shared_ptr<mining::SupportCountSource> source);

  /// Boolean counterpart (pattern-count vectors). Only for shard_kind() ==
  /// kBoolean.
  virtual StatusOr<std::unique_ptr<mining::SupportEstimator>>
  MakeBooleanCountSourceEstimator(
      std::shared_ptr<data::PatternCountSource> source);
};

/// DET-GD: deterministic gamma-diagonal matrix (paper Sections 3, 5, 6).
class DetGdMechanism : public Mechanism {
 public:
  static StatusOr<std::unique_ptr<DetGdMechanism>> Create(
      const data::CategoricalSchema& schema, double gamma);

  std::string name() const override { return "DET-GD"; }
  StatusOr<double> ConditionNumberForLength(size_t length) const override;
  double Amplification() const override { return gamma_; }

  StatusOr<data::CategoricalTable> PerturbShard(
      const data::ShardView& shard, uint64_t seed, size_t num_threads) override;
  StatusOr<mining::VerticalIndex> PerturbShardIndex(
      const data::ShardView& shard, uint64_t seed, size_t num_threads) override;
  StatusOr<std::unique_ptr<mining::SupportEstimator>> MakeCountSourceEstimator(
      std::shared_ptr<mining::SupportCountSource> source) override;

  const GammaDiagonalPerturber& perturber() const { return perturber_; }

 private:
  DetGdMechanism(data::CategoricalSchema schema, double gamma,
                 GammaDiagonalPerturber perturber, GammaSubsetReconstructor rec)
      : schema_(std::move(schema)),
        gamma_(gamma),
        perturber_(std::move(perturber)),
        reconstructor_(std::move(rec)) {}

  data::CategoricalSchema schema_;
  double gamma_;
  GammaDiagonalPerturber perturber_;
  GammaSubsetReconstructor reconstructor_;
};

/// RAN-GD: randomized gamma-diagonal matrix (paper Section 4). Identical
/// miner side to DET-GD (reconstruction uses the expected matrix).
class RanGdMechanism : public Mechanism {
 public:
  static StatusOr<std::unique_ptr<RanGdMechanism>> Create(
      const data::CategoricalSchema& schema, double gamma, double alpha,
      random::RandomizationKind kind = random::RandomizationKind::kUniform);

  std::string name() const override { return "RAN-GD"; }
  StatusOr<double> ConditionNumberForLength(size_t length) const override;
  double Amplification() const override;

  StatusOr<data::CategoricalTable> PerturbShard(
      const data::ShardView& shard, uint64_t seed, size_t num_threads) override;
  StatusOr<mining::VerticalIndex> PerturbShardIndex(
      const data::ShardView& shard, uint64_t seed, size_t num_threads) override;
  StatusOr<std::unique_ptr<mining::SupportEstimator>> MakeCountSourceEstimator(
      std::shared_ptr<mining::SupportCountSource> source) override;

  const RandomizedGammaPerturber& perturber() const { return perturber_; }

 private:
  RanGdMechanism(data::CategoricalSchema schema, double gamma,
                 RandomizedGammaPerturber perturber, GammaSubsetReconstructor rec)
      : schema_(std::move(schema)),
        gamma_(gamma),
        perturber_(std::move(perturber)),
        reconstructor_(std::move(rec)) {}

  data::CategoricalSchema schema_;
  double gamma_;
  RandomizedGammaPerturber perturber_;
  GammaSubsetReconstructor reconstructor_;
};

/// MASK baseline (paper Section 7): boolean bit-flips + tensor inversion.
class MaskMechanism : public Mechanism {
 public:
  /// Calibrates p to the gamma constraint for the schema's attribute count.
  static StatusOr<std::unique_ptr<MaskMechanism>> Create(
      const data::CategoricalSchema& schema, double gamma);

  std::string name() const override { return "MASK"; }
  StatusOr<double> ConditionNumberForLength(size_t length) const override;
  double Amplification() const override;

  ShardKind shard_kind() const override { return ShardKind::kBoolean; }
  StatusOr<data::BooleanTable> PerturbBooleanShard(
      const data::ShardView& shard, uint64_t seed, size_t num_threads) override;
  StatusOr<std::unique_ptr<mining::SupportEstimator>>
  MakeBooleanCountSourceEstimator(
      std::shared_ptr<data::PatternCountSource> source) override;

  const MaskScheme& scheme() const { return scheme_; }

 private:
  MaskMechanism(data::CategoricalSchema schema, MaskScheme scheme)
      : schema_(std::move(schema)),
        scheme_(scheme),
        layout_(schema_) {}

  data::CategoricalSchema schema_;
  MaskScheme scheme_;
  data::BooleanLayout layout_;
};

/// Cut-and-Paste baseline (paper Section 7: K = 3, rho = 0.494).
class CutPasteMechanism : public Mechanism {
 public:
  static StatusOr<std::unique_ptr<CutPasteMechanism>> Create(
      const data::CategoricalSchema& schema, size_t cutoff_k, double rho);

  std::string name() const override { return "C&P"; }
  StatusOr<double> ConditionNumberForLength(size_t length) const override;
  double Amplification() const override;

  ShardKind shard_kind() const override { return ShardKind::kBoolean; }
  StatusOr<data::BooleanTable> PerturbBooleanShard(
      const data::ShardView& shard, uint64_t seed, size_t num_threads) override;
  StatusOr<std::unique_ptr<mining::SupportEstimator>>
  MakeBooleanCountSourceEstimator(
      std::shared_ptr<data::PatternCountSource> source) override;

  const CutPasteScheme& scheme() const { return scheme_; }

 private:
  CutPasteMechanism(data::CategoricalSchema schema, CutPasteScheme scheme)
      : schema_(std::move(schema)),
        scheme_(std::move(scheme)),
        layout_(schema_) {}

  data::CategoricalSchema schema_;
  CutPasteScheme scheme_;
  data::BooleanLayout layout_;
};

/// Independent-column gamma ablation (see independent_column_scheme.h).
class IndependentColumnMechanism : public Mechanism {
 public:
  static StatusOr<std::unique_ptr<IndependentColumnMechanism>> Create(
      const data::CategoricalSchema& schema, double gamma);

  std::string name() const override { return "IND-GD"; }
  StatusOr<double> ConditionNumberForLength(size_t length) const override;
  double Amplification() const override;

  StatusOr<data::CategoricalTable> PerturbShard(
      const data::ShardView& shard, uint64_t seed, size_t num_threads) override;
  StatusOr<mining::VerticalIndex> PerturbShardIndex(
      const data::ShardView& shard, uint64_t seed, size_t num_threads) override;
  StatusOr<std::unique_ptr<mining::SupportEstimator>> MakeCountSourceEstimator(
      std::shared_ptr<mining::SupportCountSource> source) override;

 private:
  IndependentColumnMechanism(data::CategoricalSchema schema,
                             IndependentColumnScheme scheme)
      : schema_(std::move(schema)), scheme_(std::move(scheme)) {}

  data::CategoricalSchema schema_;
  IndependentColumnScheme scheme_;
};

/// Support oracle shared by DET-GD and RAN-GD: counts the candidate's
/// support in the perturbed categorical database and applies the Eq. 28
/// closed-form inverse. Counting runs over an abstract SupportCountSource
/// (local sharded bitmap index, count store, or a frapp/dist coordinator's
/// merged remote vectors); the inverse needs only the TOTAL perturbed
/// count, so the reconstructed supports are bit-identical for every shard,
/// thread and worker count.
class GammaSupportEstimator : public mining::SupportEstimator {
 public:
  GammaSupportEstimator(const data::CategoricalSchema& schema,
                        GammaSubsetReconstructor reconstructor,
                        std::shared_ptr<mining::SupportCountSource> source)
      : schema_(schema),
        reconstructor_(std::move(reconstructor)),
        source_(std::move(source)) {}

  StatusOr<double> EstimateSupport(const mining::Itemset& itemset) override;
  StatusOr<std::vector<double>> EstimateSupports(
      const std::vector<mining::Itemset>& itemsets) override;

 private:
  const data::CategoricalSchema& schema_;
  GammaSubsetReconstructor reconstructor_;
  std::shared_ptr<mining::SupportCountSource> source_;
};

/// Per-shard indexes of perturbed shards, in global row order: what the
/// client side hands the miner. Only the vector matching the mechanism's
/// shard kind is filled.
struct ShardIndexes {
  std::vector<mining::VerticalIndex> categorical;
  std::vector<data::BooleanVerticalIndex> boolean;
  size_t num_rows = 0;

  /// Moves `other`'s indexes (not their planes' bytes) onto the end.
  void Append(ShardIndexes&& other);

  /// Approximate heap footprint: what a cache entry holding the indexes
  /// charges against a byte budget.
  size_t MemoryBytes() const;
};

/// The one perturb-into-index step of every engine: perturbs `shard` under
/// the seeded-chunk contract and appends its index to `out`. A categorical
/// shard perturbs straight into VerticalIndex planes (PerturbShardIndex); a
/// boolean shard's perturbed one-hot rows (PerturbBooleanShard) are
/// transposed into a BooleanVerticalIndex and dropped. An empty shard
/// appends nothing.
Status PerturbIntoIndex(Mechanism& mechanism, const data::ShardView& shard,
                        uint64_t seed, size_t num_threads, ShardIndexes& out);

}  // namespace core
}  // namespace frapp

#endif  // FRAPP_CORE_MECHANISM_H_
