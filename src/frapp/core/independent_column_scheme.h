// Independent-column gamma perturbation (ablation).
//
// Paper Section 2 distinguishes independent column perturbation (each
// attribute perturbed on its own, as in prior techniques) from the dependent
// column perturbation FRAPP's gamma-diagonal implementation uses. This
// module implements the natural independent-column member of the FRAPP
// family: every attribute j gets its own gamma-diagonal matrix with
// per-attribute amplification gamma_j = gamma^(1/M), so the record-level
// matrix (the Kronecker product of the per-attribute matrices) still has
// amplification prod_j gamma_j = gamma.
//
// The record-level condition number is then prod_j (gamma_j + |S_j| - 1) /
// (gamma_j - 1), which grows EXPONENTIALLY with itemset length — this
// quantifies why FRAPP perturbs the record jointly. Used by the ablation
// bench.

#ifndef FRAPP_CORE_INDEPENDENT_COLUMN_SCHEME_H_
#define FRAPP_CORE_INDEPENDENT_COLUMN_SCHEME_H_

#include <map>
#include <memory>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/data/sharded_table.h"
#include "frapp/data/table.h"
#include "frapp/linalg/matrix.h"
#include "frapp/mining/apriori.h"
#include "frapp/mining/count_source.h"
#include "frapp/mining/vertical_index.h"
#include "frapp/random/rng.h"

namespace frapp {
namespace core {

/// Per-attribute gamma-diagonal perturbation with amplification budget split
/// evenly (geometrically) across attributes.
class IndependentColumnScheme {
 public:
  /// Requires gamma > 1. Per-attribute gamma_j = gamma^(1/M) must also
  /// exceed 1, which it does for gamma > 1.
  static StatusOr<IndependentColumnScheme> Create(
      const data::CategoricalSchema& schema, double gamma);

  double gamma() const { return gamma_; }
  double per_attribute_gamma() const { return per_attribute_gamma_; }

  /// Perturbs each column of the rows of `shard` independently with its
  /// gamma-diagonal matrix, on the global seeded-chunk grid (see
  /// core/seeded_chunking.h): the output depends only on (rows, global
  /// position, seed), and chunk-aligned partitions concatenate bit for bit.
  StatusOr<data::CategoricalTable> PerturbShardSeeded(
      const data::ShardView& shard, uint64_t seed, size_t num_threads = 1) const;

  /// PerturbShardSeeded fused with mining::VerticalIndex::Build: the same
  /// draws, written straight into the shard's bitmap planes.
  StatusOr<mining::VerticalIndex> PerturbShardIndex(
      const data::ShardView& shard, uint64_t seed, size_t num_threads = 1) const;

  /// The per-row sampler behind both shard forms (see
  /// core/seeded_chunking.h): each attribute value, in attribute order,
  /// through its own gamma-diagonal matrix — kept with probability stay_j,
  /// else replaced by one of the other card_j - 1 values uniformly.
  template <typename Emit>
  void SampleRow(const uint8_t* const* in_cols, size_t i, random::Pcg64& rng,
                 Emit&& emit) const {
    for (size_t j = 0; j < cardinalities_.size(); ++j) {
      const uint8_t original = in_cols[j][i];
      const size_t card = cardinalities_[j];
      if (card == 1 || rng.NextBernoulli(stay_[j])) {
        emit(j, original);
        continue;
      }
      size_t value = static_cast<size_t>(rng.NextBounded(card - 1));
      if (value >= original) ++value;
      emit(j, static_cast<uint8_t>(value));
    }
  }
  const std::vector<size_t>& cardinalities() const { return cardinalities_; }

  /// Dense per-attribute transition matrix (|S_j| x |S_j|).
  linalg::Matrix AttributeMatrix(size_t attribute) const;

  /// Condition number of the reconstruction matrix for an itemset over the
  /// given attributes: prod_j (gamma_j + |S_j| - 1) / (gamma_j - 1).
  double ConditionNumberForAttributes(const std::vector<size_t>& attributes) const;

  const data::CategoricalSchema& schema() const { return schema_; }

 private:
  IndependentColumnScheme(data::CategoricalSchema schema, double gamma,
                          double per_attribute_gamma, std::vector<double> stay)
      : schema_(std::move(schema)),
        gamma_(gamma),
        per_attribute_gamma_(per_attribute_gamma),
        cardinalities_(schema_.Cardinalities()),
        stay_(std::move(stay)) {}

  data::CategoricalSchema schema_;
  double gamma_;
  double per_attribute_gamma_;
  std::vector<size_t> cardinalities_;
  std::vector<double> stay_;  // per-attribute diagonal d_j = gamma_j * x_j
};

/// Support oracle for the independent-column scheme: reconstructs the joint
/// histogram over each candidate's attribute subset through the Kronecker
/// inverse of the per-attribute matrices, caching per attribute subset. The
/// joint histogram is assembled by batch-counting every category combination
/// of the subset domain against an abstract SupportCountSource (a sharded
/// vertical index of the perturbed table, or a frapp/dist coordinator's
/// merged remote vectors) — integer sums over any row partition, so no
/// perturbed rows are retained and results are shard-, thread- and
/// worker-count invariant.
class IndependentColumnSupportEstimator : public mining::SupportEstimator {
 public:
  /// Reconstruction over whatever produces the total counts; `scheme` must
  /// outlive the estimator.
  IndependentColumnSupportEstimator(
      const IndependentColumnScheme& scheme,
      std::shared_ptr<mining::SupportCountSource> source)
      : scheme_(scheme), source_(std::move(source)) {}

  StatusOr<double> EstimateSupport(const mining::Itemset& itemset) override;

 private:
  const IndependentColumnScheme& scheme_;
  std::shared_ptr<mining::SupportCountSource> source_;
  // attribute-mask -> reconstructed support fractions over the subset domain
  std::map<uint32_t, linalg::Vector> cache_;
};

}  // namespace core
}  // namespace frapp

#endif  // FRAPP_CORE_INDEPENDENT_COLUMN_SCHEME_H_
