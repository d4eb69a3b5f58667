#include "frapp/core/mechanism.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

namespace frapp {
namespace core {

namespace {

// Domain size of an itemset's attribute subset.
uint64_t SubsetDomainSize(const data::CategoricalSchema& schema,
                          const mining::Itemset& itemset) {
  uint64_t size = 1;
  for (const mining::Item& item : itemset.items()) {
    size *= static_cast<uint64_t>(schema.Cardinality(item.attribute));
  }
  return size;
}

}  // namespace

StatusOr<data::CategoricalTable> Mechanism::PerturbShard(const data::ShardView&,
                                                         uint64_t, size_t) {
  return Status::Unimplemented(name() + " has no categorical row form");
}

void ShardIndexes::Append(ShardIndexes&& other) {
  std::move(other.shards.begin(), other.shards.end(),
            std::back_inserter(shards));
  num_rows += other.num_rows;
}

size_t ShardIndexes::MemoryBytes() const {
  size_t bytes = sizeof(ShardIndexes);
  for (const mining::VerticalIndex& shard : shards) {
    bytes += sizeof(shard) + shard.MemoryBytes();
  }
  return bytes;
}

Status PerturbIntoIndex(Mechanism& mechanism, const data::ShardView& shard,
                        uint64_t seed, size_t num_threads, ShardIndexes& out) {
  if (shard.size() == 0) return Status::OK();
  FRAPP_ASSIGN_OR_RETURN(mining::VerticalIndex index,
                         mechanism.PerturbShardIndex(shard, seed, num_threads));
  out.shards.push_back(std::move(index));
  out.num_rows += shard.size();
  return Status::OK();
}

StatusOr<double> GammaSupportEstimator::EstimateSupport(
    const mining::Itemset& itemset) {
  FRAPP_ASSIGN_OR_RETURN(const std::vector<double> supports,
                         EstimateSupports({itemset}));
  return supports[0];
}

StatusOr<std::vector<double>> GammaSupportEstimator::EstimateSupports(
    const std::vector<mining::Itemset>& itemsets) {
  // Whole-pass counting over the source (shard-parallel locally, fanned out
  // and merged remotely), then the per-candidate closed-form inverse (cheap
  // scalar math) on the TOTAL fraction — one division and one inverse per
  // candidate regardless of where the counts came from, so results match
  // bit for bit across placements.
  FRAPP_ASSIGN_OR_RETURN(const std::vector<uint64_t> counts,
                         source_->CountSupports(itemsets));
  const double n = static_cast<double>(source_->num_rows());
  std::vector<double> supports(itemsets.size());
  for (size_t c = 0; c < itemsets.size(); ++c) {
    const double fraction = n == 0.0 ? 0.0 : static_cast<double>(counts[c]) / n;
    FRAPP_ASSIGN_OR_RETURN(
        supports[c], reconstructor_.ReconstructSupport(
                         fraction, SubsetDomainSize(schema_, itemsets[c])));
  }
  return supports;
}

// ---------------------------------------------------------------- DET-GD --

StatusOr<std::unique_ptr<DetGdMechanism>> DetGdMechanism::Create(
    const data::CategoricalSchema& schema, double gamma) {
  FRAPP_ASSIGN_OR_RETURN(GammaDiagonalPerturber perturber,
                         GammaDiagonalPerturber::Create(schema, gamma));
  FRAPP_ASSIGN_OR_RETURN(GammaSubsetReconstructor reconstructor,
                         GammaSubsetReconstructor::Create(gamma, schema.DomainSize()));
  return std::unique_ptr<DetGdMechanism>(new DetGdMechanism(
      schema, gamma, std::move(perturber), std::move(reconstructor)));
}

StatusOr<double> DetGdMechanism::ConditionNumberForLength(size_t) const {
  // Length-independent: (gamma + n_C - 1) / (gamma - 1) for every subset.
  return reconstructor_.ConditionNumber();
}

StatusOr<data::CategoricalTable> DetGdMechanism::PerturbShard(
    const data::ShardView& shard, uint64_t seed, size_t num_threads) {
  return perturber_.PerturbShardSeeded(shard, seed, num_threads);
}

StatusOr<mining::VerticalIndex> DetGdMechanism::PerturbShardIndex(
    const data::ShardView& shard, uint64_t seed, size_t num_threads) {
  return perturber_.PerturbShardIndex(shard, seed, num_threads);
}

StatusOr<std::unique_ptr<mining::SupportEstimator>>
DetGdMechanism::MakeCountSourceEstimator(
    std::shared_ptr<mining::SupportCountSource> source) {
  return std::unique_ptr<mining::SupportEstimator>(
      std::make_unique<GammaSupportEstimator>(schema_, reconstructor_,
                                              std::move(source)));
}

// ---------------------------------------------------------------- RAN-GD --

StatusOr<std::unique_ptr<RanGdMechanism>> RanGdMechanism::Create(
    const data::CategoricalSchema& schema, double gamma, double alpha,
    random::RandomizationKind kind) {
  FRAPP_ASSIGN_OR_RETURN(RandomizedGammaPerturber perturber,
                         RandomizedGammaPerturber::Create(schema, gamma, alpha, kind));
  FRAPP_ASSIGN_OR_RETURN(GammaSubsetReconstructor reconstructor,
                         GammaSubsetReconstructor::Create(gamma, schema.DomainSize()));
  return std::unique_ptr<RanGdMechanism>(new RanGdMechanism(
      schema, gamma, std::move(perturber), std::move(reconstructor)));
}

StatusOr<double> RanGdMechanism::ConditionNumberForLength(size_t) const {
  // Reconstruction uses E[A~] = the deterministic gamma-diagonal matrix, so
  // the condition number equals DET-GD's (paper Section 7 / Figure 4).
  return reconstructor_.ConditionNumber();
}

StatusOr<data::CategoricalTable> RanGdMechanism::PerturbShard(
    const data::ShardView& shard, uint64_t seed, size_t num_threads) {
  return perturber_.PerturbShardSeeded(shard, seed, num_threads);
}

StatusOr<mining::VerticalIndex> RanGdMechanism::PerturbShardIndex(
    const data::ShardView& shard, uint64_t seed, size_t num_threads) {
  return perturber_.PerturbShardIndex(shard, seed, num_threads);
}

StatusOr<std::unique_ptr<mining::SupportEstimator>>
RanGdMechanism::MakeCountSourceEstimator(
    std::shared_ptr<mining::SupportCountSource> source) {
  return std::unique_ptr<mining::SupportEstimator>(
      std::make_unique<GammaSupportEstimator>(schema_, reconstructor_,
                                              std::move(source)));
}

double RanGdMechanism::Amplification() const {
  // Worst realization: diagonal gamma x + alpha against off-diagonal
  // x - alpha/(n-1).
  const double x = perturber_.expected_matrix().x();
  const double n =
      static_cast<double>(perturber_.expected_matrix().domain_size());
  const double off = x - perturber_.alpha() / (n - 1.0);
  if (off <= 0.0) return std::numeric_limits<double>::infinity();
  return (gamma_ * x + perturber_.alpha()) / off;
}

// ------------------------------------------------------------------ MASK --

StatusOr<std::unique_ptr<MaskMechanism>> MaskMechanism::Create(
    const data::CategoricalSchema& schema, double gamma) {
  FRAPP_ASSIGN_OR_RETURN(MaskScheme scheme,
                         MaskScheme::CalibrateForGamma(gamma, schema.num_attributes()));
  return std::unique_ptr<MaskMechanism>(new MaskMechanism(schema, scheme));
}

StatusOr<mining::VerticalIndex> MaskMechanism::PerturbShardIndex(
    const data::ShardView& shard, uint64_t seed, size_t num_threads) {
  return scheme_.PerturbShardIndex(shard, seed, num_threads);
}

StatusOr<std::unique_ptr<mining::SupportEstimator>>
MaskMechanism::MakeCountSourceEstimator(
    std::shared_ptr<mining::SupportCountSource> source) {
  return std::unique_ptr<mining::SupportEstimator>(
      std::make_unique<MaskSupportEstimator>(scheme_, schema_,
                                             std::move(source)));
}

StatusOr<double> MaskMechanism::ConditionNumberForLength(size_t length) const {
  if (length == 0) return Status::InvalidArgument("length must be >= 1");
  return scheme_.ConditionNumberForLength(length);
}

double MaskMechanism::Amplification() const {
  return scheme_.RecordAmplification(schema_.num_attributes());
}

// ------------------------------------------------------------------- C&P --

StatusOr<std::unique_ptr<CutPasteMechanism>> CutPasteMechanism::Create(
    const data::CategoricalSchema& schema, size_t cutoff_k, double rho) {
  data::BooleanLayout layout(schema);
  FRAPP_ASSIGN_OR_RETURN(
      CutPasteScheme scheme,
      CutPasteScheme::Create(cutoff_k, rho, schema.num_attributes(),
                             layout.num_bits()));
  return std::unique_ptr<CutPasteMechanism>(
      new CutPasteMechanism(schema, std::move(scheme)));
}

StatusOr<mining::VerticalIndex> CutPasteMechanism::PerturbShardIndex(
    const data::ShardView& shard, uint64_t seed, size_t num_threads) {
  return scheme_.PerturbShardIndex(shard, seed, num_threads);
}

StatusOr<std::unique_ptr<mining::SupportEstimator>>
CutPasteMechanism::MakeCountSourceEstimator(
    std::shared_ptr<mining::SupportCountSource> source) {
  return std::unique_ptr<mining::SupportEstimator>(
      std::make_unique<CutPasteSupportEstimator>(scheme_, schema_,
                                                 std::move(source)));
}

StatusOr<double> CutPasteMechanism::ConditionNumberForLength(size_t length) const {
  return scheme_.ConditionNumberForLength(length);
}

double CutPasteMechanism::Amplification() const {
  return scheme_.RecordAmplification();
}

// ---------------------------------------------------------------- IND-GD --

StatusOr<std::unique_ptr<IndependentColumnMechanism>>
IndependentColumnMechanism::Create(const data::CategoricalSchema& schema,
                                   double gamma) {
  FRAPP_ASSIGN_OR_RETURN(IndependentColumnScheme scheme,
                         IndependentColumnScheme::Create(schema, gamma));
  return std::unique_ptr<IndependentColumnMechanism>(
      new IndependentColumnMechanism(schema, std::move(scheme)));
}

StatusOr<data::CategoricalTable> IndependentColumnMechanism::PerturbShard(
    const data::ShardView& shard, uint64_t seed, size_t num_threads) {
  return scheme_.PerturbShardSeeded(shard, seed, num_threads);
}

StatusOr<mining::VerticalIndex> IndependentColumnMechanism::PerturbShardIndex(
    const data::ShardView& shard, uint64_t seed, size_t num_threads) {
  return scheme_.PerturbShardIndex(shard, seed, num_threads);
}

StatusOr<std::unique_ptr<mining::SupportEstimator>>
IndependentColumnMechanism::MakeCountSourceEstimator(
    std::shared_ptr<mining::SupportCountSource> source) {
  return std::unique_ptr<mining::SupportEstimator>(
      std::make_unique<IndependentColumnSupportEstimator>(scheme_,
                                                          std::move(source)));
}

StatusOr<double> IndependentColumnMechanism::ConditionNumberForLength(
    size_t length) const {
  const size_t m = schema_.num_attributes();
  if (length == 0 || length > m) {
    return Status::InvalidArgument("length out of range");
  }
  // Geometric mean over all attribute subsets of this size.
  double log_sum = 0.0;
  size_t count = 0;
  std::vector<size_t> subset(length);
  for (size_t i = 0; i < length; ++i) subset[i] = i;
  while (true) {
    log_sum += std::log(scheme_.ConditionNumberForAttributes(subset));
    ++count;
    // Next lexicographic combination of {0..m-1} choose `length`.
    bool advanced = false;
    for (size_t i = length; i-- > 0;) {
      if (subset[i] < i + m - length) {
        ++subset[i];
        for (size_t j = i + 1; j < length; ++j) subset[j] = subset[j - 1] + 1;
        advanced = true;
        break;
      }
    }
    if (!advanced) break;
  }
  return std::exp(log_sum / static_cast<double>(count));
}

double IndependentColumnMechanism::Amplification() const {
  return scheme_.gamma();
}

}  // namespace core
}  // namespace frapp
