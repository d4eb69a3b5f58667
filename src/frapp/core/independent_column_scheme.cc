#include "frapp/core/independent_column_scheme.h"

#include <cmath>

#include "frapp/core/seeded_chunking.h"
#include "frapp/data/domain_index.h"
#include "frapp/linalg/kronecker.h"

namespace frapp {
namespace core {

StatusOr<IndependentColumnScheme> IndependentColumnScheme::Create(
    const data::CategoricalSchema& schema, double gamma) {
  if (!(gamma > 1.0)) return Status::InvalidArgument("gamma must exceed 1");
  const double per_attr =
      std::pow(gamma, 1.0 / static_cast<double>(schema.num_attributes()));
  std::vector<double> stay(schema.num_attributes());
  for (size_t j = 0; j < stay.size(); ++j) {
    const double nj = static_cast<double>(schema.Cardinality(j));
    stay[j] = per_attr / (per_attr + nj - 1.0);
  }
  return IndependentColumnScheme(schema, gamma, per_attr, std::move(stay));
}

StatusOr<data::CategoricalTable> IndependentColumnScheme::PerturbShardSeeded(
    const data::ShardView& shard, uint64_t seed, size_t num_threads) const {
  return internal::PerturbShardColumns(shard, *this, seed, num_threads);
}

StatusOr<mining::VerticalIndex> IndependentColumnScheme::PerturbShardIndex(
    const data::ShardView& shard, uint64_t seed, size_t num_threads) const {
  return internal::PerturbShardBitmaps(shard, *this, seed, num_threads);
}

linalg::Matrix IndependentColumnScheme::AttributeMatrix(size_t attribute) const {
  const size_t card = schema_.Cardinality(attribute);
  const double x = 1.0 / (per_attribute_gamma_ + static_cast<double>(card) - 1.0);
  linalg::Matrix a(card, card, x);
  for (size_t i = 0; i < card; ++i) a(i, i) = per_attribute_gamma_ * x;
  return a;
}

double IndependentColumnScheme::ConditionNumberForAttributes(
    const std::vector<size_t>& attributes) const {
  double cond = 1.0;
  for (size_t j : attributes) {
    const double nj = static_cast<double>(schema_.Cardinality(j));
    cond *= (per_attribute_gamma_ + nj - 1.0) / (per_attribute_gamma_ - 1.0);
  }
  return cond;
}

StatusOr<double> IndependentColumnSupportEstimator::EstimateSupport(
    const mining::Itemset& itemset) {
  if (itemset.empty()) return Status::InvalidArgument("empty itemset");
  const uint32_t mask = itemset.AttributeMask();
  auto it = cache_.find(mask);
  if (it == cache_.end()) {
    const std::vector<size_t> attrs = itemset.AttributeIndices();
    FRAPP_ASSIGN_OR_RETURN(
        data::DomainIndexer indexer,
        data::DomainIndexer::OverSubset(scheme_.schema(), attrs));
    // Joint histogram over the subset domain as one batched counting pass:
    // cell u of the histogram is the support count of the itemset fixing
    // every subset attribute to u's categories. Integer counts summed over
    // shards — identical to a row scan of the perturbed table.
    const size_t domain = static_cast<size_t>(indexer.domain_size());
    std::vector<mining::Itemset> cells;
    cells.reserve(domain);
    for (size_t u = 0; u < domain; ++u) {
      const std::vector<size_t> values = indexer.Decode(static_cast<uint64_t>(u));
      std::vector<mining::Item> items;
      items.reserve(attrs.size());
      for (size_t a = 0; a < attrs.size(); ++a) {
        items.push_back(mining::Item{static_cast<uint16_t>(attrs[a]),
                                     static_cast<uint16_t>(values[a])});
      }
      cells.push_back(mining::Itemset::FromSortedUnchecked(std::move(items)));
    }
    FRAPP_ASSIGN_OR_RETURN(const std::vector<uint64_t> counts,
                           source_->CountSupports(cells));
    linalg::Vector y(domain);
    for (size_t u = 0; u < domain; ++u) y[u] = static_cast<double>(counts[u]);
    const double n = static_cast<double>(source_->num_rows());
    if (n > 0.0) y.Scale(1.0 / n);

    std::vector<linalg::Matrix> factors;
    factors.reserve(attrs.size());
    for (size_t j : attrs) factors.push_back(scheme_.AttributeMatrix(j));
    FRAPP_ASSIGN_OR_RETURN(linalg::Vector x, linalg::KroneckerSolve(factors, y));
    it = cache_.emplace(mask, std::move(x)).first;
  }

  // Index of the candidate's category combination within the subset domain.
  FRAPP_ASSIGN_OR_RETURN(
      data::DomainIndexer indexer,
      data::DomainIndexer::OverSubset(scheme_.schema(), itemset.AttributeIndices()));
  std::vector<size_t> values;
  values.reserve(itemset.size());
  for (const mining::Item& item : itemset.items()) values.push_back(item.category);
  return it->second[static_cast<size_t>(indexer.Encode(values))];
}

}  // namespace core
}  // namespace frapp
