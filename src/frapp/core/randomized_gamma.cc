#include "frapp/core/randomized_gamma.h"

#include "frapp/core/seeded_chunking.h"

namespace frapp {
namespace core {

StatusOr<RandomizedGammaPerturber> RandomizedGammaPerturber::Create(
    const data::CategoricalSchema& schema, double gamma, double alpha,
    random::RandomizationKind kind) {
  // The plan first: it rejects a joint domain that overflows 64 bits before
  // the matrix is sized from it.
  FRAPP_ASSIGN_OR_RETURN(
      GammaPerturbPlan plan,
      GammaPerturbPlan::Create(schema.Cardinalities(), schema.DomainSize()));
  FRAPP_ASSIGN_OR_RETURN(GammaDiagonalMatrix matrix,
                         GammaDiagonalMatrix::Create(gamma, schema.DomainSize()));
  if (alpha < 0.0 || alpha > matrix.DiagonalValue() + 1e-15) {
    return Status::InvalidArgument(
        "alpha must lie in [0, gamma*x]; gamma*x = " +
        std::to_string(matrix.DiagonalValue()));
  }
  // Realizations must keep entries non-negative: off-diagonal
  // x - r/(n-1) >= 0 requires alpha <= (n-1) x, which holds automatically
  // whenever gamma <= n - 1; guard the unusual tiny-domain case.
  const double n = static_cast<double>(matrix.domain_size());
  if (alpha > (n - 1.0) * matrix.x() + 1e-15) {
    return Status::InvalidArgument(
        "alpha would make off-diagonal entries negative for this domain");
  }
  return RandomizedGammaPerturber(std::move(matrix), std::move(plan), alpha,
                                  kind);
}

StatusOr<data::CategoricalTable> RandomizedGammaPerturber::PerturbShardSeeded(
    const data::ShardView& shard, uint64_t seed, size_t num_threads) const {
  return internal::PerturbShardColumns(shard, *this, seed, num_threads);
}

StatusOr<mining::VerticalIndex> RandomizedGammaPerturber::PerturbShardIndex(
    const data::ShardView& shard, uint64_t seed, size_t num_threads) const {
  return internal::PerturbShardBitmaps(shard, *this, seed, num_threads);
}

}  // namespace core
}  // namespace frapp
