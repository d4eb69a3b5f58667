// The randomized gamma-diagonal mechanism RAN-GD (paper Section 4).
//
// Instead of one fixed matrix, every client perturbs with a private draw of
// the matrix family
//     diagonal  = gamma * x + r,
//     off-diag  = x - r / (n - 1),      r ~ zero-mean on [-alpha, alpha],
// which keeps columns stochastic for every realization. The miner knows only
// the DISTRIBUTION of the matrix, so worst-case posterior computations that
// were exact for DET-GD become ranges (privacy gain); reconstruction uses
// the expected matrix E[A~] = the deterministic gamma-diagonal matrix, and
// the paper's variance analysis (Section 4.2) shows the accuracy loss is
// marginal — randomizing the success probabilities actually shrinks the
// Poisson-binomial variance term while adding a (A-bar - A) X term.

#ifndef FRAPP_CORE_RANDOMIZED_GAMMA_H_
#define FRAPP_CORE_RANDOMIZED_GAMMA_H_

#include "frapp/common/statusor.h"
#include "frapp/core/gamma_diagonal.h"
#include "frapp/core/privacy.h"
#include "frapp/data/sharded_table.h"
#include "frapp/data/table.h"
#include "frapp/mining/vertical_index.h"
#include "frapp/random/distributions.h"
#include "frapp/random/rng.h"

namespace frapp {
namespace core {

/// Client-side perturber drawing a fresh matrix realization per record
/// (= per client: each record belongs to a distinct client in the paper's
/// B2C model).
class RandomizedGammaPerturber {
 public:
  /// `alpha` is the randomization half-width, constrained to
  /// [0, gamma * x] as in the paper's Figure 3 sweep; `kind` selects the
  /// randomization distribution (the paper evaluates uniform).
  static StatusOr<RandomizedGammaPerturber> Create(
      const data::CategoricalSchema& schema, double gamma, double alpha,
      random::RandomizationKind kind = random::RandomizationKind::kUniform);

  /// Perturbs the rows of `shard` on the global seeded-chunk grid, every
  /// record with an independent matrix realization: per record, the
  /// first-divergence column is inverted from a single uniform against the
  /// precomputed per-column thresholds (see GammaPerturbPlan). Same
  /// determinism and partition contract as
  /// GammaDiagonalPerturber::PerturbShardSeeded.
  StatusOr<data::CategoricalTable> PerturbShardSeeded(
      const data::ShardView& shard, uint64_t seed, size_t num_threads = 1) const;

  /// PerturbShardSeeded fused with mining::VerticalIndex::Build: the same
  /// draws, written straight into the shard's bitmap planes.
  StatusOr<mining::VerticalIndex> PerturbShardIndex(
      const data::ShardView& shard, uint64_t seed, size_t num_threads = 1) const;

  /// The per-row sampler behind both shard forms (see
  /// core/seeded_chunking.h): draw this client's matrix realization, then
  /// the divergence column and the plan's row fill.
  template <typename Emit>
  void SampleRow(const uint8_t* const* in_cols, size_t i, random::Pcg64& rng,
                 Emit&& emit) const {
    // E[diagonal] = gamma x.
    const double r = random::SampleRandomizationParameter(kind_, alpha_, rng);
    const double d = matrix_.DiagonalValue() + r;
    const double o =
        matrix_.OffDiagonalValue() -
        r / (static_cast<double>(matrix_.domain_size()) - 1.0);
    plan_.SampleRow(plan_.SampleDivergenceColumn(d, o, rng), in_cols, i, rng,
                    emit);
  }
  const std::vector<size_t>& cardinalities() const {
    return plan_.cardinalities();
  }

  /// The expected matrix (what the miner reconstructs with).
  const GammaDiagonalMatrix& expected_matrix() const { return matrix_; }

  double alpha() const { return alpha_; }
  random::RandomizationKind kind() const { return kind_; }

  /// Posterior probability window for a property with prior `prior`
  /// (paper Section 4.1 / Figure 3a).
  StatusOr<PosteriorRange> PosteriorWindow(double prior) const {
    return RandomizedPosteriorRange(prior, matrix_.gamma(), matrix_.domain_size(),
                                    alpha_);
  }

 private:
  RandomizedGammaPerturber(GammaDiagonalMatrix matrix, GammaPerturbPlan plan,
                           double alpha, random::RandomizationKind kind)
      : matrix_(std::move(matrix)),
        plan_(std::move(plan)),
        alpha_(alpha),
        kind_(kind) {}

  GammaDiagonalMatrix matrix_;
  GammaPerturbPlan plan_;
  double alpha_;
  random::RandomizationKind kind_;
};

}  // namespace core
}  // namespace frapp

#endif  // FRAPP_CORE_RANDOMIZED_GAMMA_H_
