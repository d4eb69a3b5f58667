// FRAPP quickstart: the complete privacy-preserving mining loop in ~80 lines.
//
//  1. clients hold categorical records;
//  2. each client perturbs their record with the gamma-diagonal matrix for a
//     (rho1, rho2) = (5%, 50%) privacy guarantee BEFORE sending it anywhere;
//  3. the miner reconstructs the original distribution from the perturbed
//     database and the known matrix (paper Eq. 8).
//
// Build & run:  ./build/examples/quickstart

#include <iostream>

#include "frapp/core/gamma_diagonal.h"
#include "frapp/core/mechanism.h"
#include "frapp/core/privacy.h"
#include "frapp/core/reconstructor.h"
#include "frapp/data/schema.h"
#include "frapp/data/table.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "frapp/random/rng.h"

using namespace frapp;

int main() {
  // --- A tiny survey: two private attributes. ----------------------------
  StatusOr<data::CategoricalSchema> schema = data::CategoricalSchema::Create({
      {"smoker", {"no", "yes"}},
      {"condition", {"none", "diabetes", "hypertension"}},
  });
  if (!schema.ok()) {
    std::cerr << schema.status().ToString() << "\n";
    return 1;
  }

  // Original client data (in reality this never leaves the clients).
  StatusOr<data::CategoricalTable> original = data::CategoricalTable::Create(*schema);
  random::Pcg64 population(1);
  for (int i = 0; i < 50000; ++i) {
    const uint8_t smoker = population.NextBernoulli(0.25) ? 1 : 0;
    // Smokers are likelier to report a condition.
    const double condition_rate = smoker ? 0.4 : 0.15;
    uint8_t condition = 0;
    if (population.NextBernoulli(condition_rate)) {
      condition = population.NextBernoulli(0.5) ? 1 : 2;
    }
    (void)original->AppendRow({smoker, condition});
  }

  // --- Choose the privacy level. ------------------------------------------
  const core::PrivacyRequirement requirement{0.05, 0.50};  // (rho1, rho2)
  const double gamma = *core::GammaFromRequirement(requirement);
  std::cout << "privacy (rho1, rho2) = (5%, 50%)  =>  gamma = " << gamma << "\n";

  // --- Client-side perturbation (gamma-diagonal, O(M) per record). --------
  StatusOr<core::GammaDiagonalPerturber> perturber =
      core::GammaDiagonalPerturber::Create(*schema, gamma);
  StatusOr<data::CategoricalTable> perturbed = perturber->PerturbShardSeeded(
      data::ShardView::Whole(*original), /*seed=*/42);
  if (!perturbed.ok()) {
    std::cerr << perturbed.status().ToString() << "\n";
    return 1;
  }

  // --- Miner-side reconstruction of the joint distribution. ---------------
  StatusOr<linalg::Vector> estimate =
      core::ReconstructFullDistribution(*perturbed, perturber->matrix());
  if (!estimate.ok()) {
    std::cerr << estimate.status().ToString() << "\n";
    return 1;
  }

  const data::DomainIndexer indexer = data::DomainIndexer::OverAllAttributes(*schema);
  const linalg::Vector truth = original->JointHistogram(indexer);
  const double n = static_cast<double>(original->num_rows());

  std::cout << "\njoint cell                          true    reconstructed\n";
  std::cout << "----------------------------------------------------------\n";
  for (uint64_t v = 0; v < indexer.domain_size(); ++v) {
    const std::vector<size_t> values = indexer.Decode(v);
    std::string label = schema->attribute(0).categories[values[0]] + " / " +
                        schema->attribute(1).categories[values[1]];
    label.resize(34, ' ');
    printf("%s  %5.3f    %6.3f\n", label.c_str(),
           truth[static_cast<size_t>(v)] / n,
           (*estimate)[static_cast<size_t>(v)] / n);
  }

  // --- Frequent-pattern mining through the streaming pipeline. ------------
  // The same privacy budget also supports itemset mining: the pipeline
  // perturbs shard by shard (dropping each shard once indexed) and runs
  // Apriori with per-pass support reconstruction.
  StatusOr<std::unique_ptr<core::DetGdMechanism>> mechanism =
      core::DetGdMechanism::Create(*schema, gamma);
  pipeline::PipelineOptions options;
  options.perturb_seed = 42;
  options.num_shards = 0;  // one shard per seeded chunk
  options.mining.min_support = 0.05;
  StatusOr<pipeline::PipelineResult> mined =
      pipeline::PrivacyPipeline(options).Run(**mechanism, *original);
  if (!mined.ok()) {
    std::cerr << mined.status().ToString() << "\n";
    return 1;
  }
  std::cout << "\nPrivacy-preserving mining (supmin = 5%, streamed in "
            << mined->stats.num_shards << " shards): "
            << mined->mined.TotalFrequent()
            << " frequent itemsets reconstructed.\n";

  std::cout << "\nNo individual record was revealed: any adversary seeing one\n"
               "perturbed record can raise a 5%-prior property to at most a\n"
               "50% posterior (amplification bound gamma = 19).\n";
  return 0;
}
