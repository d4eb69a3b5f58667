// Microbenchmark of the mining substrate: exact Apriori and the
// privacy-preserving DET-GD pipeline (perturb + mine with reconstruction)
// on CENSUS-scale data. Every *Scalar variant is the pre-vertical-index /
// pre-alias-kernel implementation, kept as an in-run baseline so speedups
// are measured on the same machine and dataset. BM_DetGdPipeline runs the
// one-shard seeded-chunk PrivacyPipeline; its scalar baseline perturbs in
// row order on one RNG stream and scans rows per candidate.

#include <benchmark/benchmark.h>

#include "frapp_benchmark_main.h"

#include "frapp/core/gamma_diagonal.h"
#include "frapp/core/mechanism.h"
#include "frapp/core/subset_reconstruction.h"
#include "frapp/data/census.h"
#include "frapp/mining/apriori.h"
#include "frapp/mining/support_counter.h"
#include "frapp/pipeline/privacy_pipeline.h"

namespace {

using namespace frapp;

// The pre-vertical-index exact estimator: one branchy row scan per candidate.
class ScalarExactEstimator : public mining::SupportEstimator {
 public:
  explicit ScalarExactEstimator(const data::CategoricalTable& table)
      : table_(table) {}
  StatusOr<double> EstimateSupport(const mining::Itemset& itemset) override {
    return mining::SupportFraction(table_, itemset);
  }

 private:
  const data::CategoricalTable& table_;
};

// The pre-vertical-index DET-GD estimator: a row scan of the perturbed
// table per candidate, then the Eq. 28 closed-form inverse.
class ScalarGammaEstimator : public mining::SupportEstimator {
 public:
  ScalarGammaEstimator(const data::CategoricalTable& perturbed,
                       const core::GammaSubsetReconstructor& reconstructor)
      : perturbed_(perturbed), reconstructor_(reconstructor) {}
  StatusOr<double> EstimateSupport(const mining::Itemset& itemset) override {
    uint64_t subset_domain = 1;
    for (const mining::Item& item : itemset.items()) {
      subset_domain *= perturbed_.schema().Cardinality(item.attribute);
    }
    return reconstructor_.ReconstructSupport(
        mining::SupportFraction(perturbed_, itemset), subset_domain);
  }

 private:
  const data::CategoricalTable& perturbed_;
  const core::GammaSubsetReconstructor& reconstructor_;
};

// The pre-alias-kernel perturbation loop: per-row temporaries, per-column
// Bernoulli draws, per-row StatusOr-checked appends.
data::CategoricalTable ScalarGammaPerturb(const data::CategoricalTable& table,
                                          const core::GammaDiagonalMatrix& matrix,
                                          random::Pcg64& rng) {
  const size_t m = table.num_attributes();
  std::vector<size_t> cardinalities(m);
  for (size_t j = 0; j < m; ++j) cardinalities[j] = table.schema().Cardinality(j);
  data::CategoricalTable out = *data::CategoricalTable::Create(table.schema());
  out.Reserve(table.num_rows());
  std::vector<uint8_t> record(m);
  std::vector<uint8_t> perturbed(m);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    for (size_t j = 0; j < m; ++j) record[j] = table.Value(i, j);
    core::PerturbRecordDiagonalForm(record, cardinalities, matrix.domain_size(),
                                    matrix.DiagonalValue(),
                                    matrix.OffDiagonalValue(), rng, &perturbed);
    (void)out.AppendRow(perturbed);
  }
  return out;
}

void BM_ExactApriori(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const data::CategoricalTable table = *data::census::MakeDataset(n, 9);
  mining::AprioriOptions options;
  options.min_support = 0.02;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mining::MineExact(table, options));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExactApriori)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_ExactAprioriScalar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const data::CategoricalTable table = *data::census::MakeDataset(n, 9);
  mining::AprioriOptions options;
  options.min_support = 0.02;
  for (auto _ : state) {
    ScalarExactEstimator estimator(table);
    benchmark::DoNotOptimize(
        mining::MineFrequentItemsets(table.schema(), estimator, options));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExactAprioriScalar)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_DetGdPipeline(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const data::CategoricalTable table = *data::census::MakeDataset(n, 10);
  pipeline::PipelineOptions options;
  options.mining.min_support = 0.02;
  options.perturb_seed = 11;
  for (auto _ : state) {
    auto mechanism = *core::DetGdMechanism::Create(table.schema(), 19.0);
    benchmark::DoNotOptimize(
        pipeline::PrivacyPipeline(options).Run(*mechanism, table));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DetGdPipeline)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_DetGdPipelineScalar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const data::CategoricalTable table = *data::census::MakeDataset(n, 10);
  const auto matrix =
      *core::GammaDiagonalMatrix::Create(19.0, table.schema().DomainSize());
  const auto reconstructor =
      *core::GammaSubsetReconstructor::Create(19.0, table.schema().DomainSize());
  mining::AprioriOptions options;
  options.min_support = 0.02;
  for (auto _ : state) {
    random::Pcg64 rng(11);
    const data::CategoricalTable perturbed = ScalarGammaPerturb(table, matrix, rng);
    ScalarGammaEstimator estimator(perturbed, reconstructor);
    benchmark::DoNotOptimize(
        mining::MineFrequentItemsets(table.schema(), estimator, options));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DetGdPipelineScalar)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_SupportCount(benchmark::State& state) {
  const data::CategoricalTable table = *data::census::MakeDataset(50000, 12);
  const mining::Itemset itemset = *mining::Itemset::Create(
      {{0, 0}, {3, 0}, {4, 1}, {5, 0}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(mining::CountSupport(table, itemset));
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_SupportCount);

void BM_SupportCountVertical(benchmark::State& state) {
  const data::CategoricalTable table = *data::census::MakeDataset(50000, 12);
  const mining::VerticalIndex index = mining::VerticalIndex::Build(table);
  const mining::Itemset itemset = *mining::Itemset::Create(
      {{0, 0}, {3, 0}, {4, 1}, {5, 0}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.CountSupport(itemset));
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_SupportCountVertical);

void BM_VerticalIndexBuild(benchmark::State& state) {
  const data::CategoricalTable table = *data::census::MakeDataset(50000, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mining::VerticalIndex::Build(table));
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_VerticalIndexBuild);

}  // namespace

FRAPP_BENCHMARK_MAIN();
