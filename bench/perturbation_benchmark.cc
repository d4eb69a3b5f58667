// Microbenchmark backing the paper's Section 5 complexity claim: the
// dependent-column gamma-diagonal perturber costs O(sum_j |S_j|) per record,
// while the straightforward CDF-scan algorithm costs O(prod_j |S_j|) — so
// adding attributes grows the naive cost geometrically but the efficient
// cost only linearly. Also measures MASK / C&P perturbation throughput.
// Every perturber runs its one row loop, the seeded-chunk shard form the
// engines and `frapp perturb` share.

#include <benchmark/benchmark.h>

#include "frapp_benchmark_main.h"

#include "frapp/core/cut_paste_scheme.h"
#include "frapp/core/gamma_diagonal.h"
#include "frapp/core/mask_scheme.h"
#include "frapp/core/naive_perturber.h"
#include "frapp/core/randomized_gamma.h"
#include "frapp/core/seeded_chunking.h"
#include "frapp/data/boolean_view.h"
#include "frapp/data/census.h"

namespace {

using namespace frapp;

// Schema with `m` attributes of 4 categories each: |S_U| = 4^m.
data::CategoricalSchema PowerSchema(size_t m) {
  std::vector<data::Attribute> attrs;
  for (size_t j = 0; j < m; ++j) {
    attrs.push_back({"a" + std::to_string(j), {"0", "1", "2", "3"}});
  }
  return *data::CategoricalSchema::Create(std::move(attrs));
}

data::CategoricalTable RandomTable(const data::CategoricalSchema& schema, size_t n) {
  data::CategoricalTable table = *data::CategoricalTable::Create(schema);
  random::Pcg64 rng(1);
  std::vector<uint8_t> row(schema.num_attributes());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < row.size(); ++j) {
      row[j] = static_cast<uint8_t>(rng.NextBounded(schema.Cardinality(j)));
    }
    (void)table.AppendRow(row);
  }
  return table;
}

void BM_EfficientGammaPerturb(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const data::CategoricalSchema schema = PowerSchema(m);
  const data::CategoricalTable table = RandomTable(schema, 1000);
  auto perturber = *core::GammaDiagonalPerturber::Create(schema, 19.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        perturber.PerturbShardSeeded(data::ShardView::Whole(table), 2));
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
  state.counters["domain"] = static_cast<double>(schema.DomainSize());
}
BENCHMARK(BM_EfficientGammaPerturb)->DenseRange(2, 8, 2);

void BM_NaiveCdfPerturb(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const data::CategoricalSchema schema = PowerSchema(m);
  const data::CategoricalTable table = RandomTable(schema, 1000);
  auto matrix = *core::GammaDiagonalMatrix::Create(19.0, schema.DomainSize());
  auto perturber = *core::NaivePerturber::Create(schema, matrix);
  random::Pcg64 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(perturber.Perturb(table, rng));
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
  state.counters["domain"] = static_cast<double>(schema.DomainSize());
}
// 4^8 = 65536: already ~3 orders slower per record than the efficient path.
BENCHMARK(BM_NaiveCdfPerturb)->DenseRange(2, 8, 2);

// The pre-alias sequential per-column Bernoulli loop, kept as the in-run
// baseline for the divergence-column kernel; it draws from the same
// seeded-chunk streams.
void BM_SequentialGammaPerturb(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const data::CategoricalSchema schema = PowerSchema(m);
  const data::CategoricalTable table = RandomTable(schema, 1000);
  auto matrix = *core::GammaDiagonalMatrix::Create(19.0, schema.DomainSize());
  std::vector<size_t> cardinalities(m, 4);
  std::vector<uint8_t> record(m);
  std::vector<uint8_t> perturbed(m);
  for (auto _ : state) {
    data::CategoricalTable out = *data::CategoricalTable::Create(schema);
    out.Reserve(table.num_rows());
    core::internal::ForEachSeededChunk(
        table.num_rows(), /*global_begin=*/0, /*seed=*/2, /*num_threads=*/1,
        [&](size_t begin, size_t end, random::Pcg64& rng) {
          for (size_t i = begin; i < end; ++i) {
            for (size_t j = 0; j < m; ++j) record[j] = table.Value(i, j);
            core::PerturbRecordDiagonalForm(
                record, cardinalities, schema.DomainSize(),
                matrix.DiagonalValue(), matrix.OffDiagonalValue(), rng,
                &perturbed);
            (void)out.AppendRow(perturbed);
          }
        });
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_SequentialGammaPerturb)->DenseRange(2, 8, 2);

// Deterministic seeded path; range(1) = worker threads.
void BM_SeededGammaPerturb(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const data::CategoricalSchema schema = PowerSchema(m);
  const data::CategoricalTable table = RandomTable(schema, 50000);
  auto perturber = *core::GammaDiagonalPerturber::Create(schema, 19.0);
  const size_t threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        perturber.PerturbShardSeeded(data::ShardView::Whole(table), 99, threads));
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_SeededGammaPerturb)->Args({6, 1})->Args({6, 2})->Args({6, 4});

void BM_RandomizedGammaPerturb(benchmark::State& state) {
  const data::CategoricalSchema schema = data::census::Schema();
  const data::CategoricalTable table = RandomTable(schema, 1000);
  const double x = 1.0 / (19.0 + schema.DomainSize() - 1.0);
  auto perturber =
      *core::RandomizedGammaPerturber::Create(schema, 19.0, 19.0 * x / 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        perturber.PerturbShardSeeded(data::ShardView::Whole(table), 4));
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_RandomizedGammaPerturb);

void BM_MaskPerturb(benchmark::State& state) {
  const data::CategoricalSchema schema = data::census::Schema();
  const data::CategoricalTable table = RandomTable(schema, 1000);
  auto scheme = *core::MaskScheme::CalibrateForGamma(19.0, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.PerturbShardIndex(
        data::ShardView::Whole(table), /*seed=*/5, /*num_threads=*/1));
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_MaskPerturb);

void BM_CutPastePerturb(benchmark::State& state) {
  const data::CategoricalSchema schema = data::census::Schema();
  const data::CategoricalTable table = RandomTable(schema, 1000);
  auto scheme = *core::CutPasteScheme::Create(3, 0.494, 6, 23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.PerturbShardIndex(
        data::ShardView::Whole(table), /*seed=*/6, /*num_threads=*/1));
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_CutPastePerturb);

}  // namespace

FRAPP_BENCHMARK_MAIN();
